#include "common/cli.hpp"

#include <gtest/gtest.h>

namespace mt4g::cli {
namespace {

ParseResult parse_args(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"mt4g"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, Defaults) {
  const auto result = parse_args({});
  EXPECT_TRUE(result.errors.empty());
  EXPECT_EQ(result.options.gpu_name, "H100-80");
  EXPECT_EQ(result.options.seed, 42u);
  EXPECT_FALSE(result.options.quiet);
  EXPECT_EQ(result.options.cache_config, "PreferL1");
}

TEST(Cli, PaperFlagSet) {
  const auto result = parse_args({"-g", "-o", "-p", "-j"});
  EXPECT_TRUE(result.errors.empty());
  EXPECT_TRUE(result.options.emit_graphs);
  EXPECT_TRUE(result.options.emit_raw);
  EXPECT_TRUE(result.options.emit_markdown);
  EXPECT_TRUE(result.options.emit_json_file);
}

TEST(Cli, GpuSeedAndOnly) {
  const auto result =
      parse_args({"--gpu", "MI210", "--seed", "7", "--only", "L1"});
  EXPECT_TRUE(result.errors.empty());
  EXPECT_EQ(result.options.gpu_name, "MI210");
  EXPECT_EQ(result.options.seed, 7u);
  ASSERT_EQ(result.options.only.size(), 1u);
  EXPECT_EQ(result.options.only[0], "L1");
}

TEST(Cli, OnlyAcceptsElementSets) {
  // Comma-separated values and repeated flags accumulate.
  const auto result =
      parse_args({"--only", "l1,l2", "--only", "tex"});
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.options.only.size(), 3u);
  EXPECT_EQ(result.options.only[0], "l1");
  EXPECT_EQ(result.options.only[1], "l2");
  EXPECT_EQ(result.options.only[2], "tex");
  EXPECT_TRUE(parse_args({}).options.only.empty());
}

TEST(Cli, BenchThreads) {
  EXPECT_EQ(parse_args({}).options.bench_threads, 1u);
  EXPECT_EQ(parse_args({"--bench-threads", "8"}).options.bench_threads, 8u);
  EXPECT_FALSE(parse_args({"--bench-threads", "0"}).errors.empty());
  EXPECT_FALSE(parse_args({"--bench-threads", "bogus"}).errors.empty());
}

TEST(Cli, CacheConfigValidation) {
  EXPECT_TRUE(parse_args({"--cache-config", "PreferShared"}).errors.empty());
  EXPECT_FALSE(parse_args({"--cache-config", "Bogus"}).errors.empty());
}

TEST(Cli, ErrorsOnUnknownAndMissingValue) {
  EXPECT_FALSE(parse_args({"--frobnicate"}).errors.empty());
  EXPECT_FALSE(parse_args({"--gpu"}).errors.empty());
  EXPECT_FALSE(parse_args({"--seed", "NaN"}).errors.empty());
  // A seed is a whole unsigned decimal: partial, signed, padded, empty and
  // out-of-range values are errors, never a silently different seed.
  for (const char* seed :
       {"12abc", "-1", "+1", "", " 7", "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(parse_args({"--seed", seed}).errors.empty())
        << "'" << seed << "'";
  }
  EXPECT_EQ(parse_args({"--seed", "18446744073709551615"}).options.seed,
            18446744073709551615ull);
}

TEST(Cli, FlopsFlag) {
  EXPECT_FALSE(parse_args({}).options.measure_flops);
  EXPECT_TRUE(parse_args({"--flops"}).options.measure_flops);
}

TEST(Cli, HelpFlag) {
  EXPECT_TRUE(parse_args({"-h"}).show_help);
  EXPECT_TRUE(parse_args({"--help"}).show_help);
  EXPECT_NE(usage().find("--gpu"), std::string::npos);
}

}  // namespace
}  // namespace mt4g::cli
