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

TEST(Cli, TopLevelHelpNamesEverySubcommand) {
  EXPECT_NE(usage().find("mt4g fleet"), std::string::npos);
  EXPECT_NE(usage().find("mt4g spec"), std::string::npos);
}

FlagParse parse_table(const std::vector<Flag>& flags,
                      std::initializer_list<const char*> args,
                      std::size_t max_positionals = 0) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_flags(flags, static_cast<int>(argv.size()), argv.data(),
                     max_positionals);
}

TEST(FlagTable, AMissingValueIsNamedNotUnknown) {
  std::string out = "specs";
  const std::vector<Flag> flags = {{{"--out"}, "DIR", "", text(out)}};
  const auto parsed = parse_table(flags, {"--out"});
  ASSERT_EQ(parsed.errors.size(), 1u);
  EXPECT_EQ(parsed.errors[0], "missing value for --out");
  EXPECT_EQ(out, "specs");
  // A value flag takes the next argument whatever it looks like.
  EXPECT_TRUE(parse_table(flags, {"--out", "-x"}).errors.empty());
  EXPECT_EQ(out, "-x");
}

TEST(FlagTable, CountsAreDecimalsWithinTheirBounds) {
  std::uint32_t threads = 7;
  const std::vector<Flag> flags = {{{"--threads"}, "N", "", count(threads, 1)}};
  for (const char* bad : {"0", "1025", "abc", "12abc", "-1", "+1", "", " 5",
                          "0x10", "4294967296"}) {
    EXPECT_EQ(parse_table(flags, {"--threads", bad}).errors.size(), 1u)
        << "'" << bad << "'";
    EXPECT_EQ(threads, 7u) << "a rejected value stores nothing";
  }
  for (const std::uint32_t good : {1u, 1024u}) {
    const std::string text = std::to_string(good);
    EXPECT_TRUE(parse_table(flags, {"--threads", text.c_str()}).errors.empty());
    EXPECT_EQ(threads, good);
  }
  std::uint32_t procs = 3;
  const std::vector<Flag> zero_ok = {{{"--procs"}, "N", "", count(procs, 0)}};
  EXPECT_TRUE(parse_table(zero_ok, {"--procs", "0"}).errors.empty());
  EXPECT_EQ(procs, 0u);
  std::uint32_t seeds = 1;
  const std::vector<Flag> wide = {
      {{"--seeds"}, "N", "", count(seeds, 1, 1u << 20)}};
  EXPECT_TRUE(parse_table(wide, {"--seeds", "1048576"}).errors.empty());
  EXPECT_FALSE(parse_table(wide, {"--seeds", "1048577"}).errors.empty());
}

TEST(FlagTable, SecondsAreFiniteAndPositive) {
  double budget = 0.0;
  const std::vector<Flag> flags = {
      {{"--timeout"}, "SEC", "", seconds(budget)}};
  for (const char* bad :
       {"inf", "nan", "0", "-1", "-inf", "abc", "1e400", "", "2s"}) {
    EXPECT_EQ(parse_table(flags, {"--timeout", bad}).errors.size(), 1u)
        << "'" << bad << "'";
    EXPECT_EQ(budget, 0.0) << "a rejected value stores nothing";
  }
  EXPECT_TRUE(parse_table(flags, {"--timeout", "0.05"}).errors.empty());
  EXPECT_EQ(budget, 0.05);
  EXPECT_TRUE(parse_table(flags, {"--timeout", "1e300"}).errors.empty());
  EXPECT_EQ(budget, 1e300);
}

TEST(FlagTable, SeedsFollowParseSeed) {
  std::uint64_t value = 42;
  const std::vector<Flag> flags = {{{"--first-seed"}, "N", "", seed(value)}};
  EXPECT_FALSE(parse_table(flags, {"--first-seed", "-1"}).errors.empty());
  EXPECT_EQ(value, 42u);
  EXPECT_TRUE(parse_table(flags, {"--first-seed", "18446744073709551615"})
                  .errors.empty());
  EXPECT_EQ(value, 18446744073709551615ull);
}

TEST(FlagTable, AliasesSwitchesPositionalsAndHelp) {
  bool quiet = false;
  bool fail_fast = true;
  std::vector<std::string> specs;
  const std::vector<Flag> flags = {
      {{"-q", "--quiet"}, "", "", toggle(quiet)},
      {{"--keep-going"}, "", "", toggle(fail_fast, false)},
      {{"--spec"}, "FILE", "", texts(specs)},
  };
  const auto parsed = parse_table(
      flags, {"a", "--quiet", "--spec", "x", "--keep-going", "b", "--spec",
              "y"},
      2);
  EXPECT_TRUE(parsed.errors.empty());
  EXPECT_FALSE(parsed.show_help);
  EXPECT_TRUE(quiet);
  EXPECT_FALSE(fail_fast);
  EXPECT_EQ(specs, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(parsed.positionals, (std::vector<std::string>{"a", "b"}));

  quiet = false;
  EXPECT_TRUE(parse_table(flags, {"-q"}).errors.empty());
  EXPECT_TRUE(quiet);
  EXPECT_TRUE(parse_table(flags, {"-h"}).show_help);
  EXPECT_TRUE(parse_table(flags, {"--help"}).show_help);

  // Positionals past the table's limit, and unknown flags, are errors.
  const auto extra = parse_table(flags, {"a", "b"}, 1);
  ASSERT_EQ(extra.errors.size(), 1u);
  EXPECT_EQ(extra.errors[0], "unexpected argument 'b'");
  EXPECT_EQ(extra.positionals, (std::vector<std::string>{"a"}));
  const auto unknown = parse_table(flags, {"--qiet"});
  ASSERT_EQ(unknown.errors.size(), 1u);
  EXPECT_EQ(unknown.errors[0], "unknown argument '--qiet'");
}

std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(FlagTable, UsageNamesEveryRowExactlyOnce) {
  bool quiet = false;
  std::string out;
  std::uint32_t procs = 0;
  const std::vector<Flag> flags = {
      {{"-q", "--quiet"}, "", "no progress", toggle(quiet)},
      {{"--out"}, "DIR", "output directory\n(default .)", text(out)},
      {{"--procs"}, "N", "worker processes", count(procs, 0)},
  };
  // Help texts share one column; continuation lines are indented to it.
  EXPECT_EQ(flag_usage(flags),
            "  -q, --quiet  no progress\n"
            "  --out DIR    output directory\n"
            "               (default .)\n"
            "  --procs N    worker processes\n"
            "  -h, --help   this text\n");

  // Each of the discover table's 18 flags, and --help, leads one row.
  const std::string top = usage();
  for (const char* flag :
       {"--gpu", "--model-dir", "--model-spec", "--list", "--seed", "--only",
        "--sweep-threads", "--bench-threads", "--cache-config", "--out",
        "--trace", "--metrics", "--flops", "-g", "-o", "-p", "-j", "-q",
        "-h, --help"}) {
    EXPECT_EQ(occurrences(top, std::string("\n  ") + flag + " "), 1u)
        << flag;
  }
}

}  // namespace
}  // namespace mt4g::cli
