// Round-trip and diagnostic tests for the spec document format (spec_io.hpp).
//
// The contract under test is the data-driven registry's foundation: every
// built-in model serialises to canonical JSON, re-parses to a field-by-field
// equal GpuSpec, and a discovery run on the re-parsed spec is byte-identical
// to one on the original — the guarantee that shipping models as specs/*.json
// changes nothing about the reports.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/units.hpp"
#include "core/mt4g.hpp"
#include "core/output/json_output.hpp"
#include "sim/gpu.hpp"
#include "sim/registry.hpp"
#include "sim/spec_io.hpp"

namespace mt4g::sim {
namespace {

TEST(SpecIo, EveryBuiltinRoundTripsFieldByField) {
  for (const std::string& name : registry_all_names()) {
    const GpuSpec& original = registry_get(name);
    const std::string text = spec_to_json(original);
    const GpuSpec reparsed = spec_from_json_string(text, name);
    EXPECT_EQ(reparsed, original) << name << " did not round-trip";
  }
}

TEST(SpecIo, CanonicalTextIsStableAcrossRoundTrips) {
  // Serialise -> parse -> serialise must reproduce the same bytes; the
  // canonical form (and therefore the content hash) has one representation.
  for (const std::string& name : registry_all_names()) {
    const std::string first = spec_to_json(registry_get(name));
    const std::string second = spec_to_json(spec_from_json_string(first, name));
    EXPECT_EQ(first, second) << name << " canonical text drifted";
    EXPECT_EQ(spec_content_hash(registry_get(name)),
              spec_content_hash(spec_from_json_string(first, name)));
  }
}

TEST(SpecIo, ExactDoublesSurviveTheRoundTrip) {
  // 4.0/7.0 (A100 MIG bandwidth fraction) and 4.4 TiB/s (H100 L2 read
  // bandwidth) are the canaries: %.10g-style formatting would corrupt them.
  const GpuSpec& a100 = registry_get("A100");
  const GpuSpec reparsed = spec_from_json_string(spec_to_json(a100), "A100");
  ASSERT_EQ(reparsed.mig_profiles.size(), a100.mig_profiles.size());
  for (std::size_t i = 0; i < a100.mig_profiles.size(); ++i) {
    EXPECT_EQ(reparsed.mig_profiles[i].bandwidth_fraction,
              a100.mig_profiles[i].bandwidth_fraction);
  }
  const GpuSpec& h100 = registry_get("H100-80");
  EXPECT_EQ(spec_from_json_string(spec_to_json(h100), "H100-80")
                .at(Element::kL2)
                .read_bw_bytes_per_s,
            h100.at(Element::kL2).read_bw_bytes_per_s);
}

TEST(SpecIo, DiscoveryOnReparsedSpecIsByteIdentical) {
  // One NVIDIA and one AMD synthetic model: full discovery through the
  // simulator on the file-format spec must reproduce the report exactly.
  for (const char* name : {"TestGPU-NV", "TestGPU-AMD"}) {
    const GpuSpec& original = registry_get(name);
    const GpuSpec reparsed =
        spec_from_json_string(spec_to_json(original), name);

    sim::Gpu gpu_a(original, 42);
    sim::Gpu gpu_b(reparsed, 42);
    const std::string report_a =
        core::to_json_string(core::discover(gpu_a, {}));
    const std::string report_b =
        core::to_json_string(core::discover(gpu_b, {}));
    EXPECT_EQ(report_a, report_b) << name;
  }
}

TEST(SpecIo, ValidateAcceptsEveryBuiltin) {
  for (const std::string& name : registry_all_names()) {
    EXPECT_TRUE(validate_spec(registry_get(name)).empty()) << name;
  }
}

TEST(SpecIo, ParserRejectsUnknownFields) {
  std::string text = spec_to_json(registry_get("TestGPU-NV"));
  text.replace(text.find("\"num_sms\""), 9, "\"num_smz\"");
  try {
    spec_from_json_string(text, "edited");
    FAIL() << "unknown field accepted";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown field 'num_smz'"),
              std::string::npos)
        << e.what();
  }
}

TEST(SpecIo, ParserRejectsACuIdBeyondThe32BitRange) {
  // 4294967305 = 2^32 + 9: cut to 32 bits it would read as CU 9, and the
  // copy would validate, hash and report like the file that lists 9.
  std::string text = spec_to_json(registry_get("TestGPU-AMD"));
  const std::string ids = "[0, 1, 2, 4, 6, 7, 8, 9]";
  const std::size_t at = text.find(ids);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, ids.size(), "[0, 1, 2, 4, 6, 7, 8, 4294967305]");
  try {
    spec_from_json_string(text, "edited");
    FAIL() << "CU id 4294967305 accepted";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "field 'active_cu_ids' exceeds the 32-bit range"),
              std::string::npos)
        << e.what();
  }
}

TEST(SpecIo, ParserReportsMissingRequiredFields) {
  try {
    spec_from_json_string(R"({"schema": "mt4g-gpu-spec/v1"})", "minimal");
    FAIL() << "empty spec accepted";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("name"), std::string::npos) << what;
    EXPECT_NE(what.find("vendor"), std::string::npos) << what;
    EXPECT_NE(what.find("elements"), std::string::npos) << what;
  }
}

TEST(SpecIo, ValidateRejectsMoreSectorsPerLineThanACacheHolds) {
  // 64-byte L2 lines of 1-byte sectors: 64 sectors, beyond the 32-bit
  // sector mask. The simulator cannot build this cache, so the spec must
  // not validate.
  GpuSpec spec = registry_get("TestGPU-NV");
  spec.elements[Element::kL2].sector_bytes = 1;
  const std::vector<std::string> problems = validate_spec(spec);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("at most 32"), std::string::npos) << problems[0];
  EXPECT_NE(problems[0].find("element L2"), std::string::npos) << problems[0];

  spec.elements[Element::kL2].sector_bytes =
      spec.elements[Element::kL2].line_bytes / 32;
  EXPECT_TRUE(validate_spec(spec).empty());
}

TEST(SpecIo, ValidateRejectsAConstL15BelowItsSizeSearch) {
  // The CL1.5 size search starts at max(2 x ConstL1, 4 KiB). Below that,
  // discovery misreads CL1.5 (a 6 KiB ConstL1 over TestGPU-NV's 8 KiB
  // CL1.5 read 35,264 B), and beyond 64 KiB it aborts (a 48 KiB ConstL1:
  // "bad search bounds"), so such specs must not validate.
  const auto rejects = [](std::uint64_t cl1, std::uint64_t cl15) {
    GpuSpec spec = registry_get("TestGPU-NV");
    spec.elements[Element::kConstL1].size_bytes = cl1;
    spec.elements[Element::kConstL15].size_bytes = cl15;
    return validate_spec(spec);
  };
  for (const auto& [cl1, cl15] :
       {std::pair{6 * KiB, 8 * KiB}, {8 * KiB, 8 * KiB}, {512, 2 * KiB},
        {1 * KiB, 3 * KiB}}) {
    const std::vector<std::string> problems = rejects(cl1, cl15);
    ASSERT_EQ(problems.size(), 1u) << cl1 << " / " << cl15;
    EXPECT_NE(problems[0].find("ConstL15"), std::string::npos) << problems[0];
    EXPECT_NE(problems[0].find(std::to_string(cl1)), std::string::npos)
        << problems[0];
    EXPECT_NE(problems[0].find(std::to_string(cl15)), std::string::npos)
        << problems[0];
  }
  // The pairs discovery reads correctly, the search start itself included.
  for (const auto& [cl1, cl15] :
       {std::pair{4 * KiB, 8 * KiB}, {1 * KiB, 4 * KiB}, {2 * KiB, 4 * KiB},
        {2 * KiB, 6 * KiB}}) {
    EXPECT_TRUE(rejects(cl1, cl15).empty()) << cl1 << " / " << cl15;
  }
  // Nor may the search start beyond the 64 KiB constant array limit,
  // however large CL1.5 is.
  const std::vector<std::string> beyond = rejects(48 * KiB, 128 * KiB);
  ASSERT_EQ(beyond.size(), 1u);
  EXPECT_NE(beyond[0].find("ConstL1 size_bytes 49152"), std::string::npos)
      << beyond[0];
  EXPECT_NE(beyond[0].find("65536"), std::string::npos) << beyond[0];
  EXPECT_TRUE(rejects(32 * KiB, 128 * KiB).empty());
  // Without a ConstL1 the search starts at 4 KiB.
  GpuSpec spec = registry_get("TestGPU-NV");
  spec.elements.erase(Element::kConstL1);
  EXPECT_TRUE(validate_spec(spec).empty());
  spec.elements[Element::kConstL15].size_bytes = 2 * KiB;
  ASSERT_EQ(validate_spec(spec).size(), 1u);
  EXPECT_NE(validate_spec(spec)[0].find("4096"), std::string::npos);
}

TEST(SpecIo, CliFailsCleanlyOnASpecItCannotSimulate) {
  // Two billion SMs validate, but no host holds their caches: the CLI must
  // report the simulator's exception and exit 1, not abort on a signal.
  // (The CLI is resolved as ./mt4g_cli in the ctest working directory.)
  if (!std::filesystem::exists("./mt4g_cli")) {
    GTEST_SKIP() << "no ./mt4g_cli in cwd";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes need more address space than the "
                  "limit below allows";
#endif
  GpuSpec spec = registry_get("TestGPU-NV");
  spec.num_sms = 2147483648u;
  ASSERT_TRUE(validate_spec(spec).empty());
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("mt4g_huge_sms_" + std::to_string(::getpid()) + ".json");
  std::ofstream(path) << spec_to_json(spec);
  // The address-space limit makes the allocation fail alike under every
  // overcommit policy, so the test never holds real memory.
  const std::string command = "sh -c 'ulimit -v 4194304; exec ./mt4g_cli "
                              "--model-spec " + path.string() +
                              " -q' > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  std::filesystem::remove(path);
  ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 1);
}

TEST(SpecIo, ParserRejectsMalformedJson) {
  EXPECT_THROW(spec_from_json_string("{not json", "broken"), SpecError);
}

TEST(SpecIo, ContentHashChangesWithAnyFieldEdit) {
  GpuSpec spec = registry_get("TestGPU-NV");
  const std::uint64_t base = spec_content_hash(spec);
  spec.elements[Element::kL1].latency_cycles += 1.0;
  EXPECT_NE(spec_content_hash(spec), base);
  EXPECT_EQ(spec_content_hash_hex(spec).size(), 16u);
}

}  // namespace
}  // namespace mt4g::sim
