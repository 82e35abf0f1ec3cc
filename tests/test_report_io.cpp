#include "core/output/report_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/collector.hpp"
#include "core/output/json_output.hpp"
#include "sim/gpu.hpp"
#include "sim/registry.hpp"

namespace mt4g::core {
namespace {

TopologyReport fresh_report(const char* gpu = "TestGPU-NV",
                            std::uint64_t seed = 42) {
  sim::Gpu device(sim::registry_get(gpu), seed);
  DiscoverOptions options;
  options.measure_compute = true;
  return discover(device, options);
}

TEST(ReportIo, RoundTripPreservesEverything) {
  const TopologyReport original = fresh_report();
  const TopologyReport loaded =
      from_json_string(to_json_string(original));
  // The strongest possible statement: a re-serialisation is byte-identical.
  EXPECT_EQ(to_json_string(loaded), to_json_string(original));
}

TEST(ReportIo, RoundTripAmdWithCuSharing) {
  const TopologyReport original = fresh_report("TestGPU-AMD");
  const TopologyReport loaded = from_json_string(to_json_string(original));
  EXPECT_EQ(to_json_string(loaded), to_json_string(original));
  EXPECT_TRUE(loaded.cu_sharing.available);
  EXPECT_EQ(loaded.cu_sharing.peers, original.cu_sharing.peers);
}

TEST(ReportIo, LoadedReportIsQueryable) {
  const TopologyReport loaded =
      from_json_string(to_json_string(fresh_report()));
  const auto* l1 = loaded.find(sim::Element::kL1);
  ASSERT_NE(l1, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(l1->size.value), 4096u);
  EXPECT_EQ(l1->size.provenance, Provenance::kBenchmark);
  EXPECT_FALSE(loaded.compute_throughput.empty());
}

TEST(ReportIo, RejectsGarbage) {
  EXPECT_THROW(from_json_string("not json"), std::runtime_error);
  EXPECT_THROW(from_json_string("[]"), std::runtime_error);
  EXPECT_THROW(from_json_string("{\"general\": {}}"), std::runtime_error);
}

TEST(ReportIo, FromJsonReadsTheDocumentToJsonBuilds) {
  const TopologyReport original = fresh_report();
  EXPECT_EQ(to_json_string(from_json(to_json(original))),
            to_json_string(original));
}

/// @p doc with member @p key of its @p section object set to @p value.
json::Value with_member(json::Value doc, const std::string& section,
                        const std::string& key, json::Value value) {
  for (auto& [name, member] : doc.as_object()) {
    if (name == section) member.set(key, value);
  }
  return doc;
}

/// Expects the serialised @p doc to be rejected with a std::runtime_error
/// that names @p field.
void expect_rejected(const json::Value& doc, const std::string& field) {
  try {
    (void)from_json_string(doc.dump());
    ADD_FAILURE() << "accepted a malformed '" << field << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(ReportIo, RejectsCountsOutOfRangeOrOfTheWrongType) {
  const json::Value doc = to_json(fresh_report());
  expect_rejected(with_member(doc, "meta", "total_cycles", 1e300),
                  "total_cycles");
  expect_rejected(with_member(doc, "meta", "total_cycles", -1),
                  "total_cycles");
  expect_rejected(with_member(doc, "meta", "chase_memo_hits", "many"),
                  "chase_memo_hits");
  expect_rejected(
      with_member(doc, "compute", "num_sms", std::int64_t{1} << 40),
      "num_sms");
}

TEST(ReportIo, RejectsANonArrayMemorySection) {
  json::Value doc = to_json(fresh_report());
  doc.set("memory", 5);
  expect_rejected(doc, "memory");
}

TEST(ReportIo, RejectsAnUnknownMemoryElement) {
  json::Value doc = to_json(fresh_report());
  for (auto& [name, member] : doc.as_object()) {
    if (name == "memory") member.as_array().front().set("element", "L9");
  }
  expect_rejected(doc, "element");
}

TEST(ReportIo, DiffIdenticalReportsIsEmpty) {
  const TopologyReport report = fresh_report();
  EXPECT_TRUE(diff_reports(report, report).empty());
}

TEST(ReportIo, DiffSameGpuDifferentSeedWithinTolerance) {
  // Two runs of the same GPU with different noise seeds: discrete attributes
  // are identical; continuous ones stay within the 5% tolerance — exactly
  // how the artifact expects stored and fresh reports to compare.
  const auto a = fresh_report("TestGPU-NV", 42);
  const auto b = fresh_report("TestGPU-NV", 1234);
  const auto differences = diff_reports(a, b);
  for (const auto& d : differences) {
    ADD_FAILURE() << d.element << "." << d.attribute << ": " << d.lhs
                  << " vs " << d.rhs;
  }
}

TEST(ReportIo, DiffDetectsChangedAttribute) {
  auto a = fresh_report();
  auto b = a;
  b.find(sim::Element::kL1)->size.value *= 2;
  b.find(sim::Element::kL1)->cache_line.provenance =
      Provenance::kUnavailable;
  const auto differences = diff_reports(a, b);
  ASSERT_EQ(differences.size(), 2u);
  EXPECT_EQ(differences[0].element, "L1");
  EXPECT_EQ(differences[0].attribute, "size");
  EXPECT_EQ(differences[1].attribute, "cache_line.provenance");
}

TEST(ReportIo, DiffDetectsMissingElement) {
  auto a = fresh_report();
  auto b = a;
  b.memory.erase(b.memory.begin());  // drop L1
  const auto forward = diff_reports(a, b);
  ASSERT_FALSE(forward.empty());
  EXPECT_EQ(forward[0].attribute, "presence");
  const auto backward = diff_reports(b, a);
  ASSERT_FALSE(backward.empty());
  EXPECT_EQ(backward[0].lhs, "missing");
}

TEST(ReportIo, DiffDetectsDifferentGpus) {
  const auto nv = fresh_report("TestGPU-NV");
  const auto amd = fresh_report("TestGPU-AMD");
  const auto differences = diff_reports(nv, amd);
  EXPECT_GT(differences.size(), 5u);
}

}  // namespace
}  // namespace mt4g::core
