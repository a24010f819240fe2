// The two-tier collector federation (cell meters -> cell collectors ->
// plant collector) and the RFC 7011 sequence accounting that underpins
// its record-conservation guarantees: per-stream serial-number
// arithmetic across 2^32 wraparound, per-domain streams, reorder
// tolerance.
#include "flowmon/federation.hpp"

#include <gtest/gtest.h>

#include "flowmon/report.hpp"

namespace steelnet::flowmon {
namespace {

using namespace steelnet::sim::literals;

// ---------------------------------------------------------------------
// Sequence accounting, unit level: hand-built export frames.

net::Frame seq_frame(const CollectorNode& col, std::uint64_t exporter,
                     std::uint32_t domain, std::uint32_t seq,
                     std::size_t n_records) {
  ExportRecord r;
  r.key.src = net::MacAddress{0x1};
  r.key.dst = net::MacAddress{0x2};
  r.packets = 10;
  r.bytes = 1000;
  r.end_reason = EndReason::kIdleTimeout;
  const std::vector<ExportRecord> records(n_records, r);
  MessageHeader h;
  h.observation_domain = domain;
  h.sequence = seq;
  net::Frame f;
  f.dst = col.mac();
  f.src = net::MacAddress{exporter};
  f.ethertype = net::EtherType::kFlowmonExport;
  f.payload = encode_message(h, flow_template(), /*include_template=*/true,
                             records);
  return f;
}

TEST(CollectorSequence, SurvivesThirtyTwoBitWraparound) {
  CollectorNode c{net::MacAddress{0xC0}};
  // Walk the stream's expectation up to just below 2^32 with two large
  // (but < 2^31, so resync-able) forward gaps...
  c.handle_frame(seq_frame(c, 0xE, 1, 0x7fff'ffffu, 1), 0);
  EXPECT_EQ(c.counters().lost_records, 0x7fff'ffffu);
  c.handle_frame(seq_frame(c, 0xE, 1, 0xffff'fffdu, 5), 0);
  EXPECT_EQ(c.counters().lost_records,
            0x7fff'ffffull + 0x7fff'fffdull);
  // ...so the expectation is now 0xfffffffd + 5 == 2 (mod 2^32). The
  // next in-order message crosses zero without being charged as loss.
  const std::uint64_t lost_before_wrap = c.counters().lost_records;
  c.handle_frame(seq_frame(c, 0xE, 1, 2, 4), 0);
  EXPECT_EQ(c.counters().lost_records, lost_before_wrap);
  EXPECT_EQ(c.counters().sequence_reordered, 0u);
  // And the stream keeps counting on the far side of the wrap.
  c.handle_frame(seq_frame(c, 0xE, 1, 6, 2), 0);
  EXPECT_EQ(c.counters().lost_records, lost_before_wrap);
}

TEST(CollectorSequence, BackwardStepIsReorderNotLoss) {
  CollectorNode c{net::MacAddress{0xC0}};
  c.handle_frame(seq_frame(c, 0xE, 1, 0, 3), 0);
  c.handle_frame(seq_frame(c, 0xE, 1, 3, 2), 0);
  EXPECT_EQ(c.counters().lost_records, 0u);
  // A replayed / late message must not resync the stream backwards nor
  // count astronomically as loss.
  c.handle_frame(seq_frame(c, 0xE, 1, 0, 3), 0);
  EXPECT_EQ(c.counters().lost_records, 0u);
  EXPECT_EQ(c.counters().sequence_reordered, 1u);
  // The expectation survived: the true next message is still in-order.
  c.handle_frame(seq_frame(c, 0xE, 1, 5, 1), 0);
  EXPECT_EQ(c.counters().lost_records, 0u);
}

TEST(CollectorSequence, StreamsAreScopedPerDomainAndExporter) {
  CollectorNode c{net::MacAddress{0xC0}};
  // Interleaved domains from one exporter: independent sequence spaces.
  c.handle_frame(seq_frame(c, 0xE, 1, 0, 3), 0);
  c.handle_frame(seq_frame(c, 0xE, 2, 0, 2), 0);
  c.handle_frame(seq_frame(c, 0xE, 1, 3, 1), 0);
  c.handle_frame(seq_frame(c, 0xE, 2, 2, 1), 0);
  EXPECT_EQ(c.counters().lost_records, 0u);
  EXPECT_EQ(c.counters().sequence_reordered, 0u);
  // A second exporter sharing domain 1 starts its own stream at 0.
  c.handle_frame(seq_frame(c, 0xF, 1, 0, 2), 0);
  EXPECT_EQ(c.counters().lost_records, 0u);
}

// ---------------------------------------------------------------------
// The federation scenario end to end.

FederationSpec small_spec() {
  FederationSpec spec;
  spec.cells = 2;
  spec.hosts_per_cell = 2;
  spec.bursty_per_host = 2;
  spec.vplc_per_cell = 3;
  spec.observation = 600_ms;
  spec.seed = 21;
  return spec;
}

TEST(Federation, ConservesRecordsAcrossBothTiers) {
  const auto r = run_federation(small_spec());
  EXPECT_TRUE(r.cell_conservation_ok);
  EXPECT_TRUE(r.plant_conservation_ok);
  ASSERT_EQ(r.cells.size(), 2u);
  std::uint64_t offered = 0;
  for (const TierRow& cell : r.cells) {
    EXPECT_GT(cell.offered, 0u) << cell.tier;
    EXPECT_EQ(cell.lost, 0u) << cell.tier;
    EXPECT_EQ(cell.malformed, 0u) << cell.tier;
    EXPECT_EQ(cell.template_misses, 0u) << cell.tier;
    EXPECT_GT(cell.flows, 0u) << cell.tier;
    offered += cell.offered;
  }
  EXPECT_EQ(r.plant.received + r.plant.lost + r.plant.transform_dropped,
            r.plant.offered);
  EXPECT_GT(r.plant.received, 0u);
  EXPECT_GT(r.plant.flows, 0u);
  EXPECT_GT(r.frames_sent, 0u);
}

TEST(Federation, PlantLagIncludesTheExtraHop) {
  const auto r = run_federation(small_spec());
  // Per-record staleness at the plant strictly exceeds the cell tier's:
  // the mediation queue + uplink hop only ever add delay.
  double max_cell_mean = 0.0;
  for (const TierRow& cell : r.cells) {
    ASSERT_GT(cell.lag_mean_us, 0.0);
    max_cell_mean = std::max(max_cell_mean, cell.lag_mean_us);
  }
  EXPECT_GT(r.plant.lag_mean_us, max_cell_mean);
}

TEST(Federation, MediationRulesApplyOnTheUplink) {
  // Default spec rules drop kMinIatNs; add a packet filter and check the
  // plant sees fewer (but conserved) records. Bursty flows carry at most
  // 40 frames, vPLC checkpoints at least ~50: the threshold separates
  // the two populations regardless of seed.
  FederationSpec spec = small_spec();
  spec.reexport.rules.min_packets = 41;
  const auto r = run_federation(spec);
  EXPECT_TRUE(r.cell_conservation_ok);
  EXPECT_TRUE(r.plant_conservation_ok);
  std::uint64_t dropped = 0, received = 0;
  for (const TierRow& cell : r.cells) dropped += cell.transform_dropped;
  for (const TierRow& cell : r.cells) received += cell.received;
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(r.plant.received + dropped, received);
}

TEST(Federation, DeterministicAcrossRunsAndSeedSensitive) {
  const auto a = run_federation(small_spec());
  const auto b = run_federation(small_spec());
  EXPECT_EQ(a.plant_fingerprint, b.plant_fingerprint);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].offered, b.cells[i].offered);
    EXPECT_EQ(a.cells[i].received, b.cells[i].received);
    EXPECT_EQ(a.cells[i].lag_mean_us, b.cells[i].lag_mean_us);
  }
  FederationSpec other = small_spec();
  other.seed = 22;
  EXPECT_NE(run_federation(other).plant_fingerprint, a.plant_fingerprint);
}

TEST(Federation, DefaultSpecMatchesTheGoldenFingerprint) {
  // Recorded value of the default federation: pins what run-vs-run
  // determinism checks cannot.
  EXPECT_EQ(run_federation(FederationSpec{}).plant_fingerprint,
            0x7ab66cb3ca2cac46ULL);
}

TEST(Federation, ReportRendersTiersAndConservation) {
  const auto r = run_federation(small_spec());
  const auto table = federation_table(r);
  EXPECT_NE(table.find("tier"), std::string::npos);
  EXPECT_NE(table.find("cell0"), std::string::npos);
  EXPECT_NE(table.find("plant"), std::string::npos);
  EXPECT_NE(table.find("lag p95"), std::string::npos);
  const auto csv = federation_csv(r);
  EXPECT_NE(csv.find("tier,offered,received,lost"), std::string::npos);
  EXPECT_NE(csv.find("plant,"), std::string::npos);
  // The obs metrics plane saw the federation counters.
  EXPECT_NE(r.metrics_prom.find("flowmon_records"), std::string::npos);
  EXPECT_NE(r.metrics_prom.find("export_lag_us"), std::string::npos);
}

}  // namespace
}  // namespace steelnet::flowmon
