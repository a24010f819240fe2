#include "net/radio_floor.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <utility>

#include "faults/instaplc_testbed.hpp"
#include "faults/scenario_runner.hpp"
#include "net/radio_backend.hpp"
#include "obs/metrics.hpp"
#include "sim/hash.hpp"
#include "sim/random.hpp"

namespace steelnet::net {

namespace {

/// The SNR ladder: healthy link down to below the association floor.
/// With the default geometry (station 10 m from its AP) the mean SNR is
/// 44 dB + offset, so the rungs land at 44/29/19/14/9/4 dB -- frame-loss
/// probabilities of ~0, ~1e-5, ~1%, ~21%, ~88% and "never associates".
constexpr double kSnrLadderDb[] = {0.0, -15.0, -25.0, -30.0, -35.0, -40.0};
constexpr std::size_t kLadderRungs = std::size(kSnrLadderDb);

struct ScenarioRow {
  const char* short_name;  ///< cell-name prefix
  const char* scenario;    ///< matrix row; "clean" = no faults
};
constexpr ScenarioRow kMatrix[] = {
    {"clean", "clean"},       {"silent", "silent_primary"},
    {"loss", "loss_burst"},   {"flap", "link_flap"},
    {"crash", "primary_crash"},
};
constexpr std::size_t kMatrixRows = std::size(kMatrix);

/// Rate-adaptation ladder shared by every cell (802.11-flavored MCS
/// steps; bottom rung doubles as the receiver sensitivity floor).
std::vector<RadioRateStep> rate_ladder() {
  return {{2.0, 6'000'000},   {5.0, 12'000'000},  {9.0, 24'000'000},
          {12.0, 36'000'000}, {15.0, 48'000'000}, {18.0, 54'000'000},
          {25.0, 100'000'000}};
}

faults::FaultScenario matrix_scenario(const char* name, std::uint64_t seed) {
  const std::string n = name;
  if (n == "silent_primary") return faults::silent_primary_scenario(seed);
  if (n == "loss_burst") return faults::loss_burst_scenario(seed);
  if (n == "link_flap") return faults::link_flap_scenario(seed);
  if (n == "primary_crash") return faults::primary_crash_scenario(seed);
  faults::FaultScenario sc;
  sc.name = "clean";
  sc.seed = seed;
  return sc;
}

/// Everything one cell owns; only its shard's worker thread touches it.
struct FloorCell {
  std::string scenario;
  std::int64_t snr_offset_millidb = 0;
  std::uint64_t seed = 0;
  std::unique_ptr<LossyRadioBackend> backend;
  std::unique_ptr<faults::InstaPlcTestbed> testbed;
};

std::unique_ptr<FloorCell> build_cell(sim::ShardedSimulator::Cell& cell,
                                      const RadioFloorOptions& opt,
                                      const std::string& scenario_name,
                                      double snr_offset_db, bool roaming) {
  const sim::Rng cell_rng = sim::Rng(opt.seed).derive(cell.name());

  auto fc = std::make_unique<FloorCell>();
  fc->scenario = scenario_name;
  fc->snr_offset_millidb =
      static_cast<std::int64_t>(snr_offset_db * 1000.0);
  fc->seed = cell_rng.derive("scenario").next_u64();

  RadioConfig rcfg;
  rcfg.rates = rate_ladder();
  rcfg.snr_offset_db = snr_offset_db;
  rcfg.seed = cell_rng.derive("radio").next_u64();
  std::vector<RadioWaypoint> track;
  if (roaming) {
    // Two APs 20 m apart; the station shuttles between them every 400 ms,
    // roaming near the midpoint once the far AP wins by the hysteresis.
    rcfg.aps = {{"ap0", 0.0, 0.0}, {"ap1", 20.0, 0.0}};
    rcfg.roam_hysteresis_db = 2.0;
    for (int leg = 0; leg < 8; ++leg) {
      track.push_back({sim::milliseconds(400 * leg),
                       leg % 2 == 0 ? 2.0 : 18.0, 0.0});
    }
  } else {
    // One AP, station parked 10 m away: mean SNR 44 dB + ladder offset.
    rcfg.aps = {{"ap0", 0.0, 0.0}};
    track.push_back({sim::SimTime::zero(), 10.0, 0.0});
  }
  fc->backend = std::make_unique<LossyRadioBackend>(rcfg);
  const std::size_t station = fc->backend->add_station("agv", std::move(track));

  faults::InstaPlcTestbed::Config tcfg;
  tcfg.opts.horizon = opt.horizon;
  tcfg.opts.switchover_cycles = opt.switchover_cycles;
  tcfg.opts.io_cycle = opt.io_cycle;
  tcfg.device_backend = fc->backend.get();
  LossyRadioBackend* be = fc->backend.get();
  tcfg.before_device_connect = [be, station](NodeId dev, PortId dev_port,
                                             NodeId sw, PortId sw_port) {
    be->bind_link(dev, dev_port, sw, sw_port, station);
  };
  fc->testbed = std::make_unique<faults::InstaPlcTestbed>(
      cell.sim(), matrix_scenario(fc->scenario.c_str(), fc->seed),
      std::move(tcfg));
  fc->testbed->start();
  return fc;
}

}  // namespace

RadioFloorResult run_radio_floor(const RadioFloorOptions& opt) {
  sim::ShardedSimulator ss;
  std::vector<std::unique_ptr<FloorCell>> floor_cells;

  // Fault matrix x SNR ladder, scenario-major; then the roaming storms.
  // No inter-cell channels: every cell's lookahead is infinite.
  for (const ScenarioRow& row : kMatrix) {
    for (const double off : kSnrLadderDb) {
      char name[32];
      std::snprintf(name, sizeof(name), "%s_snr%02d", row.short_name,
                    static_cast<int>(-off));
      const std::uint32_t id = ss.add_cell(name);
      floor_cells.push_back(
          build_cell(ss.cell(id), opt, row.scenario, off, /*roaming=*/false));
    }
  }
  for (const char* scen : {"clean", "link_flap"}) {
    const std::string name =
        std::string("roam_") + (std::string(scen) == "clean" ? "clean" : "flap");
    const std::uint32_t id = ss.add_cell(name);
    floor_cells.push_back(
        build_cell(ss.cell(id), opt, scen, 0.0, /*roaming=*/true));
  }

  RadioFloorResult result;
  result.horizon_ns = opt.horizon.nanos();
  faults::RunnerOptions bound_opts;
  bound_opts.switchover_cycles = opt.switchover_cycles;
  bound_opts.io_cycle = opt.io_cycle;
  result.watchdog_bound_ns = faults::switchover_bound(bound_opts).nanos();
  result.io_cycle_ns = opt.io_cycle.nanos();

  ss.set_measured_weights(opt.measured_weights);
  result.stats = ss.run(opt.horizon, opt.shards);

  // Placement diagnostics, judged by the rates this run measured.
  // Diagnostic-only: excluded from the fingerprinted artifacts.
  result.partition = ss.partition_map();
  result.profile = ss.rate_profile();
  const sim::PartitionStats pstats =
      sim::partition_stats(result.profile.weights(), result.partition);
  result.shard_events = pstats.shard_load;
  result.imbalance_permille = pstats.imbalance_permille();

  result.cells.reserve(floor_cells.size());
  for (std::size_t i = 0; i < floor_cells.size(); ++i) {
    sim::ShardedSimulator::Cell& cell = ss.cell(static_cast<std::uint32_t>(i));
    FloorCell& fc = *floor_cells[i];
    const faults::ScenarioOutcome out = fc.testbed->collect();
    const RadioCounters& rc = fc.backend->counters();

    RadioCellReport r;
    r.cell = static_cast<std::uint32_t>(i);
    r.name = cell.name();
    r.scenario = fc.scenario;
    r.seed = fc.seed;
    r.snr_offset_millidb = fc.snr_offset_millidb;
    r.events_executed = cell.sim().events_executed();
    r.switched_over = out.switched_over ? 1 : 0;
    r.switchover_latency_ns = out.switchover_latency.nanos();
    // Fold in the dead tail: a device that stopped producing outputs (or
    // never started) is a gap up to the horizon, not a gap of zero.
    const std::int64_t tail =
        fc.testbed->saw_output()
            ? opt.horizon.nanos() - fc.testbed->last_valid_output().nanos()
            : opt.horizon.nanos();
    r.max_output_gap_ns = std::max(out.max_output_gap.nanos(), tail);
    r.watchdog_trips = out.device_watchdog_trips;
    r.frames_offered = out.net.frames_offered;
    r.frames_delivered = out.net.frames_delivered;
    r.dropped_backend = out.net.frames_dropped_backend;
    r.residual = out.residual;
    r.radio_planned = rc.frames_planned;
    r.radio_dropped_snr = rc.dropped_snr;
    r.radio_dropped_no_assoc = rc.dropped_no_assoc;
    r.radio_dropped_handoff = rc.dropped_handoff;
    r.assoc_events = rc.assoc_events;
    r.roam_events = rc.roam_events;
    r.disassoc_events = rc.disassoc_events;
    r.rate_avg_bps =
        rc.rate_frames == 0 ? 0 : rc.rate_bps_total / rc.rate_frames;
    const std::uint64_t faded =
        rc.frames_planned - rc.dropped_no_assoc - rc.dropped_handoff;
    r.snr_avg_millidb =
        faded == 0 ? 0
                   : rc.snr_millidb_total / static_cast<std::int64_t>(faded);
    r.metrics_fp = out.metrics_fp;
    r.trace_fp = out.trace_fp;
    result.cells.push_back(std::move(r));
  }
  return result;
}

bool degradation_monotone(const RadioFloorResult& result) {
  if (result.io_cycle_ns <= 0) return false;
  const auto gap_cycles = [&](const RadioCellReport& r) {
    return r.max_output_gap_ns / result.io_cycle_ns;
  };
  for (std::size_t s = 0; s < kMatrixRows; ++s) {
    const std::size_t base = s * kLadderRungs;
    if (base + kLadderRungs > result.cells.size()) return false;
    for (std::size_t o = 1; o < kLadderRungs; ++o) {
      const RadioCellReport& prev = result.cells[base + o - 1];
      const RadioCellReport& cur = result.cells[base + o];
      if (cur.drop_permille() < prev.drop_permille()) return false;
      if (gap_cycles(cur) < gap_cycles(prev)) return false;
    }
    const RadioCellReport& healthy = result.cells[base];
    const RadioCellReport& worst = result.cells[base + kLadderRungs - 1];
    if (gap_cycles(worst) <= gap_cycles(healthy)) return false;
    if (worst.drop_permille() <= healthy.drop_permille()) return false;
  }
  return true;
}

// --- artifacts --------------------------------------------------------------
//
// All three renderers read RadioCellReports only -- never ShardRunStats'
// timing-dependent fields -- so the byte streams are invariant to shard
// count and thread scheduling.

std::string RadioFloorResult::to_prometheus() const {
  obs::MetricsRegistry reg;
  for (const RadioCellReport& r : cells) {
    const auto add = [&](const char* name, std::uint64_t v) {
      reg.make_counter({r.name, "radio", name}) += v;
    };
    add("events_executed", r.events_executed);
    add("switched_over", r.switched_over);
    add("switchover_latency_ns",
        static_cast<std::uint64_t>(r.switchover_latency_ns));
    add("max_output_gap_ns", static_cast<std::uint64_t>(r.max_output_gap_ns));
    add("watchdog_trips", r.watchdog_trips);
    add("frames_offered", r.frames_offered);
    add("frames_delivered", r.frames_delivered);
    add("dropped_backend", r.dropped_backend);
    add("radio_planned", r.radio_planned);
    add("radio_dropped_snr", r.radio_dropped_snr);
    add("radio_dropped_no_assoc", r.radio_dropped_no_assoc);
    add("radio_dropped_handoff", r.radio_dropped_handoff);
    add("assoc_events", r.assoc_events);
    add("roam_events", r.roam_events);
    add("disassoc_events", r.disassoc_events);
    add("rate_avg_bps", r.rate_avg_bps);
    add("drop_permille", r.drop_permille());
    // Per-cell load-rate gauge (the calibration-profile weight). Radio
    // cells exchange no cross-shard messages, so it is just the event
    // count -- deterministic, hence safe in the fingerprinted export.
    reg.make_gauge({r.name, "radio", "load_rate"})
        .set(static_cast<double>(r.events_executed));
  }
  return reg.to_prometheus();
}

std::string RadioFloorResult::to_chrome_trace() const {
  // Hand-rendered trace-event JSON, integer-only formatting.
  std::string out = "{\"traceEvents\":[";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"radio_floor\"}}";
  char buf[512];
  const auto us = [](std::int64_t ns) { return ns / 1000; };
  const auto frac = [](std::int64_t ns) { return ns % 1000; };
  for (const RadioCellReport& r : cells) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu32
                  ",\"ts\":0.000,\"dur\":%" PRId64 ".%03" PRId64
                  ",\"args\":{\"events\":%" PRIu64 ",\"drop_permille\":%" PRIu64
                  "}}",
                  r.name.c_str(), r.cell, us(horizon_ns), frac(horizon_ns),
                  r.events_executed, r.drop_permille());
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"gap\",\"ph\":\"C\",\"pid\":1,\"tid\":%" PRIu32
                  ",\"ts\":%" PRId64 ".%03" PRId64
                  ",\"args\":{\"max_output_gap_ns\":%" PRId64
                  ",\"roams\":%" PRIu64 "}}",
                  r.cell, us(horizon_ns), frac(horizon_ns),
                  r.max_output_gap_ns, r.roam_events);
    out += buf;
  }
  out += "]}";
  return out;
}

std::string RadioFloorResult::to_csv() const {
  std::string out =
      "cell,name,scenario,seed,snr_offset_millidb,events,switched_over,"
      "switchover_latency_ns,max_output_gap_ns,watchdog_bound_ns,"
      "watchdog_trips,frames_offered,frames_delivered,dropped_backend,"
      "radio_planned,radio_dropped_snr,radio_dropped_no_assoc,"
      "radio_dropped_handoff,drop_permille,assoc_events,roam_events,"
      "disassoc_events,rate_avg_bps,snr_avg_millidb,residual,metrics_fp,"
      "trace_fp\n";
  char buf[768];
  for (const RadioCellReport& r : cells) {
    std::snprintf(
        buf, sizeof(buf),
        "%" PRIu32 ",%s,%s,%" PRIu64 ",%" PRId64 ",%" PRIu64 ",%" PRIu32
        ",%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRId64 ",%" PRId64 ",%016" PRIx64 ",%016" PRIx64
        "\n",
        r.cell, r.name.c_str(), r.scenario.c_str(), r.seed,
        r.snr_offset_millidb, r.events_executed, r.switched_over,
        r.switchover_latency_ns, r.max_output_gap_ns, watchdog_bound_ns,
        r.watchdog_trips, r.frames_offered, r.frames_delivered,
        r.dropped_backend, r.radio_planned, r.radio_dropped_snr,
        r.radio_dropped_no_assoc, r.radio_dropped_handoff, r.drop_permille(),
        r.assoc_events, r.roam_events, r.disassoc_events, r.rate_avg_bps,
        r.snr_avg_millidb, r.residual, r.metrics_fp, r.trace_fp);
    out += buf;
  }
  return out;
}

std::uint64_t RadioFloorResult::fingerprint() const {
  std::uint64_t h = sim::fnv1a64(to_csv());
  h ^= sim::fnv1a64(to_prometheus()) * sim::kFnv1a64Prime;
  h ^= sim::fnv1a64(to_chrome_trace()) * sim::kFnv1a64Prime;
  return h;
}

}  // namespace steelnet::net
