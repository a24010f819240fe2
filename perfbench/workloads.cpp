// The four plant workloads: each is one call into a public steelnet
// scenario function, then the artifact render the bench binaries perform,
// then its correctness checks. Shapes follow the committed benches: the
// campus is tab_campus --bench-json --skew, the radio floor is tab_radio,
// the federation is run_federation scaled to tens of thousands of flows.
#include <exception>
#include <string>

#include "core/report.hpp"
#include "flowmon/federation.hpp"
#include "net/campus.hpp"
#include "net/radio_floor.hpp"
#include "perfbench.hpp"
#include "pins.hpp"

namespace perfbench {
namespace {

using steelnet::net::CampusOptions;
using steelnet::net::CampusResult;
using steelnet::net::RadioFloorOptions;
using steelnet::net::RadioFloorResult;

/// Worker threads of the sharded workloads: one per core of the 4-core
/// reference host, and the most the benchmark ever starts.
constexpr std::size_t kShards = 4;

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// A 4-cell slice of the skewed campus of tab_campus --bench-json --skew:
/// 48 PROFINET devices per cell, the hot quarter (one cell) at 4x cyclic
/// rate with fault storms. The full 240 cells need ~190 MB, which spills
/// into the host's shared cache and memory, where neighbours' traffic
/// changed the same call's time two-fold; this slice keeps its working
/// set near one core's private cache. Threaded runs place cells by LPT
/// over the fixed calibration profile.
CampusOptions campus_options(const Inputs& in, std::size_t shards) {
  CampusOptions opt;
  opt.cells = 4;
  opt.devices_per_cell = 48;
  opt.cycle = steelnet::sim::milliseconds(8);
  opt.horizon = steelnet::sim::milliseconds(250);
  opt.backbone_degree = 3;
  opt.seed = in.seed;
  opt.skew = true;
  opt.shards = shards;
  if (shards > 1) {
    opt.partitioner = steelnet::net::CampusPartitioner::kMeasuredRate;
    opt.measured_weights = in.campus_weights;
  }
  return opt;
}

/// to_prometheus + to_chrome_trace + to_csv + fingerprint of a scenario
/// result, each in its own span, into c.render_s and c.fingerprint. An
/// empty artifact fails the call.
template <typename Result>
void render(const Result& r, Spans& spans, Call& c) {
  const std::int64_t t0 = now_ns();
  bool empty = false;
  {
    auto s = spans.scope("core.to_prometheus");
    empty |= r.to_prometheus().empty();
  }
  {
    auto s = spans.scope("core.to_chrome_trace");
    empty |= r.to_chrome_trace().empty();
  }
  {
    auto s = spans.scope("core.to_csv");
    empty |= r.to_csv().empty();
  }
  {
    auto s = spans.scope("core.fingerprint");
    c.fingerprint = r.fingerprint();
  }
  c.render_s = seconds_since(t0);
  if (empty) c.failure = "an artifact rendered empty";
}

void check_pin(const char* key, const Inputs& in, Call& c) {
  const auto pin = pinned_fingerprint(key, in.seed);
  if (pin.has_value() && *pin != c.fingerprint) {
    c.failure = std::string(key) + " fingerprint differs from its pin";
  }
}

void add(Call& c, const char* name, double value, const char* unit) {
  c.counters.push_back(Metric{name, value, unit});
}

void add_shard_stats(Call& c, const steelnet::sim::ShardRunStats& s,
                     std::uint64_t imbalance_permille) {
  add(c, "sim.rounds", static_cast<double>(s.rounds), "count");
  add(c, "sim.msgs_sent", static_cast<double>(s.msgs_sent), "count");
  add(c, "sim.fast_skips", static_cast<double>(s.fast_skips), "count");
  add(c, "sim.push_spins", static_cast<double>(s.push_spins), "count");
  add(c, "sim.clock_publishes", static_cast<double>(s.clock_publishes),
      "count");
  add(c, "sim.imbalance_permille", static_cast<double>(imbalance_permille),
      "permille");
}

Call campus_call(const Inputs& in, std::size_t shards, Spans& spans) {
  Call c;
  const std::int64_t t0 = now_ns();
  CampusResult r;
  {
    auto s = spans.scope("net.run_campus");
    r = steelnet::net::run_campus(campus_options(in, shards));
  }
  render(r, spans, c);
  c.wall_s = seconds_since(t0);
  c.loop_s = r.stats.wall_seconds;
  c.setup_s = c.wall_s - c.loop_s;
  c.events = r.stats.events;

  std::uint64_t offered = 0, delivered = 0, reused = 0, drops = 0, pdus = 0;
  for (const auto& cell : r.cells) {
    if (cell.conservation_residual != 0 && c.failure.empty()) {
      c.failure = cell.name + " has a non-zero conservation residual";
    }
    offered += cell.frames_offered;
    delivered += cell.frames_delivered;
    reused += cell.pool_reused;
    drops += cell.dropped_loss + cell.dropped_link_down +
             cell.dropped_sender_down + cell.dropped_receiver_down;
    pdus += cell.cyclic_tx + cell.device_tx;
  }
  c.frames = delivered;
  if (c.failure.empty()) check_pin("campus", in, c);

  add_shard_stats(c, r.stats, r.imbalance_permille);
  add(c, "net.pool_reuse_ratio",
      offered == 0 ? 0.0 : static_cast<double>(reused) / offered, "ratio");
  add(c, "net.delivery_ratio",
      offered == 0 ? 0.0 : static_cast<double>(delivered) / offered, "ratio");
  add(c, "faults.drops", static_cast<double>(drops), "count");
  // Cyclic PDUs per delivered frame: the codec's calls per frame in the
  // cost-of-one-frame reconciliation.
  add(c, "profinet.pdus_per_frame",
      delivered == 0 ? 0.0 : static_cast<double>(pdus) / delivered, "ratio");
  return c;
}

Call radio_call(const Inputs& in, std::size_t shards, Spans& spans) {
  Call c;
  RadioFloorOptions opt;
  opt.seed = in.seed;
  opt.shards = shards;
  const std::int64_t t0 = now_ns();
  RadioFloorResult r;
  {
    auto s = spans.scope("net.run_radio_floor");
    r = steelnet::net::run_radio_floor(opt);
  }
  render(r, spans, c);
  c.wall_s = seconds_since(t0);
  c.loop_s = r.stats.wall_seconds;
  c.setup_s = c.wall_s - c.loop_s;
  c.events = r.stats.events;

  std::uint64_t offered = 0, delivered = 0;
  for (const auto& cell : r.cells) {
    if (cell.residual != 0 && c.failure.empty()) {
      c.failure = cell.name + " has a non-zero conservation residual";
    }
    offered += cell.frames_offered;
    delivered += cell.frames_delivered;
  }
  c.frames = delivered;
  if (c.failure.empty()) check_pin("radio_floor", in, c);

  add_shard_stats(c, r.stats, r.imbalance_permille);
  add(c, "net.delivery_ratio",
      offered == 0 ? 0.0 : static_cast<double>(delivered) / offered, "ratio");
  return c;
}

/// 4 cells x 8 hosts x 25 bursty flows per host: ~800 flows metered,
/// exported, mediated and federated in one single-threaded run. Like the
/// campus, it is sized so its working set stays near one core's private
/// cache.
steelnet::flowmon::FederationSpec federation_spec(std::uint64_t seed) {
  steelnet::flowmon::FederationSpec spec;
  spec.cells = 4;
  spec.hosts_per_cell = 8;
  spec.bursty_per_host = 25;
  spec.seed = seed;
  return spec;
}

/// Federation runs per call, at scenario seeds seed*4 .. seed*4+3. One
/// scenario's traffic volume varies by about 7 % from seed to seed; four
/// per call halve that, so a call's time measures the code more than the
/// draw.
constexpr std::uint64_t kFederationRuns = 4;

/// The tab_flowmon federation table: one CSV row per tier.
std::string render_tiers(const steelnet::flowmon::FederationResult& r) {
  steelnet::core::CsvWriter csv({"tier", "offered", "received", "lost",
                                 "reordered", "template_misses", "malformed",
                                 "transform_dropped", "reexported", "flows"});
  const auto row = [&](const steelnet::flowmon::TierRow& t) {
    csv.add_row({t.tier, std::to_string(t.offered),
                 std::to_string(t.received), std::to_string(t.lost),
                 std::to_string(t.reordered),
                 std::to_string(t.template_misses),
                 std::to_string(t.malformed),
                 std::to_string(t.transform_dropped),
                 std::to_string(t.reexported), std::to_string(t.flows)});
  };
  for (const auto& t : r.cells) row(t);
  row(r.plant);
  return csv.to_string();
}

Call federation_call(const Inputs& in, Spans& spans) {
  Call c;
  std::uint64_t lost = 0, misses = 0, flows = 0;
  // FNV-1a over the runs' plant fingerprints, in run order.
  c.fingerprint = 0xcbf29ce484222325ULL;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t run = 0; run < kFederationRuns; ++run) {
    const auto spec = federation_spec(in.seed * kFederationRuns + run);
    steelnet::flowmon::FederationResult r;
    {
      auto s = spans.scope("flowmon.run_federation");
      r = steelnet::flowmon::run_federation(spec);
    }
    const std::int64_t t1 = now_ns();
    bool empty = false;
    {
      auto s = spans.scope("core.render_tiers");
      empty = render_tiers(r).empty() || r.metrics_prom.empty();
    }
    c.render_s += seconds_since(t1);
    c.frames += r.frames_sent;
    c.fingerprint = (c.fingerprint ^ r.plant_fingerprint) * 0x100000001b3ULL;
    if (c.failure.empty() &&
        (!r.cell_conservation_ok || !r.plant_conservation_ok)) {
      c.failure = "federation broke record conservation";
    }
    if (c.failure.empty() && empty) c.failure = "an artifact rendered empty";
    lost += r.plant.lost;
    misses += r.plant.template_misses;
    for (const auto& t : r.cells) {
      lost += t.lost;
      misses += t.template_misses;
    }
    flows += r.cell_flows_total;
  }
  c.wall_s = seconds_since(t0);
  if (c.failure.empty()) check_pin("flowmon_federation", in, c);

  add(c, "flowmon.flows", static_cast<double>(flows), "count");
  add(c, "flowmon.records_lost", static_cast<double>(lost), "count");
  add(c, "flowmon.template_misses", static_cast<double>(misses), "count");
  return c;
}

Call guarded(const std::string& workload, const Inputs& in, Spans& spans,
             std::size_t shards) {
  try {
    if (workload == "flowmon_federation") return federation_call(in, spans);
    if (workload == "radio_floor") return radio_call(in, shards, spans);
    return campus_call(in, shards, spans);
  } catch (const std::exception& e) {
    Call c;
    c.failure = workload + " threw: " + e.what();
    return c;
  }
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "campus_serial" || name == "campus_sharded" ||
         name == "radio_floor" || name == "flowmon_federation";
}

ProbeShape probe_shape(const Inputs& in) {
  const auto campus = campus_options(in, 1);
  const auto fed = federation_spec(in.seed);
  ProbeShape shape;
  shape.campus_weights = in.campus_weights;
  shape.campus_devices_per_cell = campus.devices_per_cell;
  // run_campus configures 16 input and 16 output bytes per controller.
  shape.campus_pdu_bytes = 16;
  shape.federation_live_flows =
      fed.hosts_per_cell * fed.bursty_per_host + fed.vplc_per_cell;
  return shape;
}

Call run_call(const std::string& workload, const Inputs& in, Spans& spans) {
  return guarded(workload, in, spans,
                 workload == "campus_serial" ? 1 : kShards);
}

std::optional<Call> run_reference(const std::string& workload,
                                  const Inputs& in) {
  if (workload == "flowmon_federation") return std::nullopt;
  Spans off{false};
  return guarded(workload, in, off, workload == "campus_serial" ? kShards : 1);
}

double federation_setup_s(const Inputs& in, std::string& failure) {
  // The same topology with only the periodic flows and a 1 ms observation
  // window: build, flush, drain and metrics render with almost no traffic.
  // (With the bursty flows kept, a window this short flushes every flow at
  // once and the plant tier loses part of that tail without accounting
  // for it; the timed 1 s window is not affected.)
  auto floor = federation_spec(in.seed);
  floor.bursty_per_host = 0;
  floor.observation = steelnet::sim::milliseconds(1);
  try {
    const std::int64_t t0 = now_ns();
    const auto r = steelnet::flowmon::run_federation(floor);
    const double s = seconds_since(t0);
    if (!r.cell_conservation_ok || !r.plant_conservation_ok) {
      failure = "federation set-up run broke record conservation";
    }
    return s;
  } catch (const std::exception& e) {
    failure = std::string("federation set-up run threw: ") + e.what();
    return 0.0;
  }
}

std::string campus_profile_text() {
  Inputs in;
  in.seed = 1;
  return steelnet::net::run_campus(campus_options(in, 1)).profile.to_text();
}

std::optional<std::uint64_t> pinned_fingerprint(const std::string& workload,
                                                std::uint64_t seed) {
  const std::string key =
      workload.rfind("campus", 0) == 0 ? "campus" : workload;
  for (const Pin& p : kPins) {
    if (key == p.key && seed == p.seed) return p.fingerprint;
  }
  return std::nullopt;
}

}  // namespace perfbench
