#include "net/campus.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <utility>

#include "faults/fault_plane.hpp"
#include "faults/scenario.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "profinet/controller.hpp"
#include "profinet/io_device.hpp"
#include "sim/hash.hpp"
#include "sim/random.hpp"

namespace steelnet::net {

namespace {

/// Everything one cell owns. Only its owning shard's worker thread ever
/// touches any of it, so no member needs synchronization.
struct CellPlant {
  explicit CellPlant(sim::Simulator& sim) : net(sim) {}

  Network net;
  Fabric fabric;
  std::vector<std::unique_ptr<profinet::CyclicController>> controllers;
  std::vector<std::unique_ptr<profinet::IoDevice>> devices;
  std::unique_ptr<faults::FaultPlane> plane;
  std::unique_ptr<sim::PeriodicTask> reporter;
  std::vector<std::uint32_t> report_dsts;

  // Sink-side accounting of inbound cross-cell reports.
  std::uint64_t reports_received = 0;
  std::uint64_t report_bytes = 0;
  std::int64_t report_latency_ns_total = 0;
  std::uint64_t reports_sent = 0;

  // Device safe-state windows: trip time -> outputs-running again.
  std::vector<std::int64_t> outage_started;  ///< per device, -1 = running
  std::uint64_t outages = 0;
  std::int64_t outage_ns_total = 0;
};

constexpr std::size_t kReportBytes = 32;
constexpr std::size_t kGwHost = 0;
constexpr std::size_t kSinkHost = 1;
constexpr std::size_t kFirstDeviceHost = 2;

std::string cell_name(std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "cell_%03zu", i);
  return buf;
}

/// One deterministic per-cell fault script: the first controller's host
/// crashes mid-run and restarts, and the first device's link gets a lossy
/// window. All draws come from the cell's own derived stream, so the
/// script is a pure function of (campus seed, cell id).
faults::FaultScenario cell_scenario(sim::Rng& rng, const CampusOptions& opt,
                                    std::size_t devices) {
  faults::FaultScenario sc;
  sc.name = "campus-cell";
  sc.seed = rng.next_u64();
  const std::int64_t horizon = opt.horizon.nanos();
  const std::int64_t cycle = opt.cycle.nanos();

  faults::FaultSpec crash;
  crash.kind = faults::FaultKind::kNodeCrash;
  crash.node = "c-h" + std::to_string(kFirstDeviceHost + devices);
  crash.at = sim::SimTime{rng.uniform_int(horizon / 4, horizon / 2)};
  crash.duration = sim::SimTime{rng.uniform_int(5 * cycle, 15 * cycle)};
  sc.faults.push_back(crash);

  faults::FaultSpec loss;
  loss.kind = faults::FaultKind::kLoss;
  loss.node = "c-h" + std::to_string(kFirstDeviceHost);
  loss.port = HostNode::kNicPort;
  loss.at = sim::SimTime{rng.uniform_int(0, horizon / 4)};
  loss.duration = sim::SimTime{rng.uniform_int(10 * cycle, 20 * cycle)};
  loss.probability = 0.2;
  sc.faults.push_back(loss);
  return sc;
}

void build_cell(sim::ShardedSimulator::Cell& cell, CellPlant& plant,
                const CampusOptions& opt, sim::Rng cell_rng) {
  const std::size_t devices = opt.devices_per_cell;
  TopologyOptions topt;
  topt.name_prefix = "c";
  plant.fabric = build_star(plant.net, 2 + 2 * devices, topt);
  install_shortest_path_routes(plant.fabric);

  // Sink: terminates rebuilt cross-cell report frames, closes the pool
  // loop, samples origin-to-sink latency from the stamped send time.
  HostNode& sink = plant.fabric.host(kSinkHost);
  sink.set_receiver([&plant](Frame frame, sim::SimTime at) {
    ++plant.reports_received;
    plant.report_bytes += frame.payload.size();
    plant.report_latency_ns_total +=
        at.nanos() - static_cast<std::int64_t>(frame.read_u64(8));
    plant.net.frame_pool().recycle(std::move(frame));
  });

  // PROFINET plants: device d on host 2+d, its controller on host 2+D+d.
  sim::Rng connect_rng = cell_rng.derive("connect");
  plant.outage_started.assign(devices, -1);
  for (std::size_t d = 0; d < devices; ++d) {
    HostNode& dev_host = plant.fabric.host(kFirstDeviceHost + d);
    HostNode& ctl_host = plant.fabric.host(kFirstDeviceHost + devices + d);

    auto dev = std::make_unique<profinet::IoDevice>(dev_host);
    dev->set_output_handler(
        [&plant, &cell, d](const std::vector<std::uint8_t>&, bool run) {
          std::int64_t& started = plant.outage_started[d];
          const std::int64_t now = cell.sim().now().nanos();
          if (!run && started < 0) {
            started = now;
          } else if (run && started >= 0) {
            ++plant.outages;
            plant.outage_ns_total += now - started;
            started = -1;
          }
        });
    plant.devices.push_back(std::move(dev));

    profinet::ControllerConfig cfg;
    cfg.ar_id = static_cast<std::uint16_t>(d + 1);
    cfg.device_mac = dev_host.mac();
    cfg.cycle = opt.cycle;
    cfg.input_bytes = 16;
    cfg.output_bytes = 16;
    auto ctl = std::make_unique<profinet::CyclicController>(ctl_host,
                                                            std::move(cfg));
    profinet::CyclicController* ctl_raw = ctl.get();
    plant.controllers.push_back(std::move(ctl));

    // Stagger connection establishment inside the first cycle so the
    // cell's traffic is phase-shifted deterministically per device.
    const std::int64_t jitter =
        connect_rng.uniform_int(0, opt.cycle.nanos() - 1);
    cell.sim().schedule_at(sim::SimTime{jitter},
                           [ctl_raw] { ctl_raw->connect(); });
  }

  if (opt.faults) {
    plant.plane = std::make_unique<faults::FaultPlane>(
        plant.net, cell_rng.derive("faults").next_u64());
    plant.net.set_faults(plant.plane.get());
    for (std::size_t d = 0; d < devices; ++d) {
      const NodeId ctl_node =
          plant.fabric.hosts[kFirstDeviceHost + devices + d];
      profinet::CyclicController* ctl_raw = plant.controllers[d].get();
      plant.plane->set_crash_handler(ctl_node, [ctl_raw] { ctl_raw->stop(); });
      plant.plane->set_restart_handler(ctl_node,
                                       [ctl_raw] { ctl_raw->connect(); });
    }
    sim::Rng scen_rng = cell_rng.derive("scenario");
    plant.plane->schedule(cell_scenario(scen_rng, opt, devices));
  }

  // Periodic cross-cell telemetry: a 32-byte report to every backbone
  // neighbor. Cell::send stamps send_ns/seq, so the receiver's merge
  // order -- and everything downstream -- is shard-count independent.
  if (!plant.report_dsts.empty()) {
    const std::int64_t stagger =
        cell_rng.derive("report").uniform_int(0, opt.report_period.nanos() / 4);
    plant.reporter = std::make_unique<sim::PeriodicTask>(
        cell.sim(), opt.report_period + sim::SimTime{stagger},
        opt.report_period, [&plant, &cell] {
          sim::ShardMsg msg;
          msg.kind = kCampusReportMsg;
          std::uint64_t tx = 0;
          for (const auto& c : plant.controllers) tx += c->counters().cyclic_tx;
          msg.a = tx;
          msg.b = plant.reports_received;
          std::uint8_t payload[kReportBytes] = {};
          msg.set_data(payload, kReportBytes);
          for (const std::uint32_t dst : plant.report_dsts) {
            cell.send(dst, msg);
            ++plant.reports_sent;
          }
        });
  }
}

}  // namespace

CampusResult run_campus(const CampusOptions& opt) {
  if (opt.cells == 0) throw sim::SimError("run_campus: cells must be >= 1");
  sim::ShardedSimulator ss;
  ss.set_record_fire_log(opt.record_fire_log);
  // Declared weights stay uniform even under skew -- skew exists to make
  // the up-front guess wrong, so only a measured profile can fix it.
  for (std::size_t i = 0; i < opt.cells; ++i) {
    ss.add_cell(cell_name(i), opt.devices_per_cell);
  }
  const std::size_t hot_cells = opt.skew ? std::max<std::size_t>(1, opt.cells / 4) : 0;

  if (opt.partitioner == CampusPartitioner::kMeasuredRate) {
    if (opt.measured_weights.empty()) {
      throw sim::PartitionError(
          sim::PartitionErrorCode::kProfileMismatch,
          "run_campus: measured-rate partitioner needs measured_weights "
          "(run a calibration pass and feed its profile back)");
    }
    ss.set_measured_weights(opt.measured_weights);
  }

  // Ring backbone with chords: cell i reports to (i+1 .. i+degree) mod n.
  std::vector<std::vector<std::uint32_t>> dsts(opt.cells);
  if (opt.cells > 1) {
    const std::size_t degree =
        std::min(opt.backbone_degree, opt.cells - 1);
    for (std::size_t i = 0; i < opt.cells; ++i) {
      for (std::size_t d = 1; d <= degree; ++d) {
        const auto dst = static_cast<std::uint32_t>((i + d) % opt.cells);
        ss.connect(static_cast<std::uint32_t>(i), dst, opt.backbone_latency);
        dsts[i].push_back(dst);
      }
    }
  }

  const sim::Rng root(opt.seed);
  std::vector<std::unique_ptr<CellPlant>> plants;
  plants.reserve(opt.cells);
  for (std::size_t i = 0; i < opt.cells; ++i) {
    sim::ShardedSimulator::Cell& cell = ss.cell(static_cast<std::uint32_t>(i));
    auto plant = std::make_unique<CellPlant>(cell.sim());
    plant->report_dsts = dsts[i];
    // Hot cells of the skew zone: 4x cyclic rate and a fault storm,
    // concentrated in the leading quarter so a contiguous equal-weight
    // split piles them onto the first shards.
    CampusOptions eff = opt;
    if (i < hot_cells) {
      eff.cycle = sim::SimTime{std::max<std::int64_t>(opt.cycle.nanos() / 4, 1)};
      eff.faults = true;
    }
    build_cell(cell, *plant, eff, root.derive(cell.name()));
    CellPlant* p = plant.get();
    // Inbound report: rebuild the frame from *this* cell's pool (the
    // allocation-free cross-shard handoff) and inject it at the gateway.
    cell.set_handler([p](sim::ShardedSimulator::Cell& c,
                         const sim::ShardMsg& msg) {
      if (msg.kind != kCampusReportMsg) return;
      Frame frame = p->net.frame_pool().make(msg.len);
      std::copy(msg.data, msg.data + msg.len, frame.payload.begin());
      HostNode& gw = p->fabric.host(kGwHost);
      HostNode& sink = p->fabric.host(kSinkHost);
      frame.dst = sink.mac();
      frame.src = gw.mac();
      frame.flow_id = msg.src_cell;
      frame.seq = msg.seq;
      frame.write_u64(0, msg.a);
      frame.write_u64(8, static_cast<std::uint64_t>(msg.send_ns));
      (void)c;
      gw.send(std::move(frame));
    });
    plants.push_back(std::move(plant));
  }

  CampusResult result;
  result.horizon_ns = opt.horizon.nanos();
  result.stats = ss.run(opt.horizon, opt.shards);

  // Placement diagnostics: judge whatever partition ran by the rates the
  // run actually measured. Diagnostic-only -- never rendered into the
  // fingerprinted artifacts, which must stay placement-invariant.
  result.partition = ss.partition_map();
  result.profile = ss.rate_profile();
  const sim::PartitionStats pstats =
      sim::partition_stats(result.profile.weights(), result.partition);
  result.shard_events = pstats.shard_load;
  result.imbalance_permille = pstats.imbalance_permille();

  result.cells.reserve(opt.cells);
  for (std::size_t i = 0; i < opt.cells; ++i) {
    sim::ShardedSimulator::Cell& cell = ss.cell(static_cast<std::uint32_t>(i));
    CellPlant& p = *plants[i];
    CellReport r;
    r.cell = static_cast<std::uint32_t>(i);
    r.name = cell.name();
    r.events_executed = cell.sim().events_executed();
    r.msgs_delivered = cell.msgs_delivered();
    for (const auto& c : p.controllers) {
      r.cyclic_tx += c->counters().cyclic_tx;
      r.cyclic_rx += c->counters().cyclic_rx;
      r.controller_trips += c->counters().device_watchdog_trips;
    }
    for (const auto& d : p.devices) {
      r.device_tx += d->counters().cyclic_tx;
      r.device_rx += d->counters().cyclic_rx;
      r.watchdog_trips += d->counters().watchdog_trips;
    }
    r.frames_offered = p.net.counters().frames_offered;
    r.frames_delivered = p.net.counters().frames_delivered;
    r.bytes_delivered = p.net.counters().bytes_delivered;
    r.pool_reused = p.net.frame_pool().stats().reused;
    r.reports_sent = p.reports_sent;
    r.reports_received = p.reports_received;
    r.report_bytes = p.report_bytes;
    r.report_latency_ns_total = p.report_latency_ns_total;
    if (p.plane) {
      const faults::FaultCounters& fc = p.plane->counters();
      r.node_crashes = fc.node_crashes;
      r.node_restarts = fc.node_restarts;
      r.dropped_loss = fc.dropped_loss;
      r.dropped_link_down = fc.dropped_link_down;
      r.dropped_sender_down = fc.dropped_sender_down;
      r.dropped_receiver_down = fc.dropped_receiver_down;
      r.conservation_residual = p.plane->conservation_residual();
    }
    r.outages = p.outages;
    r.outage_ns_total = p.outage_ns_total;
    result.cells.push_back(std::move(r));
  }
  return result;
}

// --- artifacts --------------------------------------------------------------
//
// All three renderers read CellReports only -- never ShardRunStats'
// timing-dependent fields -- so the byte streams are invariant to shard
// count and thread scheduling.

std::string CampusResult::to_prometheus() const {
  obs::MetricsRegistry reg;
  for (const CellReport& r : cells) {
    const auto add = [&](const char* name, std::uint64_t v) {
      reg.make_counter({r.name, "campus", name}) += v;
    };
    add("events_executed", r.events_executed);
    add("cyclic_tx", r.cyclic_tx);
    add("cyclic_rx", r.cyclic_rx);
    add("device_tx", r.device_tx);
    add("device_rx", r.device_rx);
    add("watchdog_trips", r.watchdog_trips);
    add("controller_trips", r.controller_trips);
    add("frames_offered", r.frames_offered);
    add("frames_delivered", r.frames_delivered);
    add("bytes_delivered", r.bytes_delivered);
    add("pool_reused", r.pool_reused);
    add("reports_sent", r.reports_sent);
    add("reports_received", r.reports_received);
    add("report_bytes", r.report_bytes);
    add("node_crashes", r.node_crashes);
    add("node_restarts", r.node_restarts);
    add("dropped_loss", r.dropped_loss);
    add("dropped_link_down", r.dropped_link_down);
    add("dropped_sender_down", r.dropped_sender_down);
    add("dropped_receiver_down", r.dropped_receiver_down);
    add("outages", r.outages);
    reg.make_counter({r.name, "campus", "report_latency_ns_total"}) +=
        static_cast<std::uint64_t>(r.report_latency_ns_total);
    reg.make_counter({r.name, "campus", "outage_ns_total"}) +=
        static_cast<std::uint64_t>(r.outage_ns_total);
    // The per-cell load-rate gauge: the same events + delivered-messages
    // sum a RateProfile row folds to, so a scrape of this family *is* a
    // calibration profile. Deterministic (both terms are part of the
    // determinism contract), hence safe inside the fingerprinted export.
    reg.make_gauge({r.name, "campus", "load_rate"})
        .set(static_cast<double>(r.events_executed + r.msgs_delivered));
  }
  return reg.to_prometheus();
}

std::string CampusResult::to_chrome_trace() const {
  // Hand-rendered trace-event JSON: one "X" span per cell over the run,
  // one "C" counter sample at the horizon. Integer-only formatting.
  std::string out = "{\"traceEvents\":[";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"campus\"}}";
  char buf[512];
  const auto us = [](std::int64_t ns) { return ns / 1000; };
  const auto frac = [](std::int64_t ns) { return ns % 1000; };
  for (const CellReport& r : cells) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu32
                  ",\"ts\":0.000,\"dur\":%" PRId64 ".%03" PRId64
                  ",\"args\":{\"events\":%" PRIu64 "}}",
                  r.name.c_str(), r.cell, us(horizon_ns), frac(horizon_ns),
                  r.events_executed);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"cyclic\",\"ph\":\"C\",\"pid\":1,\"tid\":%" PRIu32
                  ",\"ts\":%" PRId64 ".%03" PRId64
                  ",\"args\":{\"tx\":%" PRIu64 ",\"rx\":%" PRIu64
                  ",\"reports\":%" PRIu64 "}}",
                  r.cell, us(horizon_ns), frac(horizon_ns), r.cyclic_tx,
                  r.cyclic_rx, r.reports_received);
    out += buf;
  }
  out += "]}";
  return out;
}

std::string CampusResult::to_csv() const {
  std::string out =
      "cell,name,events,cyclic_tx,cyclic_rx,device_tx,device_rx,"
      "watchdog_trips,controller_trips,frames_offered,frames_delivered,"
      "bytes_delivered,pool_reused,reports_sent,reports_received,"
      "report_bytes,report_latency_ns_total,node_crashes,node_restarts,"
      "dropped_loss,dropped_link_down,dropped_sender_down,"
      "dropped_receiver_down,conservation_residual,outages,"
      "outage_ns_total\n";
  char buf[640];
  for (const CellReport& r : cells) {
    std::snprintf(
        buf, sizeof(buf),
        "%" PRIu32 ",%s,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRId64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRId64 ",%" PRIu64 ",%" PRId64 "\n",
        r.cell, r.name.c_str(), r.events_executed, r.cyclic_tx, r.cyclic_rx,
        r.device_tx, r.device_rx, r.watchdog_trips, r.controller_trips,
        r.frames_offered, r.frames_delivered, r.bytes_delivered,
        r.pool_reused, r.reports_sent, r.reports_received, r.report_bytes,
        r.report_latency_ns_total, r.node_crashes, r.node_restarts,
        r.dropped_loss, r.dropped_link_down, r.dropped_sender_down,
        r.dropped_receiver_down, r.conservation_residual, r.outages,
        r.outage_ns_total);
    out += buf;
  }
  return out;
}

std::uint64_t CampusResult::fingerprint() const {
  std::uint64_t h = sim::fnv1a64(to_csv());
  h ^= sim::fnv1a64(to_prometheus()) * sim::kFnv1a64Prime;
  h ^= sim::fnv1a64(to_chrome_trace()) * sim::kFnv1a64Prime;
  return h;
}

}  // namespace steelnet::net
