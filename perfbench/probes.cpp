// One small probe per layer: each builds inputs shaped like the workload
// the layer serves, through public headers only, warms up, then times the
// layer's public call in batches and reports the median batch as ns (or
// ms) per operation. Each timed batch is one span, so the traced run's
// span file shows every probe as well as every workload call.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault_plane.hpp"
#include "faults/instaplc_testbed.hpp"
#include "flowmon/flow_cache.hpp"
#include "flowmon/ipfix.hpp"
#include "net/host_node.hpp"
#include "net/network.hpp"
#include "net/radio_backend.hpp"
#include "net/topology.hpp"
#include "obs/hub.hpp"
#include "perfbench.hpp"
#include "profinet/wire.hpp"
#include "sdn/pipeline.hpp"
#include "sim/partitioner.hpp"
#include "sim/random.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using namespace steelnet;

constexpr int kBatches = 7;

/// Sink that keeps probe results observable, so no timed call is elided.
std::uint64_t g_sink = 0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Runs `setup` + `timed` once untimed, then kBatches times with only
/// `timed` inside the clock and a span; `timed` returns its op count.
/// Returns the median nanoseconds per op.
double ns_per_op(Spans& spans, const std::string& span,
                 const std::function<void()>& setup,
                 const std::function<std::uint64_t()>& timed) {
  setup();
  g_sink += timed();
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    setup();
    const std::int64_t t0 = now_ns();
    std::uint64_t ops = 0;
    {
      auto s = spans.scope(span);
      ops = timed();
    }
    const double ns = static_cast<double>(now_ns() - t0);
    per_op.push_back(ops == 0 ? ns : ns / static_cast<double>(ops));
  }
  return median(std::move(per_op));
}

// --- sim ----------------------------------------------------------------------

/// A cyclic timer that re-arms itself, like a PROFINET controller's or
/// device's cycle timer.
struct CyclicTimer {
  sim::Simulator* s;
  sim::SimTime period;
  void fire() {
    s->schedule_in(period, [this] { fire(); });
  }
};

/// schedule+fire on one campus cell's timer population: a controller and
/// a device timer per PROFINET device, phase-shifted over one 8 ms cycle.
double probe_schedule_fire(const ProbeShape& shape, Spans& spans) {
  const std::size_t population = 2 * shape.campus_devices_per_cell;
  std::unique_ptr<sim::Simulator> s;
  std::vector<CyclicTimer> timers;
  const auto setup = [&] {
    s = std::make_unique<sim::Simulator>();
    timers.assign(population, CyclicTimer{s.get(), sim::milliseconds(8)});
    sim::Rng rng{7};
    for (auto& t : timers) {
      s->schedule_at(sim::SimTime{rng.uniform_int(0, 8'000'000 - 1)},
                     [&t] { t.fire(); });
    }
  };
  return ns_per_op(spans, "sim.Simulator::run_until", setup, [&] {
    const std::uint64_t before = s->events_executed();
    s->run_until(s->now() + sim::seconds(16));
    return s->events_executed() - before;
  });
}

/// LPT placement of the campus calibration profile onto 4 shards.
double probe_partition_ms(const ProbeShape& shape, Spans& spans) {
  const sim::LptPartitioner lpt;
  constexpr int kCalls = 200;
  return 1e-6 * ns_per_op(spans, "sim.LptPartitioner::assign", [] {}, [&] {
           for (int i = 0; i < kCalls; ++i) {
             g_sink += lpt.assign(shape.campus_weights, 4).back();
           }
           return std::uint64_t{kCalls};
         });
}

/// One conservative null-message protocol round (snapshot, drain, advance,
/// publish) on a 4-cell ring at 1 us lookahead, where every cell forwards
/// each message to its neighbour, so progress is bound by the protocol
/// rather than by events. One shard, so the figure is the round's own
/// cost without thread scheduling.
double probe_null_round(Spans& spans) {
  constexpr std::uint32_t kCells = 4;
  return ns_per_op(spans, "sim.ShardedSimulator::run", [] {}, [] {
    sim::ShardedSimulator ss;
    for (std::uint32_t i = 0; i < kCells; ++i) {
      ss.add_cell("c" + std::to_string(i));
    }
    for (std::uint32_t i = 0; i < kCells; ++i) {
      ss.connect(i, (i + 1) % kCells, sim::microseconds(1));
      ss.cell(i).set_handler(
          [](sim::ShardedSimulator::Cell& c, const sim::ShardMsg& m) {
            c.send((c.id() + 1) % kCells, m);
          });
    }
    ss.cell(0).sim().schedule_at(sim::SimTime::zero(), [&ss] {
      ss.cell(0).send(1, sim::ShardMsg{});
    });
    return ss.run(sim::milliseconds(20), 1).rounds;
  });
}

// --- net / faults ---------------------------------------------------------------

struct HopCell {
  sim::Simulator s;
  net::Network net{s};
  std::unique_ptr<faults::FaultPlane> plane;
  std::unique_ptr<obs::ObsHub> hub;
};

struct HopNs {
  double ns = 0.0;               ///< host time per delivered frame
  double events_per_frame = 0.0; ///< kernel events per delivered frame
};

/// One frame host -> switch -> host and back through the public Network
/// of a campus-cell-shaped star (2 + 2 x devices hosts), pooled frames at
/// the campus PDU size. Reports ns per delivered frame (one link hop).
/// `attach` optionally hooks a FaultPlane or an ObsHub onto the network.
HopNs probe_hop(const ProbeShape& shape, Spans& spans, const char* span,
                const std::function<void(HopCell&)>& attach) {
  std::unique_ptr<HopCell> cell;
  // The cyclic PDU on the wire: 8 header bytes + the process data.
  const std::size_t pdu = 8 + shape.campus_pdu_bytes;
  const auto setup = [&] {
    cell.reset();
    cell = std::make_unique<HopCell>();
    net::Network& n = cell->net;
    net::TopologyOptions topt;
    topt.name_prefix = "c";
    const net::Fabric f =
        net::build_star(n, 2 + 2 * shape.campus_devices_per_cell, topt);
    net::install_shortest_path_routes(f);
    net::HostNode& a = f.host(2);
    net::HostNode& b = f.host(2 + shape.campus_devices_per_cell);
    b.set_receiver([&n, &b, &a, pdu](net::Frame fr, sim::SimTime) {
      n.frame_pool().recycle(std::move(fr));
      net::Frame reply = n.frame_pool().make(pdu);
      reply.dst = a.mac();
      reply.src = b.mac();
      b.send(std::move(reply));
    });
    a.set_receiver([&n, &a, &b, pdu](net::Frame fr, sim::SimTime) {
      n.frame_pool().recycle(std::move(fr));
      net::Frame next = n.frame_pool().make(pdu);
      next.dst = b.mac();
      next.src = a.mac();
      a.send(std::move(next));
    });
    attach(*cell);
    net::Frame first = n.frame_pool().make(pdu);
    first.dst = b.mac();
    first.src = a.mac();
    a.send(std::move(first));
    cell->s.run_until(sim::milliseconds(1));  // pool and queues warm
  };
  HopNs out;
  out.ns = ns_per_op(spans, span, setup, [&] {
    const std::uint64_t before = cell->net.counters().frames_delivered;
    cell->s.run_until(cell->s.now() + sim::milliseconds(100));
    return cell->net.counters().frames_delivered - before;
  });
  out.events_per_frame =
      static_cast<double>(cell->s.events_executed()) /
      static_cast<double>(std::max<std::uint64_t>(
          cell->net.counters().frames_delivered, 1));
  return out;
}

/// FaultPlane::node_alive over a campus cell's nodes with one controller
/// host crashed -- the liveness check the data path makes per hop.
double probe_node_alive(const ProbeShape& shape, Spans& spans) {
  sim::Simulator s;
  net::Network n{s};
  const net::Fabric f =
      net::build_star(n, 2 + 2 * shape.campus_devices_per_cell);
  faults::FaultPlane plane{n, 1};
  n.set_faults(&plane);
  plane.crash_node(f.hosts[2 + shape.campus_devices_per_cell]);
  const auto nodes = static_cast<net::NodeId>(n.node_count());
  constexpr std::uint64_t kCalls = 1'000'000;
  return ns_per_op(spans, "faults.FaultPlane::node_alive", [] {}, [&] {
    std::uint64_t alive = 0;
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      alive += plane.node_alive(static_cast<net::NodeId>(i % nodes)) ? 1 : 0;
    }
    g_sink += alive;
    return kCalls;
  });
}

/// A radio floor cell on its healthy rung: one AP, the floor's rate
/// ladder, and a station parked 10 m away (returned as the station id).
std::size_t healthy_radio_cell(std::unique_ptr<net::LossyRadioBackend>& be) {
  net::RadioConfig cfg;
  cfg.rates = {{2.0, 6'000'000},   {5.0, 12'000'000},  {9.0, 24'000'000},
               {12.0, 36'000'000}, {15.0, 48'000'000}, {18.0, 54'000'000},
               {25.0, 100'000'000}};
  cfg.aps = {{"ap0", 0.0, 0.0}};
  be = std::make_unique<net::LossyRadioBackend>(cfg);
  return be->add_station("agv", {{sim::SimTime::zero(), 10.0, 0.0}});
}

/// LossyRadioBackend::plan_transmit on the healthy rung, one frame per
/// half I/O cycle.
double probe_radio_frame(Spans& spans) {
  std::unique_ptr<net::LossyRadioBackend> be;
  const std::size_t station = healthy_radio_cell(be);
  be->bind_link(0, 0, 1, 0, station);
  net::Frame frame;
  frame.payload.assign(40, 0x5a);
  const net::LinkParams params{};
  sim::SimTime now = sim::SimTime::zero();
  constexpr std::uint64_t kFrames = 200'000;
  return ns_per_op(spans, "net.LossyRadioBackend::plan_transmit", [] {}, [&] {
    std::uint64_t survived = 0;
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      now = now + sim::milliseconds(1);
      survived += be->plan_transmit(0, 0, frame, params, now).survives ? 1 : 0;
    }
    g_sink += survived;
    return kFrames;
  });
}

// --- profinet -------------------------------------------------------------------

struct CodecNs {
  double encode = 0.0;
  double decode = 0.0;
};

/// encode_into / decode of one cyclic PDU at the campus process-data size.
CodecNs probe_profinet(const ProbeShape& shape, Spans& spans) {
  profinet::CyclicData data;
  data.ar_id = 1;
  data.data.assign(shape.campus_pdu_bytes, 0x5a);
  profinet::Pdu pdu{data};
  std::vector<std::uint8_t> buf;
  constexpr std::uint64_t kCalls = 1'000'000;
  CodecNs out;
  out.encode = ns_per_op(spans, "profinet.encode_into", [] {}, [&] {
    auto& cyc = std::get<profinet::CyclicData>(pdu);
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      cyc.cycle_counter = static_cast<std::uint16_t>(i);
      profinet::encode_into(pdu, buf);
    }
    g_sink += buf.size();
    return kCalls;
  });
  profinet::encode_into(pdu, buf);
  out.decode = ns_per_op(spans, "profinet.decode", [] {}, [&] {
    std::uint64_t ok = 0;
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      buf[profinet::offsets::kCycleCounter] = static_cast<std::uint8_t>(i);
      ok += profinet::decode(buf).has_value() ? 1 : 0;
    }
    g_sink += ok;
    return kCalls;
  });
  return out;
}

// --- flowmon --------------------------------------------------------------------

/// The federation's per-cell meter cache: default capacity, the
/// federation's timeouts, wheel expiry.
flowmon::FlowCacheConfig federation_cache() {
  flowmon::FlowCacheConfig cfg;
  cfg.idle_timeout = sim::milliseconds(150);
  cfg.active_timeout = sim::milliseconds(400);
  cfg.wheel_tick = sim::milliseconds(50);
  return cfg;
}

std::vector<net::Frame> flow_frames(std::size_t flows) {
  std::vector<net::Frame> frames(flows);
  sim::Rng rng{42};
  for (std::size_t i = 0; i < flows; ++i) {
    frames[i].src = net::MacAddress{0x1a'0000'000001ULL + i / 100};
    frames[i].dst = net::MacAddress{0x2c'0000'000001ULL + i};
    frames[i].payload.resize(
        600 + static_cast<std::size_t>(rng.uniform_int(0, 64)));
  }
  return frames;
}

struct FlowmonNs {
  double observe = 0.0;
  double sweep = 0.0;
  double ipfix_encode = 0.0;
  double ipfix_decode = 0.0;
};

FlowmonNs probe_flowmon(const ProbeShape& shape, Spans& spans) {
  const std::size_t flows = shape.federation_live_flows;
  const auto frames = flow_frames(flows);
  FlowmonNs out;

  // record() hits at the live-flow count, 1 us apart (no expiry).
  std::unique_ptr<flowmon::FlowCache> cache;
  sim::SimTime now;
  constexpr std::uint64_t kObserves = 500'000;
  out.observe = ns_per_op(
      spans, "flowmon.FlowCache::record",
      [&] {
        cache = std::make_unique<flowmon::FlowCache>(federation_cache());
        now = sim::SimTime::zero();
        for (const auto& f : frames) cache->record(f, now);
      },
      [&] {
        for (std::uint64_t i = 0; i < kObserves; ++i) {
          now = now + sim::microseconds(1);
          g_sink += cache->record(frames[i % flows], now)->packets;
        }
        return kObserves;
      });

  // sweep() expiring every live flow on idle timeout: ns per flow.
  std::vector<flowmon::ExportRecord> exported;
  const flowmon::FlowCache::ExportFn keep =
      [&exported](const flowmon::FlowRecord& r, flowmon::EndReason why) {
        exported.push_back(flowmon::to_export_record(r, why));
      };
  out.sweep = ns_per_op(
      spans, "flowmon.FlowCache::sweep",
      [&] {
        cache = std::make_unique<flowmon::FlowCache>(federation_cache());
        exported.clear();
        exported.reserve(flows);
        for (std::size_t i = 0; i < flows; ++i) {
          cache->record(frames[i], sim::microseconds(static_cast<int>(i)));
          cache->record(frames[i],
                        sim::microseconds(static_cast<int>(i) + 100));
        }
      },
      [&] {
        std::uint64_t n = 0;
        for (int tick = 1; tick <= 10; ++tick) {
          n += cache->sweep(sim::milliseconds(50 * tick), keep);
        }
        return n;
      });

  // IPFIX data messages of 16 records (the meter's per-frame batch).
  constexpr std::size_t kPerMessage = 16;
  constexpr std::uint64_t kMessages = 2'000;
  std::vector<flowmon::ExportRecord> batch(
      exported.begin(),
      exported.begin() +
          static_cast<std::ptrdiff_t>(std::min(kPerMessage, exported.size())));
  flowmon::MessageHeader header;
  header.observation_domain = 1;
  std::vector<std::uint8_t> payload;
  out.ipfix_encode =
      ns_per_op(spans, "flowmon.encode_message", [] {}, [&] {
        for (std::uint64_t m = 0; m < kMessages; ++m) {
          header.sequence = static_cast<std::uint32_t>(m * kPerMessage);
          payload = flowmon::encode_message(header, flowmon::flow_template(),
                                            false, batch);
        }
        g_sink += payload.size();
        return kMessages * batch.size();
      });
  flowmon::TemplateStore store;
  const auto with_template = flowmon::encode_message(
      header, flowmon::flow_template(), true, batch);
  g_sink += flowmon::decode_message(with_template, store, 1)->records.size();
  out.ipfix_decode =
      ns_per_op(spans, "flowmon.decode_message", [] {}, [&] {
        std::uint64_t records = 0;
        for (std::uint64_t m = 0; m < kMessages; ++m) {
          const auto msg = flowmon::decode_message(payload, store, 1);
          records += msg.has_value() ? msg->records.size() : 0;
        }
        g_sink += records;
        return records;
      });
  return out;
}

// --- instaplc / obs / sdn -----------------------------------------------------

struct TestbedMs {
  double run_ms = 0.0;
  double collect_ms = 0.0;
};

/// One radio-floor-shaped InstaPLC testbed (healthy rung, clean scenario,
/// 3 s horizon): event-loop time and collect() time.
TestbedMs testbed_once(bool with_obs, Spans& spans) {
  std::unique_ptr<net::LossyRadioBackend> be;
  const std::size_t st = healthy_radio_cell(be);
  faults::InstaPlcTestbed::Config cfg;
  cfg.opts.with_obs = with_obs;
  cfg.device_backend = be.get();
  cfg.before_device_connect = [&be, st](net::NodeId dev, net::PortId dp,
                                        net::NodeId sw, net::PortId sp) {
    be->bind_link(dev, dp, sw, sp, st);
  };
  faults::FaultScenario clean;
  clean.name = "clean";
  clean.seed = 1;
  sim::Simulator s;
  faults::InstaPlcTestbed tb{s, clean, std::move(cfg)};
  tb.start();
  TestbedMs out;
  std::int64_t t0 = now_ns();
  {
    auto sp = spans.scope("instaplc.testbed_run");
    s.run_until(tb.options().horizon);
  }
  out.run_ms = 1e-6 * static_cast<double>(now_ns() - t0);
  t0 = now_ns();
  {
    auto sp = spans.scope("obs.InstaPlcTestbed::collect");
    g_sink += tb.collect().metrics_fp;
  }
  out.collect_ms = 1e-6 * static_cast<double>(now_ns() - t0);
  return out;
}

struct TestbedProbe {
  double run_ms = 0.0;
  double collect_ms = 0.0;
  double obs_overhead_ratio = 0.0;
};

TestbedProbe probe_testbed(Spans& spans) {
  (void)testbed_once(true, spans);  // warm-up
  std::vector<double> run_on, run_off, collect;
  for (int i = 0; i < 5; ++i) {
    const TestbedMs on = testbed_once(true, spans);
    const TestbedMs off = testbed_once(false, spans);
    run_on.push_back(on.run_ms);
    collect.push_back(on.collect_ms);
    run_off.push_back(off.run_ms);
  }
  TestbedProbe p;
  p.run_ms = median(run_on);
  p.collect_ms = median(collect);
  p.obs_overhead_ratio = p.run_ms / median(run_off);
  return p;
}

/// sdn::Pipeline::process on a small exact+masked table, the size of the
/// InstaPLC switch's steering table.
double probe_sdn_match(Spans& spans) {
  sdn::Pipeline pipeline;
  sdn::Table table("t", {{sdn::FieldKind::kInPort, 0},
                         {sdn::FieldKind::kEthSrc, 0},
                         {sdn::FieldKind::kPayloadU8, 0}});
  constexpr std::uint64_t kEntries = 8;
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    sdn::TableEntry e;
    e.values = {i % 4, 0x100 + i, 0};
    e.masks = {~0ULL, ~0ULL, 0};
    e.actions = {sdn::ActionPrimitive::set_egress(net::PortId(i % 4))};
    table.add_entry(std::move(e));
  }
  pipeline.add_table(std::move(table));
  net::Frame f;
  f.src = net::MacAddress{0x100 + kEntries - 1};
  f.payload.assign(16, 0);
  constexpr std::uint64_t kCalls = 500'000;
  return ns_per_op(spans, "sdn.Pipeline::process", [] {}, [&] {
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      hits += pipeline.process(f, net::PortId((kEntries - 1) % 4)).dropped ? 0 : 1;
    }
    g_sink += hits;
    return kCalls;
  });
}

}  // namespace

std::vector<Metric> run_probes(const ProbeShape& shape, Spans& spans) {
  std::vector<Metric> m;
  const auto add = [&m](const char* name, double v, const char* unit) {
    m.push_back(Metric{name, v, unit});
  };
  auto root = spans.scope("probe.layers");
  add("sim.schedule_fire_ns", probe_schedule_fire(shape, spans), "ns");
  add("sim.partition_ms", probe_partition_ms(shape, spans), "ms");
  add("sim.null_round_ns", probe_null_round(spans), "ns");
  add("net.hop_ns",
      probe_hop(shape, spans, "net.Network::hop", [](HopCell&) {}).ns, "ns");
  const HopNs faults_hop = probe_hop(
      shape, spans, "net.Network::hop_faults", [](HopCell& c) {
        c.plane = std::make_unique<faults::FaultPlane>(c.net, 1);
        c.net.set_faults(c.plane.get());
      });
  add("net.hop_faults_ns", faults_hop.ns, "ns");
  add("sim.hop_events_per_frame", faults_hop.events_per_frame, "ratio");
  add("net.hop_obs_ns",
      probe_hop(shape, spans, "net.Network::hop_obs",
                [](HopCell& c) {
                  c.hub = std::make_unique<obs::ObsHub>();
                  c.net.set_obs(c.hub.get());
                })
          .ns,
      "ns");
  add("net.radio_frame_ns", probe_radio_frame(spans), "ns");
  add("faults.node_alive_ns", probe_node_alive(shape, spans), "ns");
  const CodecNs codec = probe_profinet(shape, spans);
  add("profinet.encode_ns", codec.encode, "ns");
  add("profinet.decode_ns", codec.decode, "ns");
  const FlowmonNs fm = probe_flowmon(shape, spans);
  add("flowmon.cache_observe_ns", fm.observe, "ns");
  add("flowmon.cache_sweep_ns", fm.sweep, "ns");
  add("flowmon.ipfix_encode_ns", fm.ipfix_encode, "ns");
  add("flowmon.ipfix_decode_ns", fm.ipfix_decode, "ns");
  const TestbedProbe tb = probe_testbed(spans);
  add("obs.collect_ms", tb.collect_ms, "ms");
  add("obs.run_overhead_ratio", tb.obs_overhead_ratio, "ratio");
  add("instaplc.testbed_run_ms", tb.run_ms, "ms");
  add("sdn.match_ns", probe_sdn_match(spans), "ns");
  if (g_sink == 0) std::fputs("perfbench: probe sink is empty\n", stderr);
  return m;
}

}  // namespace perfbench
