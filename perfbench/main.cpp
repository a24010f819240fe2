// perfbench: the benchmark of record (see README.md in this directory).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --profile <campus calibration profile> [--spans <file>]
//   perfbench --print-pins <n> --profile <file>
//   perfbench --write-profile <file>
//
// --trace 0 times the workload end to end with tracing off and prints the
// end-to-end metrics. --trace 1 alternates traced and untraced calls,
// runs every layer probe, writes the span file and prints the per-layer
// metrics. Either way the last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// and the line before it is the run record.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "faults/scenario_runner.hpp"
#include "perfbench.hpp"
#include "sim/partitioner.hpp"

namespace perfbench {

// --- Spans ----------------------------------------------------------------------

Spans::Scope Spans::scope(std::string name) {
  if (!enabled_) return Scope{nullptr, -1};
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{std::move(name), now_ns(), 0,
                        open_.empty() ? -1 : open_.back(), call_});
  open_.push_back(id);
  return Scope{this, id};
}

void Spans::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::string Spans::to_chrome_trace() const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,",
                  i == 0 ? "" : ",", s.name.c_str(),
                  1e-3 * static_cast<double>(s.start_ns - base),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    out << buf << "\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"call\":" << s.call << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

std::vector<std::pair<std::string, double>> Spans::self_s_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    by_layer[layer] +=
        1e-9 * static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
  }
  return {by_layer.begin(), by_layer.end()};
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string profile;
  std::string spans;
  int print_pins = 0;
  std::string write_profile;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --profile <file> [--spans <file>]\n"
               "       perfbench --print-pins <n> --profile <file>\n"
               "       perfbench --write-profile <file>\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v);
      else if (flag == "--profile") a.profile = v;
      else if (flag == "--spans") a.spans = v;
      else if (flag == "--print-pins") a.print_pins = std::stoi(v);
      else if (flag == "--write-profile") a.write_profile = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!a.write_profile.empty()) return a;
  if (a.profile.empty()) usage("--profile is required");
  if (a.print_pins == 0 && !known_workload(a.workload)) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace takes 0 or 1");
  return a;
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// A JSON number; a non-finite value (no passing call to measure) prints
/// as 0 so the result line stays valid JSON.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median of a field over the calls that passed their checks; a failed
/// call's figures are not measurements of the workload.
template <typename Fn>
double median_of(const std::vector<Call>& calls, Fn&& field) {
  std::vector<double> v;
  v.reserve(calls.size());
  for (const Call& c : calls) {
    if (c.failure.empty()) v.push_back(field(c));
  }
  return median(std::move(v));
}

/// Median of a per-layer counter over calls; 0 when the workload's result
/// does not report it.
double median_counter(const std::vector<Call>& calls, const std::string& name) {
  return median_of(calls, [&](const Call& c) {
    for (const Metric& m : c.counters) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  });
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host CPU time stolen from this VM's vCPUs so far (the 8th field of
/// /proc/stat's cpu line, in USER_HZ ticks), in seconds; -1 when unknown.
/// A run whose timed calls overlap heavy steal measured a busy host.
double steal_s() {
  std::ifstream stat{"/proc/stat"};
  std::string cpu;
  std::uint64_t field = 0, steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && (stat >> field); ++i) steal = field;
  const long hz = sysconf(_SC_CLK_TCK);
  return cpu == "cpu" && stat && hz > 0
             ? static_cast<double>(steal) / static_cast<double>(hz)
             : -1.0;
}

double loadavg_1m() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

/// Every run's correctness bookkeeping: each call must pass its own
/// checks and reproduce the first call's fingerprint exactly. A call that
/// does not keeps the reason in its `failure`.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reference_fp = 0;

  void record(Call& c, const std::string& what) {
    if (c.failure.empty() && attempted > 0 && c.fingerprint != reference_fp) {
      c.failure = "fingerprint " + hex16(c.fingerprint) +
                  " differs from the reference " + hex16(reference_fp);
    }
    if (attempted == 0) reference_fp = c.fingerprint;
    count(c.failure, what);
  }

  /// An operation with no fingerprint of its own (the federation set-up).
  void count(const std::string& failure, const std::string& what) {
    ++attempted;
    if (!failure.empty()) {
      ++failed;
      std::cerr << "perfbench: " << what << " failed: " << failure << "\n";
    }
  }
};

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (ledger.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted
      << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << num(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// The nominal time of yardstick_s(). Its median on the reference host
/// (4-vCPU Xeon VM, g++ 12.2, RelWithDebInfo) ranged 5.2-12.4 ms with the
/// host's phases. The end-to-end times are host-time ratios to the
/// yardstick kernel, scaled by this constant into seconds of a host that
/// runs it in 12 ms.
constexpr double kYardstickNominalS = 0.012;

/// Host-speed-corrected seconds: `s` measured next to a yardstick run
/// that took `yardstick_s`.
double corrected(double s, double yardstick_s) {
  return yardstick_s > 0.0 ? s * kYardstickNominalS / yardstick_s : 0.0;
}

std::vector<Metric> end_to_end(const std::vector<Call>& calls, double setup_s,
                               bool frames_per_wall, double rss_mb) {
  return {
      {"wall_s", median_of(calls,
                           [](const Call& c) {
                             return corrected(c.wall_s, c.yardstick_s);
                           }),
       "s"},
      {"setup_s", setup_s, "s"},
      {"frames_per_s", median_of(calls,
                                 [&](const Call& c) {
                                   const double t = corrected(
                                       frames_per_wall ? c.wall_s : c.loop_s,
                                       c.yardstick_s);
                                   return t > 0.0 ? c.frames / t : 0.0;
                                 }),
       "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

double value_of(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

std::vector<Metric> per_layer(const std::vector<Call>& traced,
                              const std::vector<Call>& untraced,
                              const std::vector<Metric>& probes) {
  std::vector<Metric> m;
  const auto add = [&m](const std::string& name, double v, const char* unit) {
    m.push_back(Metric{name, v, unit});
  };
  const double loop_s =
      median_of(traced, [](const Call& c) { return c.loop_s; });
  const double frames =
      median_of(traced, [](const Call& c) { return double(c.frames); });
  const double events =
      median_of(traced, [](const Call& c) { return double(c.events); });
  add("sim.run_s", loop_s, "s");
  add("sim.events_per_frame", frames == 0.0 ? 0.0 : events / frames, "ratio");
  for (const char* name :
       {"sim.rounds", "sim.msgs_sent", "sim.fast_skips", "sim.push_spins",
        "sim.clock_publishes", "faults.drops", "flowmon.flows",
        "flowmon.records_lost", "flowmon.template_misses"}) {
    add(name, median_counter(traced, name), "count");
  }
  add("sim.imbalance_permille",
      median_counter(traced, "sim.imbalance_permille"), "permille");
  for (const char* name : {"net.pool_reuse_ratio", "net.delivery_ratio",
                           "profinet.pdus_per_frame"}) {
    add(name, median_counter(traced, name), "ratio");
  }
  add("core.render_s",
      median_of(traced, [](const Call& c) { return c.render_s; }), "s");
  m.insert(m.end(), probes.begin(), probes.end());

  // Cost of one frame: the per-layer probes times the calls each frame
  // makes (from the workload's own counters) against the measured loop
  // time per delivered frame. The hop probe already carries its own
  // kernel events; the workload's other events (cyclic timers, watchdogs)
  // are charged at the kernel's schedule+fire cost.
  const double loop_ns = frames == 0.0 ? 0.0 : loop_s * 1e9 / frames;
  const double extra_events =
      std::max(0.0, value_of(m, "sim.events_per_frame") -
                        value_of(m, "sim.hop_events_per_frame"));
  const double model_ns =
      value_of(m, "net.hop_faults_ns") +
      value_of(m, "profinet.pdus_per_frame") *
          (value_of(m, "profinet.encode_ns") +
           value_of(m, "profinet.decode_ns")) +
      extra_events * value_of(m, "sim.schedule_fire_ns");
  add("frame.loop_ns", loop_ns, "ns");
  add("frame.model_ns", model_ns, "ns");
  add("frame.residual_share",
      loop_ns == 0.0 ? 0.0 : (loop_ns - model_ns) / loop_ns, "ratio");
  add("trace.overhead_ratio",
      median_of(traced, [](const Call& c) { return c.wall_s; }) /
          median_of(untraced, [](const Call& c) { return c.wall_s; }),
      "ratio");
  return m;
}

/// The per-layer table of a traced run: span self time per layer, then
/// every per-layer metric.
void print_layer_table(const Spans& spans, const std::vector<Metric>& m,
                       double overhead_ratio) {
  std::fprintf(stderr, "perfbench: span self time by layer\n");
  for (const auto& [layer, s] : spans.self_s_by_layer()) {
    std::fprintf(stderr, "  %-10s %12.6f s\n", layer.c_str(), s);
  }
  std::fprintf(stderr, "perfbench: per-layer metrics\n");
  for (const Metric& x : m) {
    std::fprintf(stderr, "  %-28s %16.6g %s\n", x.name.c_str(), x.value,
                 x.unit.c_str());
  }
  std::fprintf(stderr,
               "perfbench: tracing overhead: traced wall_s / untraced "
               "wall_s = %.4f\n",
               overhead_ratio);
}

int print_pins(const Args& args, const Inputs& base) {
  for (int s = 0; s < args.print_pins; ++s) {
    Inputs in = base;
    in.seed = static_cast<std::uint64_t>(s);
    Spans off{false};
    for (const char* w :
         {"campus_sharded", "radio_floor", "flowmon_federation"}) {
      const Call c = run_call(w, in, off);
      const std::string key =
          std::string(w) == "campus_sharded" ? "campus" : w;
      std::printf("    {\"%s\", %d, 0x%sULL},%s%s\n", key.c_str(), s,
                  hex16(c.fingerprint).c_str(), c.failure.empty() ? "" : "  // ",
                  c.failure.c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  const double load_at_start = loadavg_1m();
  if (!args.write_profile.empty()) {
    std::ofstream{args.write_profile} << campus_profile_text();
    return 0;
  }

  std::ifstream profile_in{args.profile};
  if (!profile_in) usage("cannot read profile '" + args.profile + "'");
  std::ostringstream profile_text;
  profile_text << profile_in.rdbuf();
  Inputs in;
  in.seed = args.seed;
  in.campus_weights =
      steelnet::sim::RateProfile::parse(profile_text.str()).weights();
  if (args.print_pins > 0) return print_pins(args, in);

  Ledger ledger;
  Spans off{false};
  // Untimed warm-up: the first sharded run in a process is markedly
  // slower. Its fingerprint is the one every later call must reproduce.
  Call warm_up = run_call(args.workload, in, off);
  ledger.record(warm_up, "warm-up call");

  // The federation's set-up time is its own short run of the fixed
  // topology, made after every timed call (outside its timing) so that
  // its median samples the same host conditions as the calls.
  const bool federation = args.workload == "flowmon_federation";
  std::vector<double> federation_setup;
  Spans spans{args.trace == 1};
  std::vector<Call> timed, untraced;
  const double steal_at_start = steal_s();
  const std::int64_t t0 = now_ns();
  const auto elapsed = [&] { return 1e-9 * double(now_ns() - t0); };
  const std::size_t min_calls = args.trace == 1 ? 2 : 3;
  while (timed.size() < min_calls || elapsed() < args.seconds) {
    if (args.trace == 1) {
      // Untraced calls interleave with the traced ones, so the overhead
      // ratio compares calls made under the same host conditions.
      untraced.push_back(run_call(args.workload, in, off));
      ledger.record(untraced.back(), "untraced call");
      spans.begin_call(static_cast<std::int32_t>(timed.size()));
    }
    timed.push_back(run_call(args.workload, in, spans));
    ledger.record(timed.back(), "call");
    double setup_run_s = 0.0;
    if (federation && args.trace == 0) {
      std::string failure;
      setup_run_s = federation_setup_s(in, failure);
      ledger.count(failure, "federation set-up run");
      if (!failure.empty()) setup_run_s = 0.0;
    }
    if (args.trace == 0) {
      // The host-speed yardstick, right after the call it corrects.
      timed.back().yardstick_s = yardstick_s();
      if (setup_run_s > 0.0) {
        federation_setup.push_back(
            corrected(setup_run_s, timed.back().yardstick_s));
      }
    }
  }
  const double steal_timed = steal_s() - steal_at_start;

  // A pinned seed has checked every call against its pin. Any other seed
  // gets the untimed cross-check call (campus at the other shard count,
  // radio floor at 1 shard), made after the timed calls so it does not
  // count in peak_rss_mb.
  const double rss_mb = peak_rss_mb();
  const auto pin = pinned_fingerprint(args.workload, args.seed);
  std::optional<Call> reference;
  if (!pin.has_value()) reference = run_reference(args.workload, in);
  if (reference) ledger.record(*reference, "reference call");

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    // The federation reports no loop time: its set-up is the separate
    // short run, and its frames count per second of wall_s.
    const double setup_s =
        federation ? median(federation_setup)
                   : median_of(timed, [](const Call& c) {
                       return corrected(c.setup_s, c.yardstick_s);
                     });
    metrics = end_to_end(timed, setup_s, federation, rss_mb);
  } else {
    spans.begin_call(-1);
    metrics = per_layer(timed, untraced, run_probes(probe_shape(in), spans));
    if (!args.spans.empty()) {
      std::ofstream{args.spans} << spans.to_chrome_trace();
      std::cerr << "perfbench: wrote spans to " << args.spans << "\n";
    }
    print_layer_table(spans, metrics, value_of(metrics, "trace.overhead_ratio"));
  }

  const char* rev = std::getenv("PERFBENCH_SOURCE_REV");
  std::cout << "{\"run_record\": {\"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed << ", \"trace\": " << args.trace
            << ", \"calls_timed\": " << timed.size()
            << ", \"source_rev\": \"" << (rev != nullptr ? rev : "unknown")
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"compiler\": \"g++ " << __VERSION__
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"loadavg_1m_at_start\": " << num(load_at_start)
            << ", \"host_steal_s_while_timing\": " << num(steal_timed)
            << ", \"calibration_profile_fnv\": \""
            << hex16(steelnet::faults::fnv1a64(profile_text.str()))
            << "\", \"fingerprint\": \"" << hex16(ledger.reference_fp)
            << "\", \"pinned\": " << (pin.has_value() ? "true" : "false")
            << ", \"reference_wall_s\": "
            << (reference ? num(reference->wall_s) : "null")
            << ", \"reference_loop_s\": "
            << (reference ? num(reference->loop_s) : "null")
            << ", \"raw_wall_s\": "
            << num(median_of(timed, [](const Call& c) { return c.wall_s; }))
            << ", \"yardstick_s\": "
            << num(median_of(timed, [](const Call& c) { return c.yardstick_s; }))
            << ", \"yardstick_nominal_s\": " << num(kYardstickNominalS)
            << ", \"wall_s_per_call\": [";
  for (std::size_t i = 0; i < timed.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << num(timed[i].wall_s);
  }
  std::cout << "], \"yardstick_s_per_call\": [";
  for (std::size_t i = 0; i < timed.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << num(timed[i].yardstick_s);
  }
  std::cout << "], \"loop_s_per_call\": [";
  for (std::size_t i = 0; i < timed.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << num(timed[i].loop_s);
  }
  std::cout << "]}}" << std::endl;
  print_result(ledger, metrics);
  return 0;
}
