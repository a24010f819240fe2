// perfbench -- the benchmark of record for steelnet.
//
// One process that drives the public steelnet API: four plant workloads
// timed end to end (untraced), and a traced run that adds spans around
// every call into a layer plus one small probe per layer. Everything here
// lives in the benchmark's own files; the program under test is only
// linked, never instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- spans ------------------------------------------------------------------

/// In-memory span recorder: name, start, end, parent, and the workload
/// call the span belongs to. Spans are kept until the process ends and
/// written out once, so recording costs two clock reads and a push.
/// A disabled recorder records nothing (the untraced end-to-end runs).
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Spans* owner, std::int32_t id) : owner_(owner), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (owner_ != nullptr) owner_->close(id_);
    }

   private:
    Spans* owner_;
    std::int32_t id_;
  };

  /// Opens a span named `layer.function` (the layer is the steelnet
  /// module called) as a child of the innermost open span.
  [[nodiscard]] Scope scope(std::string name);
  /// Starts a new request: spans opened until the next call share `call`.
  void begin_call(std::int32_t call) { call_ = call; }

  /// Chrome trace-event JSON (complete events, microseconds), each event
  /// carrying its id, parent id and call id in args.
  [[nodiscard]] std::string to_chrome_trace() const;

  /// Self time per layer: a span's duration minus the part of it covered
  /// by its children, summed over every span of the layer (the name
  /// prefix before the first '.'). Sorted by layer name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_s_by_layer()
      const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::int32_t call = -1;
  };
  void close(std::int32_t id);

  bool enabled_;
  std::int32_t call_ = -1;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Monotonic host clock in nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- workloads ----------------------------------------------------------------

/// A named number with its unit, as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload call as the benchmark measured it.
struct Call {
  double wall_s = 0.0;    ///< the whole call: build, loop, collect, render
  double loop_s = 0.0;    ///< event-loop time (ShardRunStats::wall_seconds)
  double setup_s = 0.0;   ///< wall_s - loop_s (0 on the federation)
  double render_s = 0.0;  ///< artifact render + fingerprint
  double yardstick_s = 0.0;  ///< yardstick_s() right after the call
  std::uint64_t frames = 0;  ///< frames delivered (federation: sent)
  std::uint64_t events = 0;  ///< kernel events executed (0: not reported)
  std::uint64_t fingerprint = 0;
  std::string failure;    ///< empty when every correctness check passed
  /// Per-layer counters read from the call's own result.
  std::vector<Metric> counters;
};

/// Fixed inputs shared by every call of a run.
struct Inputs {
  std::uint64_t seed = 1;
  /// Per-cell weights of the fixed campus calibration profile; they drive
  /// the LPT placement of campus_sharded and the partition probe.
  std::vector<std::uint64_t> campus_weights;
};

/// campus_serial, campus_sharded, radio_floor or flowmon_federation.
[[nodiscard]] bool known_workload(const std::string& name);

/// Runs one call of `workload`, recording spans around each layer call
/// into `spans`, and checks its outputs. Exceptions are reported in
/// Call::failure.
[[nodiscard]] Call run_call(const std::string& workload, const Inputs& in,
                            Spans& spans);

/// The untimed cross-check call of a workload: the campus at the other
/// shard count (serial <-> 4 shards), the radio floor at 1 shard. Its
/// fingerprint must equal every timed call's. The single-threaded
/// federation has none: each of its calls is already compared with the
/// first.
[[nodiscard]] std::optional<Call> run_reference(const std::string& workload,
                                                const Inputs& in);

/// The federation's set-up time, in seconds. run_federation reports no
/// loop time, so set-up is one run of the same topology with only the
/// periodic flows and a 1 ms window. A broken run sets `failure`.
[[nodiscard]] double federation_setup_s(const Inputs& in,
                                        std::string& failure);

/// The calibration profile: the measured per-cell rates
/// (CampusResult::profile) of the seed-1 serial campus, as text.
[[nodiscard]] std::string campus_profile_text();

/// The pinned fingerprint of (workload, seed), when the seed is pinned.
[[nodiscard]] std::optional<std::uint64_t> pinned_fingerprint(
    const std::string& workload, std::uint64_t seed);

/// Runs the fixed host-speed yardstick kernel once and returns its time,
/// in seconds. It shares no code with steelnet, so only the host moves it.
[[nodiscard]] double yardstick_s();

// --- probes -------------------------------------------------------------------

/// Shape parameters every probe reads, so each builds inputs like its
/// workload's.
struct ProbeShape {
  std::vector<std::uint64_t> campus_weights;  ///< partition probe input
  std::size_t campus_devices_per_cell = 0;
  std::size_t campus_pdu_bytes = 0;       ///< cyclic process-data bytes
  std::size_t federation_live_flows = 0;  ///< flows one cell meter tracks
};

/// The probe shape derived from the workloads' own options.
[[nodiscard]] ProbeShape probe_shape(const Inputs& in);

/// Runs every layer probe and returns one metric per probe (ns/op or
/// ms/op, ratios for the obs overhead).
[[nodiscard]] std::vector<Metric> run_probes(const ProbeShape& shape,
                                             Spans& spans);

}  // namespace perfbench
