#include "flowmon/meter_point.hpp"

#include <algorithm>

#include "net/network.hpp"
#include "obs/hub.hpp"

namespace steelnet::flowmon {

namespace {

FlowCacheConfig cache_config(const MeterConfig& cfg) {
  FlowCacheConfig c;
  c.capacity = cfg.cache_capacity;
  c.idle_timeout = cfg.idle_timeout;
  c.active_timeout = cfg.active_timeout;
  c.wheel_tick = std::min(cfg.wheel_tick, cfg.export_interval);
  return c;
}

}  // namespace

MeterPoint::MeterPoint(net::Node& observed, net::HostNode& export_nic,
                       MeterConfig cfg)
    : observed_(observed),
      export_nic_(export_nic),
      cfg_(cfg),
      cache_(cache_config(cfg)) {
  observed_.add_frame_observer(this);
  sim::Simulator& sim = observed_.network().sim();
  sweeper_ = std::make_unique<sim::PeriodicTask>(
      sim, sim.now() + cfg_.export_interval, cfg_.export_interval,
      [this] { sweep(); });
}

MeterPoint::~MeterPoint() { observed_.remove_frame_observer(this); }

void MeterPoint::on_frame(const net::Frame& frame, net::PortId in_port) {
  (void)in_port;
  if (!cfg_.meter_exports &&
      frame.ethertype == net::EtherType::kFlowmonExport) {
    ++stats_.frames_ignored;
    return;
  }
  ++stats_.frames_seen;
  cache_.record(frame, observed_.network().sim().now());
}

void MeterPoint::sweep() {
  const sim::SimTime now = observed_.network().sim().now();
  std::vector<ExportRecord> out;
  cache_.sweep(now, [&](const FlowRecord& r, EndReason reason) {
    out.push_back(to_export_record(r, reason));
    if (reason == EndReason::kIdleTimeout) {
      ++stats_.idle_expired;
    } else {
      ++stats_.active_checkpoints;
    }
  });
  if (!out.empty()) export_records(std::move(out));
}

void MeterPoint::flush() {
  std::vector<ExportRecord> out;
  cache_.flush([&](const FlowRecord& r, EndReason reason) {
    out.push_back(to_export_record(r, reason));
    ++stats_.flushed;
  });
  if (!out.empty()) export_records(std::move(out));
}

void MeterPoint::export_records(std::vector<ExportRecord> records) {
  const sim::SimTime now = observed_.network().sim().now();
  for (std::size_t off = 0; off < records.size();
       off += cfg_.max_records_per_frame) {
    const std::size_t n =
        std::min(cfg_.max_records_per_frame, records.size() - off);
    const std::vector<ExportRecord> chunk(records.begin() + off,
                                          records.begin() + off + n);
    const bool with_template = frames_since_template_ == 0;
    if (++frames_since_template_ >= cfg_.template_refresh_frames) {
      frames_since_template_ = 0;
    }

    MessageHeader header;
    header.observation_domain = cfg_.observation_domain;
    header.sequence = sequence_;
    header.export_time = now;
    sequence_ += static_cast<std::uint32_t>(n);

    net::Frame frame;
    frame.dst = cfg_.collector_mac;
    frame.ethertype = net::EtherType::kFlowmonExport;
    frame.pcp = cfg_.export_pcp;
    frame.payload =
        encode_message(header, flow_template(), with_template, chunk);
    export_nic_.send(std::move(frame));
    ++stats_.export_frames;
    stats_.records_exported += n;
  }
}

std::optional<sim::SimTime> MeterPoint::last_seen(const FlowKey& key) const {
  const FlowRecord* r = cache_.find(key);
  if (r == nullptr) return std::nullopt;
  return r->last_seen;
}

std::optional<sim::SimTime> MeterPoint::last_seen_from(
    net::MacAddress src) const {
  std::optional<sim::SimTime> best;
  cache_.for_each([&](const FlowRecord& r) {
    if (r.key.src == src && (!best || r.last_seen > *best)) {
      best = r.last_seen;
    }
  });
  return best;
}

std::optional<std::int64_t> MeterPoint::silent_cycles(
    const FlowKey& key, sim::SimTime cycle, sim::SimTime now) const {
  const auto seen = last_seen(key);
  if (!seen || cycle <= sim::SimTime::zero()) return std::nullopt;
  return (now - *seen) / cycle;
}

void MeterPoint::register_metrics(obs::ObsHub& hub) const {
  register_metrics(hub, observed_.name());
}

void MeterPoint::register_metrics(obs::ObsHub& hub,
                                  const std::string& node_label) const {
  obs::MetricsRegistry& reg = hub.metrics();
  reg.bind_counter({node_label, "flowmon", "frames_seen"},
                   &stats_.frames_seen);
  reg.bind_counter({node_label, "flowmon", "frames_ignored"},
                   &stats_.frames_ignored);
  reg.bind_counter({node_label, "flowmon", "records_exported"},
                   &stats_.records_exported);
  reg.bind_counter({node_label, "flowmon", "export_frames"},
                   &stats_.export_frames);
  reg.bind_counter({node_label, "flowmon", "idle_expired"},
                   &stats_.idle_expired);
  reg.bind_counter({node_label, "flowmon", "active_checkpoints"},
                   &stats_.active_checkpoints);
  reg.bind_counter({node_label, "flowmon", "flushed"}, &stats_.flushed);
  const FlowCacheStats& cs = cache_.stats();
  reg.bind_counter({node_label, "flowcache", "lookups"}, &cs.lookups);
  reg.bind_counter({node_label, "flowcache", "hits"}, &cs.hits);
  reg.bind_counter({node_label, "flowcache", "inserts"}, &cs.inserts);
  reg.bind_counter({node_label, "flowcache", "erased"}, &cs.erased);
  reg.bind_counter({node_label, "flowcache", "probes"}, &cs.probes);
  reg.bind_counter({node_label, "flowcache", "dropped_full"},
                   &cs.dropped_full);
  reg.bind_counter({node_label, "flowcache", "wheel_fires"},
                   &cs.wheel_fires);
  reg.bind_counter({node_label, "flowcache", "wheel_rearms"},
                   &cs.wheel_rearms);
  reg.bind_gauge({node_label, "flowcache", "occupancy"},
                 [this] { return static_cast<double>(cache_.size()); });
}

std::function<std::optional<sim::SimTime>()> make_liveness_probe(
    const MeterPoint& meter, net::MacAddress src) {
  return [&meter, src] { return meter.last_seen_from(src); };
}

}  // namespace steelnet::flowmon
