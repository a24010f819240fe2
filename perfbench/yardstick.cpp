// The host-speed yardstick: a fixed event-driven kernel written in the
// style of the steelnet simulator (a time-ordered queue of std::function
// callbacks, per-node state, heap-allocated frames, a hash-map flow
// table) but sharing no code with it. perfbench times it after every
// workload call and reports workload time as a multiple of it, so the
// host's slow and fast phases, which move both alike, cancel out while
// a change to steelnet moves only the workload. See README.md,
// "Host-speed correction".
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {
namespace {

struct Event {
  std::uint64_t t = 0;
  std::uint64_t seq = 0;
  std::function<void()> fire;
};

struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }
};

constexpr std::size_t kNodes = 8192;
constexpr std::size_t kNodeBytes = 256;
constexpr std::size_t kEvents = 30000;
constexpr std::size_t kInitial = 256;

volatile std::uint64_t g_yardstick_sink = 0;

}  // namespace

double yardstick_s() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 88172645463325252ULL;  // xorshift64, fixed seed
  const auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::vector<std::uint8_t>> node(
      kNodes, std::vector<std::uint8_t>(kNodeBytes));
  std::unordered_map<std::uint64_t, std::uint64_t> flows;
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::uint64_t seq = 0, acc = 0, fired = 0, now = 0;

  std::function<void(std::size_t)> schedule = [&](std::size_t n) {
    queue.push(Event{now + 1 + rnd() % 1000, seq++, [&, n] {
                       auto frame = std::make_shared<std::vector<std::uint8_t>>(
                           64 + (n & 127));
                       (*frame)[0] = node[n][now % kNodeBytes]++;
                       acc += (*frame)[0];
                       flows[(n * 2654435761u) ^ (now & 1023)] += frame->size();
                       if (++fired < kEvents) schedule((n * 31 + rnd()) % kNodes);
                     }});
  };
  for (std::size_t i = 0; i < kInitial; ++i) schedule(rnd() % kNodes);
  while (!queue.empty() && fired < kEvents) {
    Event e = queue.top();
    queue.pop();
    now = e.t;
    e.fire();
  }
  g_yardstick_sink = acc + flows.size();
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

}  // namespace perfbench
