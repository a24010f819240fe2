#include "sim/trace.hpp"

#include <ostream>
#include <sstream>
#include <utility>

#include "sim/hash.hpp"

namespace steelnet::sim {

void Trace::emit(SimTime time, std::string key, std::string value) {
  records_.push_back({time, std::move(key), std::move(value)});
}

std::vector<Trace::Record> Trace::filter(const std::string& key) const {
  std::vector<Record> out;
  for (const auto& r : records_) {
    if (r.key == key) out.push_back(r);
  }
  return out;
}

std::string Trace::to_csv() const {
  std::ostringstream os;
  write_csv(os);
  return os.str();
}

void Trace::write_csv(std::ostream& os) const {
  for (const auto& r : records_) {
    os << r.time.nanos() << ',' << r.key << ',' << r.value << '\n';
  }
}

std::uint64_t Trace::fingerprint() const { return fnv1a64(to_csv()); }

}  // namespace steelnet::sim
