#include "trace.hpp"

namespace cm1bench {

int Tracer::record(int id, const char* name, Clock::time_point start,
                   Clock::time_point end, int parent, int client,
                   std::int64_t iteration) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, end, id, parent, client, iteration});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(s.seconds());
  return out;
}

void Tracer::write_json(std::ostream& out, Clock::time_point origin) const {
  const auto ns = [origin](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };
  std::lock_guard<std::mutex> lock(mutex_);
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n " : "\n ") << "{\"name\":\"" << s.name
        << "\",\"start_ns\":" << ns(s.start) << ",\"end_ns\":" << ns(s.end)
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"client\":" << s.client << ",\"iteration\":" << s.iteration
        << "}";
  }
  out << "\n]";
}

}  // namespace cm1bench
