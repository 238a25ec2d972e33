// Span recorder of the traced run.
//
// The benchmark records spans around its own calls into each layer's public
// functions (Runtime::initialize, Cm1Proxy::step, Client::write, ...): name,
// start, end, the span that caused it, and the request it belongs to.  A
// request is one (client, iteration); server-side spans use client -1.
// Spans stay in memory and are written out once, when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace cm1bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int id = 0;
  int parent = -1;  ///< -1: a root span
  int client = -1;  ///< request id, part 1 (-1: server side)
  std::int64_t iteration = -1;  ///< request id, part 2 (-1: not per iteration)

  [[nodiscard]] double seconds() const { return seconds_between(start, end); }
};

/// Thread-safe span sink.  When disabled, every call is a no-op, so the
/// untraced runs share the code path of the traced one.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Reserves an id for a span whose children are recorded before it ends.
  int next_id() { return enabled_ ? next_id_.fetch_add(1) : -1; }

  /// Records a finished span under a reserved id; returns the id.
  int record(int id, const char* name, Clock::time_point start,
             Clock::time_point end, int parent, int client = -1,
             std::int64_t iteration = -1);

  /// Records a finished span under a fresh id; returns the id.
  int record(const char* name, Clock::time_point start, Clock::time_point end,
             int parent, int client = -1, std::int64_t iteration = -1) {
    return record(next_id(), name, start, end, parent, client, iteration);
  }

  /// All spans recorded so far (call after every recording thread ended).
  [[nodiscard]] std::vector<Span> spans() const;

  /// Durations (seconds) of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Writes the spans as a JSON array, times in ns from `origin`.
  void write_json(std::ostream& out, Clock::time_point origin) const;

 private:
  const bool enabled_;
  std::atomic<int> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace cm1bench
