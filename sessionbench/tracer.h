#ifndef MATCHCATCHER_SESSIONBENCH_TRACER_H_
#define MATCHCATCHER_SESSIONBENCH_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mc {
namespace sessionbench {

/// One timed call into a layer, recorded as a Chrome trace-event "complete"
/// event. `session` is the request id every span of one session shares.
struct Span {
  const char* name = "";  // Static string: a layer name such as "ssj.plan".
  int64_t id = 0;
  int64_t parent = -1;  // -1 for a root span.
  uint64_t session = 0;
  uint32_t thread = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span store, safe to record into from any thread; written out
/// once when the run ends.
class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t NextId() { return next_id_.fetch_add(1); }
  double NowMicros() const;
  void Record(const Span& span);
  std::vector<Span> Snapshot() const;

  /// Writes {"traceEvents": [...]} — the Chrome trace-event format, which
  /// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // Guarded by mutex_.
};

/// Times the enclosing scope as one span. A null tracer makes it a no-op,
/// so traced and untraced runs share one code path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t session,
             int64_t parent = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Self time of every span, in microseconds: its duration minus the part of
/// its interval covered by its child spans. Indexed like `spans`.
std::vector<double> SelfTimesMicros(const std::vector<Span>& spans);

}  // namespace sessionbench
}  // namespace mc

#endif  // MATCHCATCHER_SESSIONBENCH_TRACER_H_
