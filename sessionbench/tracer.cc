#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace mc {
namespace sessionbench {

namespace {

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

double Tracer::NowMicros() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    // Names are static layer identifiers ([a-z._]), so they need no JSON
    // escaping.
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"session\":%llu,"
                 "\"span\":%lld,\"parent\":%lld}}",
                 i == 0 ? "" : ",", span.name, span.thread, span.start_us,
                 span.end_us - span.start_us,
                 static_cast<unsigned long long>(span.session),
                 static_cast<long long>(span.id),
                 static_cast<long long>(span.parent));
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t session,
                       int64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NextId();
  span_.parent = parent;
  span_.session = session;
  span_.thread = ThreadNumber();
  span_.start_us = tracer_->NowMicros();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_us = tracer_->NowMicros();
  tracer_->Record(span_);
}

std::vector<double> SelfTimesMicros(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    auto parent = index_of.find(span.parent);
    if (parent == index_of.end()) continue;
    children[parent->second].emplace_back(span.start_us, span.end_us);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double start = spans[i].start_us;
    const double end = spans[i].end_us;
    std::vector<std::pair<double, double>>& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    // Union of the child intervals clipped to this span: children running
    // concurrently on other threads are not counted twice.
    double covered = 0.0;
    double reach = start;
    for (const auto& [child_start, child_end] : intervals) {
      const double from = std::max(child_start, reach);
      const double to = std::min(child_end, end);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(child_end, end));
    }
    self[i] = std::max(0.0, end - start - covered);
  }
  return self;
}

}  // namespace sessionbench
}  // namespace mc
