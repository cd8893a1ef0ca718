#include "spans.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace appbench {

namespace {

// Self time per span, indexed like `spans`: duration minus the union of
// the child intervals clipped to the parent.
std::vector<int64_t> SelfNanos(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    auto parent = index.find(span.parent);
    if (span.parent == 0 || parent == index.end()) continue;
    const Span& p = spans[parent->second];
    const int64_t start = std::max(span.start_ns, p.start_ns);
    const int64_t end = std::min(span.end_ns, p.end_ns);
    if (end > start) children[parent->second].emplace_back(start, end);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t reach = spans[i].start_ns;
    for (const auto& [start, end] : intervals) {
      const int64_t from = std::max(start, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

std::string Escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

SpanRecorder::SpanRecorder() : birth_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::NowNanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - birth_)
      .count();
}

void SpanRecorder::Record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string name,
                           uint64_t request_id, uint64_t parent)
    : recorder_(recorder) {
  span_.name = std::move(name);
  span_.request_id = request_id;
  span_.id = recorder_->next_span_.fetch_add(1) + 1;
  span_.parent = parent;
  span_.start_ns = recorder_->NowNanos();
}

SpanRecorder::Scope::~Scope() {
  span_.end_ns = recorder_->NowNanos();
  recorder_->Record(std::move(span_));
}

double SpanRecorder::Scope::ElapsedMicros() const {
  return static_cast<double>(recorder_->NowNanos() - span_.start_ns) / 1e3;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, std::vector<double>> SpanRecorder::SelfMicros() const {
  const std::vector<Span> spans = Spans();
  const std::vector<int64_t> self = SelfNanos(spans);
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name].push_back(static_cast<double>(self[i]) / 1e3);
  }
  return out;
}

std::map<std::string, std::vector<double>> SpanRecorder::DurationMicros()
    const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& span : Spans()) {
    out[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  const std::vector<int64_t> self = SelfNanos(spans);
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":\"" << Escape(s.name) << "\",\"request\":" << s.request_id
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << self[i] << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace appbench
