#ifndef APPBENCH_SPANS_H_
#define APPBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

// The benchmark's own span recorder. Spans are recorded from the
// benchmark's files around each call it makes into a layer; nothing inside
// the program is traced. Spans stay in memory until the run ends.
namespace appbench {

struct Span {
  std::string name;
  uint64_t request_id = 0;  // shared by every span of one request
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t start_ns = 0;  // steady clock, relative to the recorder's birth
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  // Times one call into a layer. The span is recorded when the scope ends.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name, uint64_t request_id,
          uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    uint64_t id() const { return span_.id; }
    // Elapsed so far, in microseconds.
    double ElapsedMicros() const;

   private:
    SpanRecorder* recorder_;
    Span span_;
  };

  // All spans recorded so far, in completion order.
  std::vector<Span> Spans() const;

  // Per span name, every span's self time in microseconds: its duration
  // minus the part of it that its child spans cover.
  std::map<std::string, std::vector<double>> SelfMicros() const;
  // Per span name, every span's duration in microseconds.
  std::map<std::string, std::vector<double>> DurationMicros() const;

  // One JSON object per span and line, self time included. Returns false
  // when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t NowNanos() const;
  void Record(Span span);

  const std::chrono::steady_clock::time_point birth_;
  std::atomic<uint64_t> next_request_{0};
  std::atomic<uint64_t> next_span_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace appbench

#endif  // APPBENCH_SPANS_H_
