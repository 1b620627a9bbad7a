// Span tracing for the benchmark's traced run (README.md, "Reading the
// traced split").
//
// Spans come only from the benchmark's own code: each one wraps a call into
// one layer's public API. A span has a name, start and end (steady clock),
// its own id, the id of the span it was opened under (0 for a root), and
// the request id it serves, so every span of one request can be grouped.
// Spans stay in per-thread buffers in memory; the run writes them out as
// JSON lines when it ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct Span {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = 0;
  double duration_us() const {
    return static_cast<double>(end_ns - start_ns) / 1000.0;
  }
};

// One thread's spans. Not thread-safe: each thread uses its own buffer.
class SpanBuffer {
 public:
  explicit SpanBuffer(int64_t id_base) : next_id_(id_base) {}

  // Opens a span under the innermost open span of this buffer.
  int64_t Open(const char* name, int64_t request);
  // Closes the innermost open span; returns its duration in microseconds.
  double Close();

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_
  int64_t next_id_;
};

// RAII span. A null buffer records nothing, so untraced code paths share
// the same call sites.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, int64_t request)
      : buffer_(buffer) {
    if (buffer_ != nullptr) buffer_->Open(name, request);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
};

class Tracer {
 public:
  // A new buffer for one thread. The reference stays valid for the
  // tracer's life.
  SpanBuffer& NewBuffer();

  // Durations (µs) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  // Summed duration (µs) of the spans named `name`, per request id.
  std::map<int64_t, double> DurationByRequest(const std::string& name) const;
  int64_t num_spans() const;

  // One JSON object per line: name, start_ns, end_ns, id, parent, request.
  dcs::Status WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::deque<SpanBuffer> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
