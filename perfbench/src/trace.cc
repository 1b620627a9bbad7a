#include "trace.h"

#include <sstream>

#include "common.h"

namespace perfbench {

int64_t SpanBuffer::Open(const char* name, int64_t request) {
  Span span;
  span.name = name;
  span.id = ++next_id_;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.request = request;
  open_.push_back(spans_.size());
  spans_.push_back(span);
  spans_.back().start_ns = NowNs();
  return span.id;
}

double SpanBuffer::Close() {
  const int64_t end = NowNs();
  Span& span = spans_[open_.back()];
  open_.pop_back();
  span.end_ns = end;
  return span.duration_us();
}

SpanBuffer& Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Ids of different buffers never collide: each buffer numbers from its
  // own 2^40 block.
  const int64_t base = static_cast<int64_t>(buffers_.size() + 1) << 40;
  return buffers_.emplace_back(base);
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const SpanBuffer& buffer : buffers_) {
    for (const Span& span : buffer.spans()) {
      if (name == span.name) out.push_back(span.duration_us());
    }
  }
  return out;
}

std::map<int64_t, double> Tracer::DurationByRequest(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<int64_t, double> out;
  for (const SpanBuffer& buffer : buffers_) {
    for (const Span& span : buffer.spans()) {
      if (name == span.name) out[span.request] += span.duration_us();
    }
  }
  return out;
}

int64_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t count = 0;
  for (const SpanBuffer& buffer : buffers_) {
    count += static_cast<int64_t>(buffer.spans().size());
  }
  return count;
}

dcs::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ostringstream out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const SpanBuffer& buffer : buffers_) {
      for (const Span& span : buffer.spans()) {
        out << "{\"name\":\"" << span.name << "\",\"start_ns\":"
            << span.start_ns << ",\"end_ns\":" << span.end_ns
            << ",\"id\":" << span.id << ",\"parent\":" << span.parent
            << ",\"request\":" << span.request << "}\n";
      }
    }
  }
  return WriteTextFile(path, out.str());
}

}  // namespace perfbench
