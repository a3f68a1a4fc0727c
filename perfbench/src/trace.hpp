// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around each call it makes into a
// layer's public functions (the library itself is not instrumented). Each
// span keeps its name, start, end, parent span and op id; the whole trace is
// written out once, when the run ends. With tracing off the benchmark passes
// a null Tracer and SpanScope does nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;  // string literal: the layer call, e.g. "delta.update"
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  // index into the span vector, -1 for an op root
  int op;
};

class Tracer {
 public:
  void begin_op(int op) {
    op_ = op;
    first_of_op_ = static_cast<int>(spans_.size());
  }

  int open(const char* name) {
    spans_.push_back({name, now_ns(), 0, current_, op_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// Seconds covered by spans of the current op named `name` (summed when a
  /// layer is called more than once in one op).
  [[nodiscard]] double op_seconds(const char* name) const {
    double s = 0;
    for (std::size_t i = static_cast<std::size_t>(first_of_op_);
         i < spans_.size(); ++i) {
      if (std::string(spans_[i].name) == name) s += seconds(spans_[i]);
    }
    return s;
  }

  /// Self time of the current op's root span: its duration minus what its
  /// direct children cover — the time no layer call accounts for.
  [[nodiscard]] double op_root_self_seconds() const {
    double root = 0;
    double children = 0;
    for (std::size_t i = static_cast<std::size_t>(first_of_op_);
         i < spans_.size(); ++i) {
      if (spans_[i].parent < 0) {
        root += seconds(spans_[i]);
      } else if (spans_[static_cast<std::size_t>(spans_[i].parent)].parent <
                 0) {
        children += seconds(spans_[i]);
      }
    }
    return root - children;
  }

  /// Write every span as one JSON object per line.
  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"op\":%d,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d}\n",
                   s.op, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
    }
    std::fclose(f);
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  static double seconds(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  int current_ = -1;
  int op_ = -1;
  int first_of_op_ = 0;
};

/// RAII span; a null tracer makes it free.
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name)
      : t_(t), id_(t != nullptr ? t->open(name) : -1) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
