// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a library layer: its name, start and end
// (steady_clock seconds since the recorder was made), the span that caused
// it, and the id of the chain it belongs to. Spans are kept in memory while
// the run measures and written out as JSON lines when it ends; the layer
// self times the per-layer metrics report are derived from them afterwards.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  ///< index of the causing span, -1 for a root
  int chain = 0;    ///< chain id the span belongs to
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Seconds since the recorder was made.
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Reserves a span slot that starts now; close it with end().
  int begin(std::string name, int parent, int chain);
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void write_jsonl(std::ostream& os) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent, int chain)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent, chain)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its child spans covers.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Sum of self time per span name.
std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans);

}  // namespace perfbench
