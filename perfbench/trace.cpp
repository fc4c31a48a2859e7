#include "trace.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

int Tracer::begin(std::string name, int parent, int chain) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.chain = chain;
  span.start = now();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

void Tracer::write_jsonl(std::ostream& os) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start\":"
       << s.start << ",\"end\":" << s.end << ",\"parent\":" << s.parent
       << ",\"chain\":" << s.chain << "}\n";
  }
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Measure of the union of the child intervals, clipped to the span.
    double covered = 0;
    double run_start = 0;
    double run_end = -1;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start);
      b = std::min(b, s.end);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    out[i] = (s.end - s.start) - covered;
  }
  return out;
}

std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

}  // namespace perfbench
