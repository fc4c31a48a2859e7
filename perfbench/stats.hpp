// Metric naming, aggregation and the result line the benchmark prints.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// BENCHMARK.json's name rule: starts with a letter or digit, at
/// most 64 letters, digits, '_', '.' and '-'.
bool valid_metric_name(const std::string& name);

/// Per-layer names are `<stage>.<module>.<what>` (or `<stage>.<what>` for
/// a stage's own residuals), the stage one of the four pipeline stages and
/// the module one under src/ldlb/.
bool valid_layer_name(const std::string& name);

double min_of(const std::vector<double>& v);
double median(std::vector<double> v);
/// The q-quantile, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double q);

/// End-to-end metric names with units, in output order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
/// Per-layer metric names with units, in output order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// The four pipeline stages, in order.
const std::vector<std::string>& stages();

/// Derives every per-layer metric from the traced units' spans and sums.
/// Span names are metric names without the `_s` suffix; spans named after
/// a stage, `<stage>.level` or `certify.inprocess` are structure, and their
/// self time is the stage's unattributed residual. `untraced_stage_s` is
/// each stage's mean per-unit time in the same run's untraced units, and
/// `pool_speedup` the certify and validate 1-to-2-thread speedups (1 where
/// the run does not measure them).
std::vector<Metric> layer_metrics(const std::vector<Span>& spans,
                                  const std::map<std::string, double>& sums,
                                  int traced_units,
                                  const std::map<std::string, double>& untraced_stage_s,
                                  const std::map<std::string, double>& pool_speedup);

/// The last line of the benchmark's output.
std::string result_json(bool correct, long long attempted, long long failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
