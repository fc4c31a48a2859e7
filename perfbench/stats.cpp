#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

const std::vector<std::string>& stages() {
  static const std::vector<std::string> s = {"certify", "log_write", "validate",
                                             "verify_stream"};
  return s;
}

bool valid_layer_name(const std::string& name) {
  static const std::vector<std::string> modules = {
      "core", "cover", "fault", "graph", "local", "matching",
      "order", "recover", "util", "view"};
  if (!valid_metric_name(name)) return false;
  std::vector<std::string> parts;
  std::stringstream ss(name);
  for (std::string part; std::getline(ss, part, '.');) parts.push_back(part);
  if (std::find(stages().begin(), stages().end(), parts[0]) == stages().end()) {
    return false;
  }
  if (parts.size() == 2) {
    return parts[1] == "unattributed_s" || parts[1] == "trace_overhead_s";
  }
  return parts.size() == 3 && !parts[2].empty() &&
         std::find(modules.begin(), modules.end(), parts[1]) != modules.end();
}

double min_of(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("min of no samples");
  return *std::min_element(v.begin(), v.end());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"certify_s", "s"},
      {"log_write_s", "s"},
      {"validate_s", "s"},
      {"verify_stream_s", "s"},
      {"chains_per_s", "1/s"},
      {"cert_log_mb", "MB"},
      {"certify_peak_rss_mb", "MB"},
      {"validate_peak_rss_mb", "MB"},
      {"verify_stream_peak_rss_mb", "MB"},
      {"setup_s", "s"},
  };
  return m;
}

namespace {

// Time layers: the metric is the span name plus "_s".
const std::vector<std::string> kTimeLayers = {
    "certify.core.base_case",      "certify.core.plan",
    "certify.local.sim",           "certify.core.combine",
    "certify.view.key",            "log_write.core.render",
    "log_write.recover.append",    "validate.cover.loopiness",
    "validate.graph.shape",        "validate.local.sim",
    "validate.view.key",           "verify_stream.recover.walk",
    "verify_stream.core.parse",    "verify_stream.util.checksum",
    "verify_stream.local.sim",     "verify_stream.view.key",
    "verify_stream.cover.loopiness", "verify_stream.graph.shape",
};

// Counters reported per unit as summed.
const std::vector<std::pair<std::string, std::string>> kCountLayers = {
    {"certify.local.rounds", "count"},
    {"certify.local.messages", "count"},
    {"certify.fault.requests", "count"},
    {"certify.fault.replayed", "count"},
    {"certify.fault.respawns", "count"},
    {"certify.fault.incidents", "count"},
    {"certify.fault.ball_table_mb", "MB"},
    {"certify.util.ipc_mb", "MB"},
    {"log_write.recover.fsyncs", "count"},
    {"log_write.recover.mb", "MB"},
};

const char* const kStoreStages[] = {"certify", "validate", "verify_stream"};

bool is_structure(const std::string& span, const std::string& stage) {
  return span == stage || span == stage + ".level" ||
         (stage == "certify" && span == "certify.inprocess");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = [] {
    std::vector<std::pair<std::string, std::string>> out;
    for (const std::string& t : kTimeLayers) out.emplace_back(t + "_s", "s");
    for (const auto& c : kCountLayers) out.push_back(c);
    for (const char* st : kStoreStages) {
      const std::string s = st;
      out.emplace_back(s + ".view.key_queries", "count");
      out.emplace_back(s + ".view.memo_hit_rate", "ratio");
      out.emplace_back(s + ".view.intern_hit_rate", "ratio");
      out.emplace_back(s + ".view.intern_resets", "count");
      out.emplace_back(s + ".view.collisions", "count");
    }
    out.emplace_back("certify.fault.overhead_share", "ratio");
    out.emplace_back("certify.fault.ball_table_ship_share", "ratio");
    out.emplace_back("certify.util.spec_useful_ratio", "ratio");
    out.emplace_back("certify.util.pool_speedup", "x");
    out.emplace_back("validate.util.pool_speedup", "x");
    for (const std::string& s : stages()) {
      out.emplace_back(s + ".unattributed_s", "s");
      out.emplace_back(s + ".trace_overhead_s", "s");
    }
    return out;
  }();
  return m;
}

std::vector<Metric> layer_metrics(
    const std::vector<Span>& spans, const std::map<std::string, double>& sums,
    int traced_units, const std::map<std::string, double>& untraced_stage_s,
    const std::map<std::string, double>& pool_speedup) {
  if (traced_units <= 0) throw std::invalid_argument("no traced units");
  const double units = traced_units;
  const std::map<std::string, double> self = self_time_by_name(spans);
  auto sum = [&](const std::string& key) {
    const auto it = sums.find(key);
    return it == sums.end() ? 0.0 : it->second;
  };
  auto self_of = [&](const std::string& key) {
    const auto it = self.find(key);
    return it == self.end() ? 0.0 : it->second;
  };

  std::map<std::string, double> value;
  for (const std::string& t : kTimeLayers) value[t + "_s"] = self_of(t) / units;
  for (const auto& c : kCountLayers) value[c.first] = sum(c.first) / units;
  for (const char* st : kStoreStages) {
    const std::string s = std::string(st) + ".view.";
    value[s + "key_queries"] = sum(s + "key_queries") / units;
    value[s + "memo_hit_rate"] = ratio(sum(s + "memo_hits"), sum(s + "key_queries"));
    value[s + "intern_hit_rate"] =
        ratio(sum(s + "intern_hits"), sum(s + "intern_lookups"));
    value[s + "intern_resets"] = sum(s + "intern_resets") / units;
    value[s + "collisions"] = sum(s + "collisions") / units;
  }
  const double fleet_s = sum("certify.fault.fleet_s");
  value["certify.fault.overhead_share"] =
      fleet_s > 0 ? 1.0 - sum("certify.fault.inprocess_s") / fleet_s : 0.0;
  value["certify.fault.ball_table_ship_share"] =
      ratio(sum("certify.fault.ball_table_ship_s"), fleet_s);
  value["certify.util.spec_useful_ratio"] =
      ratio(sum("certify.util.useful_edges"), sum("certify.util.planned_edges"));
  value["certify.util.pool_speedup"] = pool_speedup.at("certify");
  value["validate.util.pool_speedup"] = pool_speedup.at("validate");

  std::map<std::string, double> stage_total;
  for (const Span& s : spans) {
    if (s.parent < 0) stage_total[s.name] += s.end - s.start;
  }
  for (const std::string& stage : stages()) {
    double residual = 0;
    for (const auto& [name, t] : self) {
      if (is_structure(name, stage)) residual += t;
    }
    value[stage + ".unattributed_s"] = residual / units;
    value[stage + ".trace_overhead_s"] =
        stage_total[stage] / units - untraced_stage_s.at(stage);
  }

  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_metrics()) {
    out.push_back({name, value.at(name), unit});
  }
  return out;
}

std::string result_json(bool correct, long long attempted, long long failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("metric " + m.name + " is not finite");
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", m.value);
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
