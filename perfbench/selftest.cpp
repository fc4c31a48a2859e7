// Tests of the benchmark's own logic: metric naming, aggregation, span
// self times, and the correctness gate — a tampered certificate or a
// truncated log must count as a failed chain whose timings are dropped.
//
//   perfbench_selftest <BENCHMARK.json> <scratch-dir>
//
// Run through `python3 perfbench/run.py --selftest`. Exits non-zero on the
// first failed expectation.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ldlb/util/thread_pool.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

bool contains(const std::vector<std::string>& v, const std::string& s) {
  for (const std::string& x : v) {
    if (x.find(s) != std::string::npos) return true;
  }
  return false;
}

void test_naming(const std::string& benchmark_json) {
  expect(valid_metric_name("certify_s"), "plain name is valid");
  expect(!valid_metric_name("_x"), "name must start with a letter or digit");
  expect(!valid_metric_name("a b"), "name must not hold a space");
  expect(!valid_metric_name(std::string(65, 'a')), "name is at most 64 long");
  expect(valid_layer_name("validate.cover.loopiness_s"), "stage.module.what");
  expect(valid_layer_name("certify.unattributed_s"), "stage residual");
  expect(!valid_layer_name("validate.nosuchmodule.x"), "module must exist");
  expect(!valid_layer_name("setup.core.x"), "stage must exist");

  std::ifstream in{benchmark_json};
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  expect(!text.empty(), "BENCHMARK.json readable");
  std::set<std::string> seen;
  auto check = [&](const std::vector<std::pair<std::string, std::string>>& list,
                   bool layer) {
    for (const auto& [name, unit] : list) {
      expect(seen.insert(name).second, "metric used once: " + name);
      expect(valid_metric_name(name), "valid metric name: " + name);
      if (layer) expect(valid_layer_name(name), "valid layer name: " + name);
      const std::string entry =
          "\"name\": \"" + name + "\", \"unit\": \"" + unit + "\"";
      expect(text.find(entry) != std::string::npos,
             "BENCHMARK.json lists " + entry);
    }
  };
  check(end_to_end_metrics(), false);
  check(per_layer_metrics(), true);
}

void test_aggregation() {
  const std::vector<double> v = {4, 1, 3, 2};
  expect(near(min_of(v), 1), "min");
  expect(near(median(v), 2.5), "median interpolates");
  expect(near(quantile(v, 0.9), 3.7), "p90 interpolates");

  // A certify tree: root [0,10] > level [1,9] > plan [1,3], sim [3,6];
  // and a validate root [0,6] with two overlapping (parallel) levels.
  std::vector<Span> spans = {
      {"certify", 0, 10, -1, 0},
      {"certify.level", 1, 9, 0, 0},
      {"certify.core.plan", 1, 3, 1, 0},
      {"certify.local.sim", 3, 6, 1, 0},
      {"validate", 0, 6, -1, 0},
      {"validate.level", 0, 4, 4, 0},
      {"validate.level", 1, 5, 4, 0},
      {"validate.cover.loopiness", 0, 3, 5, 0},
      {"validate.cover.loopiness", 1, 4, 6, 0},
  };
  const std::vector<double> self = self_times(spans);
  expect(near(self[0], 2), "root self time excludes its child");
  expect(near(self[1], 3), "level self time excludes plan and sim");
  expect(near(self[4], 1), "overlapping children are counted once");

  std::map<std::string, double> sums = {
      {"certify.view.key_queries", 8}, {"certify.view.memo_hits", 2},
      {"certify.util.useful_edges", 3}, {"certify.util.planned_edges", 4},
      {"log_write.recover.fsyncs", 4}};
  const std::map<std::string, double> untraced = {
      {"certify", 9}, {"log_write", 0}, {"validate", 5}, {"verify_stream", 0}};
  const std::map<std::string, double> speedup = {{"certify", 1}, {"validate", 1}};
  const std::vector<Metric> m = layer_metrics(spans, sums, 2, untraced, speedup);
  std::map<std::string, double> got;
  for (const Metric& x : m) got[x.name] = x.value;
  expect(m.size() == per_layer_metrics().size(), "every per-layer metric derived");
  expect(near(got["certify.core.plan_s"], 1), "layer time is per unit");
  expect(near(got["certify.local.sim_s"], 1.5), "sim per unit");
  expect(near(got["certify.unattributed_s"], 2.5), "residual = structure self time");
  expect(near(got["certify.trace_overhead_s"], 5 - 9), "overhead = traced - untraced");
  expect(near(got["validate.cover.loopiness_s"], 3), "parallel layer time is busy time");
  expect(near(got["validate.unattributed_s"], 1.5), "validate residual");
  expect(near(got["certify.view.memo_hit_rate"], 0.25), "rate from sums");
  expect(near(got["certify.view.key_queries"], 4), "count per unit");
  expect(near(got["certify.util.spec_useful_ratio"], 0.75), "useful ratio");
  expect(near(got["log_write.recover.fsyncs"], 2), "fsyncs per unit");
  expect(near(got["certify.fault.overhead_share"], 0), "no fleet, no share");

  const std::string json = result_json(true, 3, 1, {{"a_s", 0.125, "s"}});
  expect(json == "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": "
                 "{\"a_s\": {\"value\": 0.125, \"unit\": \"s\"}}}",
         "result line format: " + json);
}

void test_gate_names() {
  GateInput ok;
  ok.delta = 5;
  ok.certified_radius = 3;
  ok.full_validation = ok.stream_ok = ok.stream_chain_complete = true;
  ok.stream_job_matches = ok.log_bytes_match = true;
  expect(failed_checks(ok).empty(), "a good chain passes");
  GateInput bad = ok;
  bad.certified_radius = 2;
  expect(failed_checks(bad) == std::vector<std::string>{"certified_radius"},
         "short chain named");
  bad = ok;
  bad.fleet = true;
  expect(failed_checks(bad) ==
             std::vector<std::string>{"fleet_reference_bytes", "fleet_status"},
         "fleet checks named");
  bad = ok;
  bad.collisions = 1;
  expect(failed_checks(bad) == std::vector<std::string>{"ball_key_collisions"},
         "collisions named");
}

Workload small_workload() {
  Workload w;
  w.name = "selftest";
  w.jobs = {{"seq", 6}};
  return w;
}

void test_good_chain(const std::string& dir) {
  const Workload w = small_workload();
  Context ctx;
  ctx.workload = &w;
  ctx.subjects = make_subjects(w);
  ctx.work_dir = dir;
  const UnitResult u = run_unit(ctx);
  expect(u.attempted == 1 && u.failures.empty() && u.timed, "untouched chain passes");
  expect(u.stage_s.count("validate") == 1 && u.stage_s.at("validate") > 0,
         "a passing chain is timed");
  expect(u.log_mb > 0, "log bytes counted");
}

void test_tampered_certificate(const std::string& dir) {
  const Workload w = small_workload();
  Context ctx;
  ctx.workload = &w;
  ctx.subjects = make_subjects(w);
  ctx.work_dir = dir;
  ChainHooks hooks;
  hooks.after_certify = [](ldlb::LowerBoundCertificate& cert) {
    ldlb::CertificateLevel& lv = cert.levels[2];
    lv.g_weight = lv.h_weight;  // the witnesses no longer disagree
  };
  const UnitResult u = run_unit(ctx, hooks);
  expect(u.attempted == 1 && u.failures.size() == 1, "tampered chain fails");
  expect(contains(u.failures, "full_validation"), "validation names it");
  expect(contains(u.failures, "stream_verdict"), "the stream names it too");
  expect(!u.timed && u.stage_s.empty() && u.rss_mb.empty(),
         "a failed chain is not timed");
}

void test_truncated_log(const std::string& dir) {
  const Workload w = small_workload();
  Context ctx;
  ctx.workload = &w;
  ctx.subjects = make_subjects(w);
  ctx.work_dir = dir;
  ChainHooks hooks;
  hooks.after_log_write = [](const std::string& path) {
    std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  };
  const UnitResult u = run_unit(ctx, hooks);
  expect(u.failures.size() == 1, "truncated log fails the chain");
  expect(contains(u.failures, "stream_verdict"), "stream verdict names it");
  expect(contains(u.failures, "log_bytes"), "log bytes name it");
  expect(!u.timed && u.stage_s.empty(), "a truncated log is not timed");
}

void test_traced_chain_matches(const std::string& dir) {
  const Workload w = small_workload();
  Context ctx;
  ctx.workload = &w;
  ctx.subjects = make_subjects(w);
  ctx.work_dir = dir;
  ctx.keep_cert_text = true;
  const UnitResult u = run_unit(ctx);
  Tracer tr;
  const TracedChain tc = trace_chain(ctx, 0, 0, u.cert_texts.at(0), tr);
  expect(tc.failed.empty(), "traced re-drive is byte-identical and valid");
  const TracedChain bad = trace_chain(ctx, 0, 1, "not the chain", tr);
  expect(contains(bad.failed, "redrive_bytes"), "a differing re-drive is caught");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: perfbench_selftest <BENCHMARK.json> <scratch-dir>\n";
    return 2;
  }
  const std::string dir = argv[2];
  std::filesystem::create_directories(dir);
  ldlb::ThreadPool::set_global_threads(1);
  test_naming(argv[1]);
  test_aggregation();
  test_gate_names();
  test_good_chain(dir);
  test_tampered_certificate(dir);
  test_truncated_log(dir);
  test_traced_chain_matches(dir);
  std::filesystem::remove_all(dir);
  if (g_failures != 0) {
    std::cerr << g_failures << " expectation(s) failed\n";
    return 1;
  }
  std::cout << "perfbench selftest: all expectations hold\n";
  return 0;
}
