// Benchmark driver: runs one workload for a given time and prints its
// metrics. Built and invoked by run.py:
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --work-dir <dir>
//
// A run first sets up several times (setup_s is the median), then runs
// whole units of the workload — one pass over its jobs, every job one
// chain through certify, log write, full validation and streaming verify —
// until the time is up, and at least once. With --trace 0 it prints the
// end-to-end metrics; each stage's figure is its minimum over the run's
// units (min-of-N; the median, 90th percentile and sample count are
// printed on the lines before). With --trace 1 it alternates untraced and
// traced units and prints the per-layer metrics; on the in-process
// workloads each traced unit also runs certify and validate once on a
// 2-thread pool, for the pool speedup. Chains that fail a check
// are counted against the attempted ones and their timings dropped. The
// last line is one JSON object.
#include <sched.h>
#include <sys/statfs.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <linux/magic.h>

#include "bench.hpp"
#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/util/thread_pool.hpp"
#include "ldlb/view/isomorphism.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

// Set-up repeats per run; setup_s is their median.
constexpr int kSetupRepeats = 7;
// Size of the warm-up chain each set-up runs per algorithm.
constexpr int kWarmUpDelta = 10;
// Every stage of a unit should take at least this long.
constexpr double kMinSampleSeconds = 0.1;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         !a.work_dir.empty();
}

std::string fs_type(const std::string& dir) {
  struct statfs st{};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (st.f_type) {
    case TMPFS_MAGIC:
      return "tmpfs";
    case EXT4_SUPER_MAGIC:
      return "ext4";
    case OVERLAYFS_SUPER_MAGIC:
      return "overlayfs";
    case XFS_SUPER_MAGIC:
      return "xfs";
    case BTRFS_SUPER_MAGIC:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

// Restricts the calling thread, and every thread and process it starts
// afterwards, to the `count` highest-numbered CPUs of `allowed`. One pinned
// CPU keeps the measured process from migrating between cores (and losing
// its caches), and keeps the fleet's pipe traffic on one core.
void pin_to_cpus(const cpu_set_t& allowed, int count) {
  cpu_set_t pick;
  CPU_ZERO(&pick);
  int picked = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && picked < count; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pick);
      ++picked;
    }
  }
  if (picked == 0 || sched_setaffinity(0, sizeof pick, &pick) != 0) {
    throw std::runtime_error("cannot pin the benchmark to a CPU");
  }
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Everything before the first timed stage: a clean log directory, the pool,
// the algorithm instances, one warm-up chain per algorithm (so lazy first
// use is not charged to the first unit), and the fleet's in-process
// reference bytes.
void set_up(const Workload& w, Context& ctx) {
  std::filesystem::remove_all(ctx.work_dir);
  std::filesystem::create_directories(ctx.work_dir);
  ldlb::ThreadPool::set_global_threads(1);
  ctx.subjects = make_subjects(w);
  std::set<std::string> warmed;
  for (const Job& job : w.jobs) {
    if (!warmed.insert(job.kind).second) continue;
    Subject warm = make_subject(job.kind, kWarmUpDelta);
    ldlb::clear_ball_encoding_cache();
    const ldlb::LowerBoundCertificate c =
        ldlb::run_adversary(*warm.alg, kWarmUpDelta);
    if (!ldlb::certificate_is_valid(c, *warm.alg, true)) {
      throw std::runtime_error("warm-up chain failed validation");
    }
  }
  ctx.fleet_reference.clear();
  if (w.fleet_workers > 0) {
    ldlb::AdversaryOptions opts;
    opts.max_rounds = w.max_rounds;
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
      ctx.fleet_reference[w.jobs[j].delta] = ldlb::certificate_to_string(
          ldlb::run_adversary(*ctx.subjects[j].alg, w.jobs[j].delta, opts));
    }
  }
}

void print_samples(const std::string& name, const std::vector<double>& v) {
  std::printf("# %s samples=%zu min=%.6f median=%.6f p90=%.6f\n", name.c_str(),
              v.size(), min_of(v), median(v), quantile(v, 0.9));
}

int run(const Args& args) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("cannot read the CPU affinity");
  }
  pin_to_cpus(allowed, 1);
  const Workload w = make_workload(args.workload, args.seed);
  Context ctx;
  ctx.workload = &w;
  ctx.work_dir = args.work_dir;
  ctx.keep_cert_text = args.trace;

  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    set_up(w, ctx);
    setup.push_back(now_s() - t0);
  }

  std::cout << "# workload=" << w.name << " seed=" << args.seed
            << " threads=1 cpus=1 workers=" << w.fleet_workers
            << " transport=" << (w.fleet_workers > 0 ? "pipe" : "in-process")
            << " jobs=" << w.jobs.size() << " log_fs=" << fs_type(ctx.work_dir)
            << " trace=" << (args.trace ? 1 : 0) << "\n";
  std::cout << "# job order:";
  for (const Job& j : w.jobs) std::cout << " " << j.kind << "/" << j.delta;
  std::cout << "\n";

  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, std::vector<double>> stage_samples;
  std::map<std::string, std::vector<double>> rss_samples;
  double log_mb = 0;
  Tracer tracer;
  std::map<std::string, double> sums;
  int traced_units = 0;
  // Every workload runs on 1 thread; the traced units also run certify and
  // validate on 2, for the pool speedup.
  std::map<std::string, double> two_thread_s;
  int chain_id = 0;

  const double deadline = now_s() + args.seconds;
  int unit = 0;
  do {
    const UnitResult u = run_unit(ctx);
    attempted += u.attempted;
    failed += static_cast<long long>(u.failures.size());
    for (const std::string& f : u.failures) {
      std::cout << "# unit " << unit << " chain " << f << " FAILED\n";
    }
    if (u.timed) {
      for (const auto& [stage, s] : u.stage_s) {
        stage_samples[stage].push_back(s);
        if (u.sample_s.at(stage) < kMinSampleSeconds) {
          std::cout << "# note: " << stage << " sample " << u.sample_s.at(stage)
                    << " s is under " << kMinSampleSeconds << " s\n";
        }
      }
      for (const auto& [stage, mb] : u.rss_mb) rss_samples[stage].push_back(mb);
      log_mb = u.log_mb;
    }
    if (args.trace && u.timed) {
      for (std::size_t j = 0; j < w.jobs.size(); ++j) {
        ++attempted;
        const TracedChain tc =
            trace_chain(ctx, j, chain_id++, u.cert_texts[j], tracer);
        for (const auto& [k, v] : tc.sums) sums[k] += v;
        if (!tc.failed.empty()) {
          ++failed;
          std::cout << "# traced chain " << w.jobs[j].kind << " d=" << w.jobs[j].delta
                    << " FAILED:";
          for (const std::string& f : tc.failed) std::cout << " " << f;
          std::cout << "\n";
        }
      }
      ++traced_units;
      if (w.fleet_workers == 0) {
        pin_to_cpus(allowed, 2);  // before the pool's workers are spawned
        ldlb::ThreadPool::set_global_threads(2);
        for (std::size_t j = 0; j < w.jobs.size(); ++j) {
          ++attempted;
          ldlb::EcAlgorithm& alg = *ctx.subjects[j].alg;
          ldlb::AdversaryOptions opts;
          opts.max_rounds = w.max_rounds;
          ldlb::clear_ball_encoding_cache();
          double t0 = now_s();
          const ldlb::LowerBoundCertificate c =
              ldlb::run_adversary(alg, w.jobs[j].delta, opts);
          two_thread_s["certify"] += now_s() - t0;
          ldlb::clear_ball_encoding_cache();
          t0 = now_s();
          if (!ldlb::certificate_is_valid(c, alg, true)) ++failed;
          two_thread_s["validate"] += now_s() - t0;
        }
        ldlb::ThreadPool::set_global_threads(1);
        pin_to_cpus(allowed, 1);
      }
    }
    ++unit;
  } while (now_s() < deadline);

  std::vector<Metric> metrics;
  const bool correct = failed == 0 && !stage_samples.empty();
  if (!stage_samples.empty()) {
    std::map<std::string, double> best;
    std::map<std::string, double> mean;
    for (const auto& [stage, v] : stage_samples) {
      print_samples(stage + "_s", v);
      best[stage] = min_of(v);
      double total = 0;
      for (double x : v) total += x;
      mean[stage] = total / static_cast<double>(v.size());
    }
    print_samples("setup_s", setup);
    if (!args.trace) {
      const double pipeline = best["certify"] + best["log_write"] +
                              best["validate"] + best["verify_stream"];
      std::map<std::string, double> value = {
          {"certify_s", best["certify"]},
          {"log_write_s", best["log_write"]},
          {"validate_s", best["validate"]},
          {"verify_stream_s", best["verify_stream"]},
          {"chains_per_s", static_cast<double>(w.jobs.size()) / pipeline},
          {"cert_log_mb", log_mb},
          {"certify_peak_rss_mb", median(rss_samples["certify"])},
          {"validate_peak_rss_mb", median(rss_samples["validate"])},
          {"verify_stream_peak_rss_mb", median(rss_samples["verify_stream"])},
          {"setup_s", median(setup)},
      };
      for (const auto& [name, unit_name] : end_to_end_metrics()) {
        metrics.push_back({name, value.at(name), unit_name});
      }
    } else if (traced_units > 0) {
      std::map<std::string, double> speedup = {{"certify", 1.0}, {"validate", 1.0}};
      if (w.fleet_workers == 0) {
        for (auto& [stage, x] : speedup) {
          x = mean[stage] / (two_thread_s[stage] / traced_units);
        }
      }
      metrics = layer_metrics(tracer.spans(), sums, traced_units, mean, speedup);
      const std::string spans_path = ctx.work_dir + "/spans.jsonl";
      std::ofstream spans_out{spans_path};
      tracer.write_jsonl(spans_out);
      std::cout << "# spans: " << spans_path << " (" << tracer.spans().size()
                << " spans, " << traced_units << " traced units)\n";
    }
  }
  std::cout << result_json(correct && !metrics.empty(), attempted, failed, metrics)
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir>\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
