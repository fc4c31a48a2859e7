// Theorem 1 + §1.3 — the headline reproduction.
//
// Paper claim: maximal fractional matching needs Ω(Δ) rounds in the LOCAL
// model, and the O(Δ)-round upper bound [3] is therefore optimal.
//
// Reproduction: for each Δ, run the Section-4 adversary against the
// O(Δ)-round EC algorithms and report (a) the certified locality radius —
// provably Δ-2, i.e. *linear in Δ* — against (b) the measured round count
// of the upper-bound algorithms. The two series bracket the true complexity
// from below and above with a gap of only a constant factor: the "shape"
// of Theorem 1.
#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>

#include "bench_util.hpp"
#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate.hpp"
#include "ldlb/fault/fleet.hpp"
#include "ldlb/graph/generators.hpp"
#include "ldlb/local/simulator.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/util/rng.hpp"
#include "ldlb/util/thread_pool.hpp"

namespace {

using namespace ldlb;

long peak_rss_kb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Optional pre-change reference timings, "delta:ms,delta:ms,...", recorded
// into the telemetry so regressions/speedups are visible next to the
// current numbers. scripts/bench.sh sets this to the timings measured on
// the commit before the parallel/fast-path work landed.
std::map<int, double> parse_baseline_env() {
  std::map<int, double> out;
  const char* s = std::getenv("LDLB_BENCH_BASELINE");
  if (s == nullptr) return out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    auto colon = item.find(':');
    if (colon == std::string::npos) continue;
    try {
      out[std::stoi(item.substr(0, colon))] = std::stod(item.substr(colon + 1));
    } catch (...) {
      // Malformed entries are skipped; telemetry just omits the baseline.
    }
  }
  return out;
}

int measured_rounds_on_loopy_graphs(EcAlgorithm& alg, int delta) {
  // Round count on the adversary's own graph family (loopy trees).
  Rng rng{2024};
  int rounds = 0;
  for (int trial = 0; trial < 3; ++trial) {
    Multigraph g = make_loopy_tree(6, delta, rng);
    rounds = std::max(rounds, run_ec(g, alg, 16 * delta + 16).rounds);
  }
  return rounds;
}

// One engine configuration to sweep: `threads` is the global pool size
// (1 = serial, 0 = hardware default; more than one thread speeds up
// validation only — adversary runs stay on the calling thread), `workers`
// the fleet process count (0 = in-process run_adversary; >0 =
// run_adversary_fleet over forked pipe workers, whose output is
// byte-identical but whose wall time includes the IPC round-trips).
struct SweepConfig {
  int threads = 1;
  int workers = 0;
  bool print_table = false;
};

void sweep(bench::JsonWriter& json, const SweepConfig& config,
           const std::map<int, double>& baseline) {
  ThreadPool::set_global_threads(config.threads);
  const std::string log_path =
      (std::filesystem::temp_directory_path() /
       ("ldlb_bench_" + std::to_string(::getpid()) + ".ldcl"))
          .string();

  bench::Table table{{"delta", "lower>=(adv)", "SeqColor", "TwoPhase",
                      "upper/lower"}};
  if (config.print_table) table.print_header();

  // In-process configs sweep to Δ = 20 (final graphs ~2^18 nodes); fleet
  // configs stop at 12 — beyond that the measurement is dominated by
  // shipping multi-megabyte graphs over the IPC channel, not by the
  // adversary under test.
  const int max_delta = config.workers == 0 ? 20 : 12;

  json.begin_object()
      .key("threads").value(global_pool().size())
      .key("workers").value(config.workers)
      .key("transport").value(config.workers == 0 ? "in-process" : "pipe")
      .key("runs").begin_array();
  for (int delta = 3; delta <= max_delta; ++delta) {
    SeqColorPacking seq{delta};
    TwoPhasePacking two{delta};
    const AlgorithmFactory factory = [delta]() {
      return std::make_unique<SeqColorPacking>(delta);
    };
    // Min over a few repetitions: single-shot wall times on shared CI
    // machines jitter by 10-20%, enough to blur a 2x comparison. Past
    // Δ = 14 a single repetition keeps the sweep bounded; at that size the
    // run is long enough that scheduler jitter no longer dominates.
    const int reps = delta <= 14 ? 3 : 1;
    double adversary_ms = 0.0;
    double validate_ms = 0.0;
    bool valid = false;
    LowerBoundCertificate cert;
    for (int rep = 0; rep < reps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      if (config.workers > 0) {
        CertificateLog log{log_path};
        log.remove();  // a fresh chain every rep, never a resume
        FleetOptions options;
        options.workers = config.workers;
        cert = run_adversary_fleet(factory, delta, log, options);
        log.remove();
      } else {
        cert = run_adversary(seq, delta);
      }
      const double a = elapsed_ms(t0);
      t0 = std::chrono::steady_clock::now();
      valid = certificate_is_valid(cert, seq, /*check_loopiness=*/false);
      const double v = elapsed_ms(t0);
      if (rep == 0 || a < adversary_ms) adversary_ms = a;
      if (rep == 0 || v < validate_ms) validate_ms = v;
    }
    int lower = cert.certified_radius() + 1;  // needs > Δ-2, i.e. >= Δ-1
    int seq_rounds = measured_rounds_on_loopy_graphs(seq, delta);
    int two_rounds = measured_rounds_on_loopy_graphs(two, delta);
    if (config.print_table) {
      table.print_row(delta, lower, seq_rounds, two_rounds,
                      static_cast<double>(seq_rounds) / lower);
    }
    json.begin_object()
        .key("delta").value(delta)
        .key("adversary_ms").value(adversary_ms)
        .key("validate_ms").value(validate_ms)
        .key("valid").value(valid)
        .key("certified_radius").value(cert.certified_radius())
        .key("levels").value(static_cast<int>(cert.levels.size()))
        .key("final_nodes").value(cert.levels.back().g.node_count())
        .key("final_edges").value(cert.levels.back().g.edge_count())
        .key("seq_color_rounds").value(seq_rounds)
        .key("two_phase_rounds").value(two_rounds);
    // Durability telemetry: the append-only streaming-log footprint of this
    // chain (recover/cert_log.hpp), and the process peak RSS after the
    // fully-resident validation pass — the quantity the streaming validator
    // exists to undercut (see docs/ROBUSTNESS.md).
    json.key("cert_log_bytes")
        .value(static_cast<long long>(CertificateLog::serialize(cert).size()))
        .key("validate_peak_rss_kb")
        .value(static_cast<long long>(peak_rss_kb()));
    if (auto it = baseline.find(delta); it != baseline.end()) {
      json.key("baseline_adversary_ms").value(it->second);
      if (adversary_ms > 0) {
        json.key("speedup_vs_baseline").value(it->second / adversary_ms);
      }
    }
    json.end_object();
  }
  json.end_array().end_object();
}

void report() {
  bench::section(
      "Theorem 1: certified lower bound vs measured upper bound (rounds)");
  const std::map<int, double> baseline = parse_baseline_env();

  // Serial reference (prints the reproduction table), the hardware-wide
  // pool (per-level parallel validation), and the coordinator/worker fleet
  // at two sizes — all producing byte-identical certificates, so the
  // telemetry compares pure engine overheads/speedups on one axis per
  // config.
  const SweepConfig configs[] = {
      {/*threads=*/1, /*workers=*/0, /*print_table=*/true},
      {/*threads=*/0, /*workers=*/0, /*print_table=*/false},  // hw threads
      {/*threads=*/1, /*workers=*/2, /*print_table=*/false},
      {/*threads=*/1, /*workers=*/4, /*print_table=*/false},
  };
  bench::JsonWriter json;
  json.begin_object()
      .key("bench").value("adversary")
      .key("configs").begin_array();
  for (const SweepConfig& config : configs) sweep(json, config, baseline);
  json.end_array().end_object();
  json.write_file("BENCH_adversary.json");
  ThreadPool::set_global_threads(0);
  std::cout << "\nShape check: the certified radius grows linearly in delta\n"
               "(Δ-2), matching the O(Δ) upper bounds up to a constant —\n"
               "no o(Δ) algorithm exists (Theorem 1).\n";
}

void BM_AdversaryFullChain(benchmark::State& state) {
  const int delta = static_cast<int>(state.range(0));
  SeqColorPacking alg{delta};
  for (auto _ : state) {
    LowerBoundCertificate cert = run_adversary(alg, delta);
    benchmark::DoNotOptimize(cert.levels.size());
  }
  state.counters["levels"] = delta - 1;
  state.counters["final_nodes"] = static_cast<double>(1ll << (delta - 2));
}
BENCHMARK(BM_AdversaryFullChain)->DenseRange(3, 12, 1)
    ->DenseRange(14, 20, 2)
    ->Unit(benchmark::kMillisecond);

void BM_UpperBoundRun(benchmark::State& state) {
  const int delta = static_cast<int>(state.range(0));
  SeqColorPacking alg{delta};
  Rng rng{7};
  Multigraph g = make_loopy_tree(32, delta, rng);
  for (auto _ : state) {
    RunResult r = run_ec(g, alg, delta + 1);
    benchmark::DoNotOptimize(r.rounds);
  }
  state.counters["rounds"] = delta;
}
BENCHMARK(BM_UpperBoundRun)->DenseRange(4, 16, 2)
    ->Unit(benchmark::kMicrosecond);

void BM_CertificateValidation(benchmark::State& state) {
  const int delta = static_cast<int>(state.range(0));
  SeqColorPacking alg{delta};
  LowerBoundCertificate cert = run_adversary(alg, delta);
  for (auto _ : state) {
    bool ok = certificate_is_valid(cert, alg, /*check_loopiness=*/false);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_CertificateValidation)->DenseRange(3, 9, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

LDLB_BENCH_MAIN(report)
