// Perf-regression gate for CI (scripts/ci.sh).
//
// Measures the min-of-N wall time of the full Δ-adversary chain plus
// certificate validation — simulation, and (P1) by the lockstep ball walk
// (view/isomorphism) — and compares it against a checked-in baseline.
// Exits nonzero when the measured time regresses past the allowed factor,
// so an accidental reintroduction of the exponential isomorphism path
// fails CI in seconds instead of rotting silently.
// Min-of-N because single-shot wall times on shared CI machines jitter
// by 10-20%; the minimum is the stable statistic of a deterministic
// computation.
//
// Usage:
//   ldlb_perf_gate <baseline-file> [--delta N] [--reps N] [--factor F]
//                  [--loopiness] [--stream] [--algorithm seq|two|po]
//   ldlb_perf_gate --measure [--delta N] [--reps N] [--loopiness] [--stream]
//                  [--algorithm seq|two|po]
//
// The baseline file holds one number: the reference min wall time in
// milliseconds (regenerate with --measure on a quiet machine). The gate
// fails when measured > factor * baseline (default factor 2.0).
// --loopiness validates with (P2) on, so the timed chain also covers
// is_k_loopy (cover/loopiness). On the adversary's chains its one-pass loop
// count decides every level, so the factor-graph kernel (cover/factor_graph)
// is not reached; without --loopiness validation checks (P1) and (P3) only.
// --stream times the certificate-log path instead: the chain is built and
// its log written once, untimed, and each rep times
// CertificateLog::serialize plus validate_certificate_log over that log —
// the text codec (render, checksum, parse) and streaming validation, with
// no fsync inside the timed region.
// --algorithm picks the subject, as certificate_tool names them: seq
// (SeqColorPacking, the default), two (TwoPhasePacking) or po
// (EcFromPo(ProposalPacking)). two and po run in closed form
// (EcAlgorithm::evaluate_direct), so the po point guards that path.
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate.hpp"
#include "ldlb/core/sim_ec_po.hpp"
#include "ldlb/matching/proposal_packing.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/util/atomic_file.hpp"

namespace {

// The algorithm under test; `inner` owns the PO algorithm behind po.
struct Subject {
  std::unique_ptr<ldlb::EcAlgorithm> alg;
  std::unique_ptr<ldlb::PoAlgorithm> inner;
};

// Null `alg` for an unknown name.
Subject make_subject(const std::string& kind, int delta) {
  Subject s;
  if (kind == "seq") {
    s.alg = std::make_unique<ldlb::SeqColorPacking>(delta);
  } else if (kind == "two") {
    s.alg = std::make_unique<ldlb::TwoPhasePacking>(delta);
  } else if (kind == "po") {
    s.inner = std::make_unique<ldlb::ProposalPacking>();
    s.alg = std::make_unique<ldlb::EcFromPo>(*s.inner);
  }
  return s;
}

double run_once_ms(ldlb::EcAlgorithm& alg, int delta, bool check_loopiness) {
  const auto t0 = std::chrono::steady_clock::now();
  ldlb::LowerBoundCertificate cert = ldlb::run_adversary(alg, delta);
  const bool valid =
      ldlb::certificate_is_valid(cert, alg, check_loopiness);
  const auto t1 = std::chrono::steady_clock::now();
  if (!valid || cert.certified_radius() != delta - 2) {
    std::cerr << "perf gate: delta " << delta
              << " certificate invalid — timing is meaningless\n";
    std::exit(2);
  }
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::milli>>(t1 - t0)
      .count();
}

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Min-of-`reps` wall time of render + streaming verify of the delta chain.
double stream_best_ms(ldlb::EcAlgorithm& alg, int delta, int reps,
                      bool check_loopiness) {
  const ldlb::LowerBoundCertificate cert = ldlb::run_adversary(alg, delta);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ldlb_perf_gate_" + std::to_string(::getpid()) + ".log"))
          .string();
  ldlb::CertificateLog log{path};
  log.checkpoint(cert);
  double best = 0.0;
  bool ok = true;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::string text = ldlb::CertificateLog::serialize(cert);
    const ldlb::CertLogValidation v =
        ldlb::validate_certificate_log(path, alg, check_loopiness);
    const double ms = elapsed_ms(t0);
    ok = ok && v.ok() && v.delta == delta && text == ldlb::read_file(path);
    if (rep == 0 || ms < best) best = ms;
  }
  log.remove();
  if (!ok) {
    std::cerr << "perf gate: delta " << delta
              << " certificate log did not verify — timing is meaningless\n";
    std::exit(2);
  }
  return best;
}

int usage() {
  std::cerr << "usage: ldlb_perf_gate <baseline-file> [--delta N] [--reps N]"
               " [--factor F] [--loopiness] [--stream]"
               " [--algorithm seq|two|po]\n"
               "       ldlb_perf_gate --measure [--delta N] [--reps N]"
               " [--loopiness] [--stream] [--algorithm seq|two|po]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_file;
  bool measure = false;
  int delta = 12;
  int reps = 3;
  double factor = 2.0;
  bool check_loopiness = false;
  bool stream = false;
  std::string algorithm = "seq";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--measure") {
      measure = true;
    } else if (arg == "--stream") {
      stream = true;
    } else if (arg == "--loopiness") {
      check_loopiness = true;
    } else if (arg == "--delta" && i + 1 < argc) {
      delta = std::atoi(argv[++i]);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--factor" && i + 1 < argc) {
      factor = std::atof(argv[++i]);
    } else if (arg == "--algorithm" && i + 1 < argc) {
      algorithm = argv[++i];
    } else if (baseline_file.empty() && arg[0] != '-') {
      baseline_file = arg;
    } else {
      return usage();
    }
  }
  if (delta < 3 || reps < 1 || factor <= 0) return usage();
  if (!measure && baseline_file.empty()) return usage();
  Subject subject = make_subject(algorithm, delta);
  if (!subject.alg) return usage();

  double best = 0.0;
  if (stream) {
    best = stream_best_ms(*subject.alg, delta, reps, check_loopiness);
  } else {
    for (int rep = 0; rep < reps; ++rep) {
      const double ms = run_once_ms(*subject.alg, delta, check_loopiness);
      if (rep == 0 || ms < best) best = ms;
    }
  }

  if (measure) {
    std::cout << best << "\n";
    return 0;
  }

  std::ifstream in(baseline_file);
  double baseline = 0.0;
  if (!(in >> baseline) || baseline <= 0) {
    std::cerr << "perf gate: cannot read baseline from " << baseline_file
              << "\n";
    return 2;
  }
  std::cout << "perf gate: " << algorithm << " delta " << delta
            << (stream ? " log render+stream verify" : " adversary+validate")
            << (check_loopiness ? " (P2 on)" : "") << " min-of-" << reps
            << " = " << best << " ms (baseline " << baseline
            << " ms, tolerance " << factor << "x)\n";
  if (best > factor * baseline) {
    std::cerr << "perf gate: REGRESSION — " << best << " ms exceeds "
              << factor << " x " << baseline << " ms; the "
              << (stream                ? "text codec's"
                  : algorithm != "seq"  ? "closed-form evaluator's"
                  : check_loopiness     ? "(P2) loop count's"
                                        : "adversary and (P1) walk's")
              << " speedup has been lost (see docs/PERFORMANCE.md)\n";
    return 1;
  }
  return 0;
}
