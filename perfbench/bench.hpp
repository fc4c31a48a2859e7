// The certify -> log write -> full validation -> streaming verify pipeline
// the benchmark drives, its workloads, its per-chain correctness gate and
// the traced re-drives that attribute each stage's time to library layers.
//
// Everything here calls the library's public API only; no library code is
// changed to measure it. The four stages are the user-visible ones:
//
//   certify        run_adversary (or run_adversary_fleet)
//   log_write      CertificateLog::checkpoint into an empty log
//   validate       certificate_is_valid(cert, alg, check_loopiness = true)
//   verify_stream  validate_certificate_log, check_loopiness = (delta <= 8)
//                  exactly as `certificate_tool verify --stream` sets it
//
// Every stage that derives ball keys starts cold (clear_ball_encoding_cache)
// as a separate certificate_tool process would.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ldlb/core/certificate.hpp"
#include "ldlb/local/algorithm.hpp"
#include "trace.hpp"

namespace perfbench {

// ----------------------------------------------------------------- workloads

/// One chain to build: the algorithm ("seq", "two" or "po", as in
/// certificate_tool) at maximum degree `delta`.
struct Job {
  std::string kind;
  int delta = 0;
};

/// How often a short stage is repeated per chain, so that no timing sample
/// is shorter than ~100 ms. A stage's time is reported per call.
struct Reps {
  int certify = 1;
  int log_write = 1;
  int validate = 1;
  int verify_stream = 1;
};

struct Workload {
  std::string name;
  std::vector<Job> jobs;  ///< one unit of work, in this order
  int fleet_workers = 0;  ///< > 0: certify through run_adversary_fleet (pipes)
  int max_rounds = 0;     ///< AdversaryOptions::max_rounds (0: default)
  Reps reps;
};

/// The named workload. `seed` draws the order of the zoo's jobs; the chain
/// and fleet workloads are the same for every seed (the adversary uses no
/// randomness). Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// An algorithm instance for `kind` (certificate_tool's three subjects).
struct Subject {
  std::unique_ptr<ldlb::EcAlgorithm> alg;
  std::unique_ptr<ldlb::PoAlgorithm> inner;  ///< po's wrapped algorithm
};
Subject make_subject(const std::string& kind, int delta);

/// One algorithm instance per job of `w`, in job order.
std::vector<Subject> make_subjects(const Workload& w);

// ---------------------------------------------------------------- the gate

/// What one chain produced, as the correctness gate sees it.
struct GateInput {
  int delta = 0;
  int certified_radius = -1;
  bool certify_repeats_match = true;  ///< a repeated certify rebuilt the same chain
  bool full_validation = false;      ///< certificate_is_valid(..., true)
  bool stream_ok = false;            ///< CertLogValidation::ok()
  bool stream_chain_complete = false;
  bool stream_job_matches = false;   ///< log header names this delta and algorithm
  bool log_bytes_match = false;      ///< every log written == serialize(cert)
  bool fleet = false;
  bool fleet_reference_match = false;  ///< fleet cert == in-process reference
  bool fleet_status_ok = false;        ///< FleetReport::status == kOk
  std::uint64_t collisions = 0;        ///< ball-key collisions over the chain
};

/// Names of the checks the chain failed; empty when it passed.
std::vector<std::string> failed_checks(const GateInput& in);

// ------------------------------------------------------------ untraced run

/// Test seams: tamper with the certificate after certify, or with the log
/// after it is written, to prove the gate counts the chain as failed.
struct ChainHooks {
  std::function<void(ldlb::LowerBoundCertificate&)> after_certify;
  std::function<void(const std::string& log_path)> after_log_write;
};

struct Context {
  const Workload* workload = nullptr;
  std::vector<Subject> subjects;  ///< make_subjects(*workload), made at set-up
  std::string work_dir;
  /// certificate_to_string of the in-process chain, per fleet job delta.
  std::map<int, std::string> fleet_reference;
  bool keep_cert_text = false;
};

/// One untraced pass over the workload's jobs: a unit of work. The stage
/// figures are sums over the unit's chains and are filled in only when
/// every chain passed, so a failed chain's timings are never reported.
struct UnitResult {
  int attempted = 0;
  std::vector<std::string> failures;  ///< "<kind> d=<delta>: <check> ..."
  bool timed = false;
  std::map<std::string, double> stage_s;   ///< per call, by stage
  std::map<std::string, double> sample_s;  ///< timed, repetitions included
  std::map<std::string, double> rss_mb;    ///< peak over the chains
  double log_mb = 0;
  std::vector<std::string> cert_texts;  ///< when ctx.keep_cert_text
};
UnitResult run_unit(const Context& ctx, const ChainHooks& hooks = {});

// -------------------------------------------------------------- traced run

/// What one traced chain adds up besides its spans: counters keyed by
/// per-layer metric name, plus the numerators and denominators the driver
/// turns into ratios (`<stage>.view.memo_hits`, `certify.util.useful_edges`
/// and the like). Failed checks, byte identity with the untraced chain
/// included, are listed in `failed`.
struct TracedChain {
  std::vector<std::string> failed;
  std::map<std::string, double> sums;
};

/// Re-drives job `j` through the same public calls the four stages make,
/// one span per call, each stage under a root span named after it.
/// `reference_text` is the untraced chain's certificate_to_string, which
/// the re-driven chain must equal byte for byte.
TracedChain trace_chain(const Context& ctx, std::size_t j, int chain_id,
                        const std::string& reference_text, Tracer& tracer);

}  // namespace perfbench
