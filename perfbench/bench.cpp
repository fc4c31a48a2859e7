#include "bench.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/base_case.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/core/sim_ec_po.hpp"
#include "ldlb/cover/loopiness.hpp"
#include "ldlb/fault/fleet.hpp"
#include "ldlb/graph/graph_io.hpp"
#include "ldlb/local/simulator.hpp"
#include "ldlb/matching/proposal_packing.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/checksum.hpp"
#include "ldlb/util/line_reader.hpp"
#include "ldlb/view/ball_store.hpp"
#include "ldlb/view/isomorphism.hpp"

namespace perfbench {

using namespace ldlb;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr double kMB = 1e6;

// The zoo: certificate_tool's three subjects at every delta from 6 to 11.
constexpr int kZooMinDelta = 6;
constexpr int kZooMaxDelta = 11;

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "chain-d14") {
    w.jobs = {{"seq", 14}};
    // Per chain: certify ~25 ms, log write ~45 ms, validation ~130 ms,
    // stream ~95 ms.
    w.reps = {5, 3, 1, 2};
  } else if (name == "fleet-d13") {
    w.jobs = {{"seq", 13}};
    w.fleet_workers = 2;
    // Per chain: log write ~20 ms, validation ~50 ms, stream ~40 ms.
    w.reps = {1, 7, 3, 4};
  } else if (name == "zoo") {
    for (const char* kind : {"seq", "two", "po"}) {
      for (int d = kZooMinDelta; d <= kZooMaxDelta; ++d) w.jobs.push_back({kind, d});
    }
    std::mt19937_64 rng{seed};
    std::shuffle(w.jobs.begin(), w.jobs.end(), rng);
    // certificate_tool generate's AdversaryOptions.
    w.max_rounds = 40000;
    // One pass writes ~40 ms of logs in all.
    w.reps = {1, 3, 1, 1};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

Subject make_subject(const std::string& kind, int delta) {
  Subject s;
  if (kind == "seq") {
    s.alg = std::make_unique<SeqColorPacking>(delta);
  } else if (kind == "two") {
    s.alg = std::make_unique<TwoPhasePacking>(delta);
  } else if (kind == "po") {
    auto po = std::make_unique<ProposalPacking>();
    s.alg = std::make_unique<EcFromPo>(*po);
    s.inner = std::move(po);
  } else {
    throw std::invalid_argument("unknown algorithm '" + kind + "'");
  }
  return s;
}

std::vector<Subject> make_subjects(const Workload& w) {
  std::vector<Subject> out;
  for (const Job& job : w.jobs) out.push_back(make_subject(job.kind, job.delta));
  return out;
}

std::vector<std::string> failed_checks(const GateInput& in) {
  std::vector<std::string> out;
  if (in.certified_radius != in.delta - 2) out.emplace_back("certified_radius");
  if (!in.certify_repeats_match) out.emplace_back("certify_repeat_bytes");
  if (!in.full_validation) out.emplace_back("full_validation");
  if (!in.stream_ok || !in.stream_chain_complete || !in.stream_job_matches) {
    out.emplace_back("stream_verdict");
  }
  if (!in.log_bytes_match) out.emplace_back("log_bytes");
  if (in.fleet && !in.fleet_reference_match) {
    out.emplace_back("fleet_reference_bytes");
  }
  if (in.fleet && !in.fleet_status_ok) out.emplace_back("fleet_status");
  if (in.collisions != 0) out.emplace_back("ball_key_collisions");
  return out;
}

namespace {

/// Per-chain outcome of one pass through the four stages. Stage times are
/// per call (a repeated stage reports its mean), and are meaningful only
/// when `failed` is empty.
struct ChainResult {
  std::vector<std::string> failed;
  double certify_s = 0;
  double log_write_s = 0;
  double validate_s = 0;
  double verify_stream_s = 0;
  /// Sum over repetitions of each stage (the timing sample).
  double certify_total_s = 0;
  double log_write_total_s = 0;
  double validate_total_s = 0;
  double verify_stream_total_s = 0;
  double certify_rss_mb = 0;
  double validate_rss_mb = 0;
  double verify_stream_rss_mb = 0;
  double log_mb = 0;
  std::string cert_text;  ///< certificate_to_string, when requested
  // FleetReport fields (fleet workloads only).
  double fleet_requests = 0;
  double fleet_replayed = 0;
  double fleet_respawns = 0;
  double fleet_incidents = 0;
  double fleet_ball_table_mb = 0;
  double fleet_ball_table_ship_s = 0;
};

// Peak RSS of one stage: reset_peak_rss() returns freed heap to the OS and
// resets the kernel's high-water mark, so the next peak_rss_mb() reading
// covers only what ran in between.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream refs{"/proc/self/clear_refs"};
  refs << "5";
  refs.flush();
  if (!refs) throw std::runtime_error("cannot reset peak RSS via /proc/self/clear_refs");
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / kMB;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string log_path(const Context& ctx, const Job& job, const char* tag) {
  return ctx.work_dir + "/" + job.kind + "-d" + std::to_string(job.delta) +
         "-" + tag + ".log";
}

AdversaryOptions adversary_options(const Workload& w) {
  AdversaryOptions o;
  o.max_rounds = w.max_rounds;
  return o;
}

bool stream_check_loopiness(int delta) { return delta <= 8; }

// Timed CertificateLog::checkpoint into an empty log.
double timed_checkpoint(const std::string& path,
                        const LowerBoundCertificate& cert) {
  CertificateLog log{path};
  log.remove();
  const double t0 = now_s();
  log.checkpoint(cert);
  return now_s() - t0;
}

LowerBoundCertificate certify_untraced(const Context& ctx, const Job& job,
                                       EcAlgorithm& alg, ChainResult& r,
                                       bool& fleet_status_ok) {
  const Workload& w = *ctx.workload;
  const AdversaryOptions opts = adversary_options(w);
  if (w.fleet_workers == 0) {
    return run_adversary(alg, job.delta, opts);
  }
  CertificateLog store{log_path(ctx, job, "fleet")};
  store.remove();
  FleetOptions fo;
  fo.workers = w.fleet_workers;
  fo.adversary = opts;
  FleetReport report;
  const std::string kind = job.kind;
  const int delta = job.delta;
  LowerBoundCertificate cert = run_adversary_fleet(
      [kind, delta]() -> std::unique_ptr<EcAlgorithm> {
        Subject s = make_subject(kind, delta);
        if (s.inner) {
          throw std::invalid_argument("the fleet takes self-contained algorithms");
        }
        return std::move(s.alg);
      },
      delta, store, fo, &report);
  fleet_status_ok = report.status == RunStatus::kOk;
  r.fleet_requests = report.requests_sent;
  r.fleet_replayed = report.requests_replayed;
  r.fleet_respawns = report.respawns;
  r.fleet_incidents = static_cast<double>(report.incidents.size());
  r.fleet_ball_table_mb = static_cast<double>(report.ball_table_bytes) / kMB;
  r.fleet_ball_table_ship_s = report.ball_table_ship_ms / 1000.0;
  return cert;
}

// Runs job `j` of the workload through all four stages (untraced) and
// gates the result. Exceptions from the library count as a failed check,
// not a crash.
ChainResult run_chain(const Context& ctx, std::size_t j,
                      const ChainHooks& hooks) {
  const Workload& w = *ctx.workload;
  const Job& job = w.jobs.at(j);
  ChainResult r;
  GateInput gate;
  gate.delta = job.delta;
  gate.fleet = w.fleet_workers > 0;
  const std::uint64_t collisions0 = ball_store_stats().collisions;
  try {
    EcAlgorithm& alg = *ctx.subjects.at(j).alg;

    // certify; a repeated certify must rebuild the same chain.
    LowerBoundCertificate cert;
    std::string first_text;
    double t0 = 0;
    for (int i = 0; i < w.reps.certify; ++i) {
      clear_ball_encoding_cache();
      reset_peak_rss();
      t0 = now_s();
      cert = certify_untraced(ctx, job, alg, r, gate.fleet_status_ok);
      r.certify_total_s += now_s() - t0;
      r.certify_rss_mb = std::max(r.certify_rss_mb, peak_rss_mb());
      if (w.reps.certify > 1) {
        std::string text = certificate_to_string(cert);
        if (i == 0) {
          first_text = std::move(text);
        } else {
          gate.certify_repeats_match = gate.certify_repeats_match && text == first_text;
        }
      }
    }
    r.certify_s = r.certify_total_s / w.reps.certify;
    if (hooks.after_certify) hooks.after_certify(cert);
    gate.certified_radius = cert.certified_radius();

    // log write
    const std::string path = log_path(ctx, job, "chain");
    for (int i = 0; i < w.reps.log_write; ++i) {
      r.log_write_total_s += timed_checkpoint(path, cert);
    }
    r.log_write_s = r.log_write_total_s / w.reps.log_write;
    if (hooks.after_log_write) hooks.after_log_write(path);

    // full validation, P1 and P2
    bool valid = true;
    for (int i = 0; i < w.reps.validate; ++i) {
      clear_ball_encoding_cache();
      reset_peak_rss();
      t0 = now_s();
      valid = certificate_is_valid(cert, alg, /*check_loopiness=*/true) && valid;
      r.validate_total_s += now_s() - t0;
      r.validate_rss_mb = std::max(r.validate_rss_mb, peak_rss_mb());
    }
    r.validate_s = r.validate_total_s / w.reps.validate;
    gate.full_validation = valid;

    // Untimed checks that need the certificate resident.
    // The fleet checkpointed its own log inside certify; verify that one.
    const std::string stream_path =
        gate.fleet ? log_path(ctx, job, "fleet") : path;
    {
      const std::string expected = CertificateLog::serialize(cert);
      const std::string written = slurp(path);
      r.log_mb = static_cast<double>(written.size()) / kMB;
      gate.log_bytes_match = written == expected &&
                             (!gate.fleet || slurp(stream_path) == expected);
    }
    if (gate.fleet) {
      const auto ref = ctx.fleet_reference.find(job.delta);
      gate.fleet_reference_match = ref != ctx.fleet_reference.end() &&
                                   certificate_to_string(cert) == ref->second;
    }
    if (ctx.keep_cert_text) r.cert_text = certificate_to_string(cert);
    const std::string algorithm_name = alg.name();

    // verify_stream stands for a separate process: no certificate resident.
    cert = LowerBoundCertificate{};
    bool stream_ok = true;
    for (int i = 0; i < w.reps.verify_stream; ++i) {
      clear_ball_encoding_cache();
      reset_peak_rss();
      t0 = now_s();
      const CertLogValidation v = validate_certificate_log(
          stream_path, alg, stream_check_loopiness(job.delta));
      r.verify_stream_total_s += now_s() - t0;
      r.verify_stream_rss_mb = std::max(r.verify_stream_rss_mb, peak_rss_mb());
      stream_ok = stream_ok && v.ok();
      gate.stream_chain_complete = v.chain_complete;
      gate.stream_job_matches =
          v.delta == job.delta && v.algorithm_name == algorithm_name;
    }
    r.verify_stream_s = r.verify_stream_total_s / w.reps.verify_stream;
    gate.stream_ok = stream_ok;
    gate.collisions = ball_store_stats().collisions - collisions0;
    r.failed = failed_checks(gate);
  } catch (const std::exception& e) {
    r.failed.push_back(std::string("exception: ") + e.what());
  }
  return r;
}

}  // namespace

UnitResult run_unit(const Context& ctx, const ChainHooks& hooks) {
  UnitResult u;
  std::map<std::string, double> stage;
  std::map<std::string, double> sample;
  std::map<std::string, double> rss;
  double log_mb = 0;
  for (std::size_t j = 0; j < ctx.workload->jobs.size(); ++j) {
    const Job& job = ctx.workload->jobs[j];
    ++u.attempted;
    ChainResult r = run_chain(ctx, j, hooks);
    if (!r.failed.empty()) {
      std::string line = job.kind + " d=" + std::to_string(job.delta) + ":";
      for (const std::string& f : r.failed) line += " " + f;
      u.failures.push_back(line);
      continue;
    }
    stage["certify"] += r.certify_s;
    stage["log_write"] += r.log_write_s;
    stage["validate"] += r.validate_s;
    stage["verify_stream"] += r.verify_stream_s;
    sample["certify"] += r.certify_total_s;
    sample["log_write"] += r.log_write_total_s;
    sample["validate"] += r.validate_total_s;
    sample["verify_stream"] += r.verify_stream_total_s;
    rss["certify"] = std::max(rss["certify"], r.certify_rss_mb);
    rss["validate"] = std::max(rss["validate"], r.validate_rss_mb);
    rss["verify_stream"] = std::max(rss["verify_stream"], r.verify_stream_rss_mb);
    log_mb += r.log_mb;
    u.cert_texts.push_back(std::move(r.cert_text));
  }
  if (u.failures.empty()) {
    u.timed = true;
    u.stage_s = std::move(stage);
    u.sample_s = std::move(sample);
    u.rss_mb = std::move(rss);
    u.log_mb = log_mb;
  }
  return u;
}

// ---------------------------------------------------------------- tracing

namespace {

// Adds the ball-store counter deltas over a stage to `sums`; the driver
// turns hits and lookups into rates.
class StoreDelta {
 public:
  explicit StoreDelta(std::string stage)
      : stage_(std::move(stage)), start_(ball_store_stats()) {}

  void add_to(std::map<std::string, double>& sums) const {
    const BallStoreStats end = ball_store_stats();
    auto add = [&](const char* what, std::uint64_t a, std::uint64_t b) {
      sums[stage_ + ".view." + what] += static_cast<double>(b - a);
    };
    add("key_queries", start_.key_queries, end.key_queries);
    add("memo_hits", start_.memo_hits, end.memo_hits);
    add("intern_lookups", start_.intern_lookups, end.intern_lookups);
    add("intern_hits", start_.intern_hits, end.intern_hits);
    add("intern_resets", start_.intern_resets, end.intern_resets);
    add("collisions", start_.collisions, end.collisions);
  }

 private:
  std::string stage_;
  BallStoreStats start_;
};

// Counts the filesystem layer's fsyncs, of files and of directories.
class FsyncCounter : public FsFaultInjector {
 public:
  void before_fsync(const std::string&) override { ++count; }
  void before_dir_fsync(const std::string&) override { ++count; }
  long long count = 0;
};

struct CertifyTally {
  double rounds = 0;
  double messages = 0;
  double useful_edges = 0;
  double planned_edges = 0;
  double ipc_bytes = 0;
  double ipc_s = 0;  ///< time spent rendering ipc_bytes (not a layer)
};

FractionalMatching traced_run(Tracer& tr, int parent, int chain,
                              const Multigraph& g, EcAlgorithm& alg,
                              int budget, CertifyTally& tally) {
  ScopedSpan span(tr, "certify.local.sim", parent, chain);
  RunResult res = run_ec(g, alg, budget);
  tally.rounds += res.rounds;
  tally.messages += static_cast<double>(res.messages);
  return std::move(res.matching);
}

// The P1 half of the adversary's per-level check. The re-drive turns the
// library's own check off inside combine and times the same call here.
bool traced_key_check(Tracer& tr, int parent, int chain,
                      const CertificateLevel& lv) {
  ScopedSpan span(tr, "certify.view.key", parent, chain);
  return balls_isomorphic_cached(lv.g, lv.g_node, lv.h, lv.h_node, lv.level) &&
         lv.g_weight != lv.h_weight;
}

// run_adversary, composed from the calls adversary_step composes:
// build_base_case -> plan_adversary_step -> run_ec -> combine_adversary_step.
LowerBoundCertificate traced_certify(Tracer& tr, int root, int chain,
                                     EcAlgorithm& alg, int delta,
                                     const AdversaryOptions& opts,
                                     bool measure_ipc, CertifyTally& tally,
                                     bool& p1_ok) {
  const int budget = adversary_round_budget(delta, opts);
  AdversaryOptions combine_opts = opts;
  combine_opts.verify_p1 = false;

  LowerBoundCertificate cert;
  cert.delta = delta;
  cert.algorithm_name = alg.name();
  CertificateLevel level;
  {
    ScopedSpan span(tr, "certify.core.base_case", root, chain);
    level = build_base_case(alg, delta, budget);
  }
  p1_ok = traced_key_check(tr, root, chain, level) && p1_ok;
  cert.levels.push_back(level);

  for (int i = 0; i + 1 <= delta - 2; ++i) {
    ScopedSpan step(tr, "certify.level", root, chain);
    std::optional<AdversaryStepPlan> plan;
    {
      ScopedSpan span(tr, "certify.core.plan", step.id(), chain);
      plan = plan_adversary_step(level);
    }
    const double gh_edges = plan->gh.edge_count();
    const double gg_edges = plan->gg.graph.edge_count();
    const double hh_edges = plan->hh.graph.edge_count();
    tally.planned_edges += gh_edges + gg_edges + hh_edges;
    if (measure_ipc) {
      // What the fleet ships for this step; rendered outside any timed
      // layer, and its time is taken out of the in-process total.
      ScopedSpan span(tr, "certify.util.ipc_render", step.id(), chain);
      const double t0 = tr.now();
      tally.ipc_bytes += static_cast<double>(
          graph_to_string(plan->gh).size() +
          graph_to_string(plan->gg.graph).size() +
          graph_to_string(plan->hh.graph).size());
      tally.ipc_s += tr.now() - t0;
    }
    bool chose_gg = false;
    FractionalMatching y_gh =
        traced_run(tr, step.id(), chain, plan->gh, alg, budget, tally);
    // Lazy, as adversary_step is on one thread: the selected unfolding is
    // simulated from inside combine, so its span is a child of combine's.
    int combine_id = step.id();
    const BranchFetch fetch = [&](bool want_gg) {
      chose_gg = want_gg;
      return traced_run(tr, combine_id, chain,
                        want_gg ? plan->gg.graph : plan->hh.graph, alg, budget,
                        tally);
    };
    CertificateLevel next;
    {
      ScopedSpan span(tr, "certify.core.combine", step.id(), chain);
      combine_id = span.id();
      next = combine_adversary_step(delta, level, std::move(*plan),
                                    std::move(y_gh), fetch, alg.name(),
                                    combine_opts);
    }
    tally.useful_edges += gh_edges + (chose_gg ? gg_edges : hh_edges);
    p1_ok = traced_key_check(tr, step.id(), chain, next) && p1_ok;
    cert.levels.push_back(next);
    level = std::move(next);
  }
  return cert;
}

// validate_certificate's checks on one level, one span per group of
// library calls, short-circuiting exactly as the library does.
bool traced_validate_level(Tracer& tr, const std::string& stage, int parent,
                           int chain, const CertificateLevel& lv, int delta,
                           bool check_loopiness, EcAlgorithm& alg) {
  const int budget = 16 * (delta + 2) * (delta + 2);
  bool degree_ok = false;
  bool shape_ok = false;
  {
    ScopedSpan span(tr, stage + ".graph.shape", parent, chain);
    degree_ok = lv.g.max_degree() <= delta && lv.h.max_degree() <= delta &&
                lv.g.has_proper_edge_coloring() &&
                lv.h.has_proper_edge_coloring();
    shape_ok = lv.g.is_forest_ignoring_loops() &&
               lv.h.is_forest_ignoring_loops() && lv.g.is_connected() &&
               lv.h.is_connected();
  }
  bool loopy_ok = true;
  {
    // Recorded even where P2 is skipped (verify_stream above delta 8), so
    // the layer then reads the cost of the skip.
    ScopedSpan span(tr, stage + ".cover.loopiness", parent, chain);
    if (check_loopiness) {
      const int need = delta - 1 - lv.level;
      loopy_ok = loopiness(lv.g) >= need && loopiness(lv.h) >= need;
    }
  }
  const bool witness_ok =
      lv.g_loop >= 0 && lv.g_loop < lv.g.edge_count() && lv.h_loop >= 0 &&
      lv.h_loop < lv.h.edge_count() && lv.g.edge(lv.g_loop).is_loop() &&
      lv.h.edge(lv.h_loop).is_loop() && lv.g.edge(lv.g_loop).u == lv.g_node &&
      lv.h.edge(lv.h_loop).u == lv.h_node &&
      lv.g.edge(lv.g_loop).color == lv.c && lv.h.edge(lv.h_loop).color == lv.c;
  if (!witness_ok) return false;
  bool iso = false;
  {
    ScopedSpan span(tr, stage + ".view.key", parent, chain);
    iso = balls_isomorphic_cached(lv.g, lv.g_node, lv.h, lv.h_node, lv.level);
  }
  ScopedSpan span(tr, stage + ".local.sim", parent, chain);
  const RunResult run_g = run_ec(lv.g, alg, budget);
  const RunResult run_h = run_ec(lv.h, alg, budget);
  const Rational& wg = run_g.matching.weight(lv.g_loop);
  const Rational& wh = run_h.matching.weight(lv.h_loop);
  return degree_ok && shape_ok && loopy_ok && iso && wg != wh &&
         wg == lv.g_weight && wh == lv.h_weight;
}

}  // namespace

TracedChain trace_chain(const Context& ctx, std::size_t j, int chain_id,
                        const std::string& reference_text, Tracer& tr) {
  const Workload& w = *ctx.workload;
  const Job& job = w.jobs.at(j);
  TracedChain out;
  auto& sums = out.sums;
  auto fail = [&](const char* check) { out.failed.emplace_back(check); };
  try {
    EcAlgorithm& alg = *ctx.subjects.at(j).alg;
    const AdversaryOptions opts = adversary_options(w);

    // ---- certify
    clear_ball_encoding_cache();
    StoreDelta certify_store{"certify"};
    CertifyTally tally;
    bool p1_ok = true;
    LowerBoundCertificate cert;
    if (w.fleet_workers > 0) {
      // The stage is the fleet call. Its layers come from an in-process
      // re-drive of the same chain; the fleet's own cost is the rest.
      ChainResult report;
      bool status_ok = false;
      double fleet_s = 0;
      {
        ScopedSpan root(tr, "certify", -1, chain_id);
        ScopedSpan span(tr, "certify.fault.fleet", root.id(), chain_id);
        const double t0 = tr.now();
        cert = certify_untraced(ctx, job, alg, report, status_ok);
        fleet_s = tr.now() - t0;
      }
      if (!status_ok) fail("fleet_status");
      sums["certify.fault.requests"] += report.fleet_requests;
      sums["certify.fault.replayed"] += report.fleet_replayed;
      sums["certify.fault.respawns"] += report.fleet_respawns;
      sums["certify.fault.incidents"] += report.fleet_incidents;
      sums["certify.fault.ball_table_mb"] += report.fleet_ball_table_mb;
      sums["certify.fault.ball_table_ship_s"] += report.fleet_ball_table_ship_s;
      sums["certify.fault.fleet_s"] += fleet_s;
      clear_ball_encoding_cache();
      const double t0 = tr.now();
      LowerBoundCertificate again;
      {
        ScopedSpan root(tr, "certify.inprocess", -1, chain_id);
        again = traced_certify(tr, root.id(), chain_id, alg, job.delta, opts,
                               /*measure_ipc=*/true, tally, p1_ok);
      }
      sums["certify.fault.inprocess_s"] += tr.now() - t0 - tally.ipc_s;
      if (certificate_to_string(again) != certificate_to_string(cert)) {
        fail("redrive_bytes");
      }
    } else {
      ScopedSpan root(tr, "certify", -1, chain_id);
      cert = traced_certify(tr, root.id(), chain_id, alg, job.delta, opts,
                            /*measure_ipc=*/false, tally, p1_ok);
    }
    certify_store.add_to(sums);
    sums["certify.local.rounds"] += tally.rounds;
    sums["certify.local.messages"] += tally.messages;
    sums["certify.util.useful_edges"] += tally.useful_edges;
    sums["certify.util.planned_edges"] += tally.planned_edges;
    sums["certify.util.ipc_mb"] += tally.ipc_bytes / kMB;
    if (!p1_ok) fail("p1");
    if (certificate_to_string(cert) != reference_text) fail("redrive_bytes");
    if (cert.certified_radius() != job.delta - 2) fail("certified_radius");

    // ---- log write. CertificateLog::checkpoint into an empty log renders
    // the log text and hands it to write_file_atomic: the same two calls.
    const std::string path = log_path(ctx, job, "traced");
    CertificateLog{path}.remove();
    FsyncCounter fsyncs;
    std::string text;
    {
      ScopedSpan root(tr, "log_write", -1, chain_id);
      {
        ScopedSpan span(tr, "log_write.core.render", root.id(), chain_id);
        text = CertificateLog::serialize(cert);
      }
      set_fs_fault_injector(&fsyncs);
      try {
        ScopedSpan span(tr, "log_write.recover.append", root.id(), chain_id);
        write_file_atomic(path, text);
      } catch (...) {
        set_fs_fault_injector(nullptr);
        throw;
      }
      set_fs_fault_injector(nullptr);
    }
    sums["log_write.recover.fsyncs"] += static_cast<double>(fsyncs.count);
    sums["log_write.recover.mb"] += static_cast<double>(text.size()) / kMB;
    if (slurp(path) != text) fail("log_bytes");

    // ---- full validation, level by level as validate_certificate runs on
    // one thread.
    clear_ball_encoding_cache();
    StoreDelta validate_store{"validate"};
    bool valid = !cert.levels.empty();
    {
      ScopedSpan root(tr, "validate", -1, chain_id);
      for (const CertificateLevel& lv : cert.levels) {
        ScopedSpan span(tr, "validate.level", root.id(), chain_id);
        valid = traced_validate_level(tr, "validate", span.id(), chain_id, lv,
                                      cert.delta, /*check_loopiness=*/true,
                                      alg) &&
                valid;
      }
    }
    validate_store.add_to(sums);
    if (!valid) fail("full_validation");

    // ---- streaming verify. The library's walk (read, frame, checksum,
    // parse) is timed on its own first; the stage then redoes the walk's
    // checksum and parse record by record, each followed by the level's
    // checks, with no certificate resident.
    cert = LowerBoundCertificate{};
    text = std::string{};
    std::vector<CertLogRecordInfo> records;
    {
      ScopedSpan span(tr, "verify_stream.recover.walk", -1, chain_id);
      const CertLogReport rep = inspect_certificate_log(
          path, [&](const CertLogRecordInfo& info) { records.push_back(info); });
      if (rep.damage != LogDamage::kNone) fail("stream_verdict");
    }
    clear_ball_encoding_cache();
    StoreDelta stream_store{"verify_stream"};
    bool stream_ok = static_cast<int>(records.size()) == job.delta - 1;
    {
      ScopedSpan root(tr, "verify_stream", -1, chain_id);
      std::ifstream in{path, std::ios::binary};
      for (const CertLogRecordInfo& info : records) {
        ScopedSpan level(tr, "verify_stream.level", root.id(), chain_id);
        in.seekg(static_cast<std::streamoff>(info.offset));
        std::string record_header;
        std::getline(in, record_header);
        std::string payload(info.payload_bytes, '\0');
        in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
        {
          ScopedSpan span(tr, "verify_stream.util.checksum", level.id(), chain_id);
          stream_ok = fnv1a_128(payload) == info.self && stream_ok;
        }
        CertificateLevel lv;
        {
          ScopedSpan span(tr, "verify_stream.core.parse", level.id(), chain_id);
          std::istringstream is{std::move(payload)};
          LineReader reader{is};
          lv = read_certificate_level(reader);
        }
        stream_ok = traced_validate_level(tr, "verify_stream", level.id(),
                                          chain_id, lv, job.delta,
                                          stream_check_loopiness(job.delta),
                                          alg) &&
                    stream_ok;
      }
    }
    stream_store.add_to(sums);
    if (!stream_ok) fail("stream_verdict");
  } catch (const std::exception& e) {
    out.failed.push_back(std::string("exception: ") + e.what());
  }
  return out;
}

}  // namespace perfbench
