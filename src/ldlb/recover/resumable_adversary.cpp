#include "ldlb/recover/resumable_adversary.hpp"

#include <sstream>

#include "ldlb/core/base_case.hpp"
#include "ldlb/util/cancellation.hpp"
#include "ldlb/util/error.hpp"

namespace ldlb {

LowerBoundCertificate resume_chain(EcAlgorithm& algorithm, int delta,
                                   CertificateLog& log,
                                   const ResumeOptions& options,
                                   const ChainExecutor& executor,
                                   ResumeInfo& info) {
  LDLB_REQUIRE(delta >= 2);
  info = {};

  LowerBoundCertificate chain = log.load(&info.recovery);
  info.loaded_levels = static_cast<int>(chain.levels.size());

  // A stored chain for a different job is worthless, however intact it is.
  if (!chain.levels.empty() &&
      (chain.delta != delta || chain.algorithm_name != algorithm.name())) {
    std::ostringstream os;
    os << "stored chain is for delta=" << chain.delta << ", algorithm '"
       << chain.algorithm_name << "'; this run wants delta=" << delta
       << ", algorithm '" << algorithm.name() << "'";
    info.discard_reason = os.str();
    chain.levels.clear();
  }

  // Re-run the algorithm on every loaded level: a stored chain cannot be
  // "trusted into" the run just because its checksums pass.
  if (options.revalidate && !chain.levels.empty()) {
    const std::size_t keep = executor.revalidate(chain);
    if (keep < chain.levels.size()) {
      std::ostringstream os;
      os << "loaded level " << chain.levels[keep].level
         << " failed re-validation against '" << algorithm.name() << "'";
      info.discard_reason = os.str();
      chain.levels.resize(keep);
    }
  }
  info.trusted_levels = static_cast<int>(chain.levels.size());

  chain.delta = delta;
  chain.algorithm_name = algorithm.name();

  const auto checkpoint = [&](const CertificateLevel& lv) {
    log.checkpoint(chain);
    ++info.computed_levels;
    if (options.on_checkpoint) options.on_checkpoint(lv);
  };

  if (options.adversary.cancel) options.adversary.cancel->check();

  if (chain.levels.empty()) {
    // The base case is one node with Δ loops: always built in-process.
    chain.levels.push_back(build_base_case(
        algorithm, delta, adversary_round_budget(delta, options.adversary)));
    checkpoint(chain.levels.back());
  }

  while (chain.certified_radius() < delta - 2) {
    if (options.adversary.cancel) options.adversary.cancel->check();
    chain.levels.push_back(executor.step(chain.levels.back()));
    checkpoint(chain.levels.back());
  }

  LDLB_ENSURE(chain.certified_radius() == delta - 2);
  return chain;
}

LowerBoundCertificate run_adversary_resumable(EcAlgorithm& algorithm,
                                              int delta, CertificateLog& log,
                                              const ResumeOptions& options,
                                              ResumeInfo* info) {
  ResumeInfo local_info;
  ChainExecutor in_process;
  // Level by level, as a fleet worker validates: a level whose validation
  // throws (a stored graph the algorithm cannot run on) is untrusted, not
  // fatal, so a resume reports the same ResumeInfo in-process and through
  // the fleet.
  in_process.revalidate = [&](const LowerBoundCertificate& chain) {
    LowerBoundCertificate one;
    one.delta = chain.delta;
    one.algorithm_name = chain.algorithm_name;
    std::size_t keep = 0;
    for (; keep < chain.levels.size(); ++keep) {
      one.levels.assign(1, chain.levels[keep]);
      try {
        if (!validate_certificate(one, algorithm)[0].ok()) break;
      } catch (const Error&) {
        break;
      }
    }
    return keep;
  };
  in_process.step = [&](const CertificateLevel& prev) {
    return adversary_step(algorithm, delta, prev, options.adversary);
  };
  return resume_chain(algorithm, delta, log, options, in_process,
                      info != nullptr ? *info : local_info);
}

std::function<void(const CertificateLevel&)> crash_at_level(int level) {
  return [level](const CertificateLevel& lv) {
    if (lv.level != level) return;
    std::ostringstream os;
    os << "injected crash-stop after checkpointing level " << level;
    throw FaultInjected(os.str(), "crash-stop", /*node=*/-1, /*edge=*/-1,
                        /*round=*/level);
  };
}

}  // namespace ldlb
