#include "ldlb/recover/resumable_adversary.hpp"

#include <sstream>
#include <utility>

#include "ldlb/core/base_case.hpp"
#include "ldlb/util/error.hpp"

namespace ldlb {

namespace {

// Builds one level under the retry policy: transient failures retry with an
// escalated round budget, permanent ones rethrow immediately (WorkerLost
// included — the fleet has spent its respawn budget by the time it
// surfaces). Every attempt is appended to `log`.
template <typename Build>
CertificateLevel supervised_level(const RetryPolicy& policy, int base_rounds,
                                  SupervisionLog& log, Build&& build) {
  for (int attempt = 1;; ++attempt) {
    RunBudget base;
    base.max_rounds = base_rounds;
    const int rounds = policy.escalated(base, attempt).max_rounds;
    SupervisionAttempt record;
    record.attempt = attempt;
    record.max_rounds = rounds;
    try {
      CertificateLevel lv = build(rounds);
      record.status = RunStatus::kOk;
      log.attempts.push_back(std::move(record));
      return lv;
    } catch (const BudgetExceeded& e) {
      record.status = RunStatus::kBudgetExceeded;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      if (attempt >= policy.max_attempts) {
        log.exhausted = true;
        throw;
      }
    } catch (const FaultInjected& e) {
      record.status = RunStatus::kFaultInjected;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      if (!policy.retry_fault_injected) throw;
      if (attempt >= policy.max_attempts) {
        log.exhausted = true;
        throw;
      }
    } catch (const Cancelled& e) {
      // Cancellation is a request to stop, never a failure to retry.
      record.status = RunStatus::kCancelled;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      throw;
    } catch (const IoError& e) {
      record.status = RunStatus::kEnvFault;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      if (!policy.transient(RunStatus::kEnvFault, e.error_code())) throw;
      if (attempt >= policy.max_attempts) {
        log.exhausted = true;
        throw;
      }
    } catch (const WorkerLost& e) {
      record.status = RunStatus::kWorkerLost;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      throw;
    } catch (const ModelViolation& e) {
      record.status = RunStatus::kModelViolation;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      throw;
    } catch (const Error& e) {
      record.status = RunStatus::kContractViolation;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      throw;
    }
  }
}

}  // namespace

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

  const int base_rounds = adversary_round_budget(delta, options.adversary);
  const auto checkpoint = [&](const CertificateLevel& lv) {
    log.checkpoint(chain);
    ++info.computed_levels;
    if (options.on_checkpoint) options.on_checkpoint(lv);
  };

  if (options.adversary.cancel) options.adversary.cancel->check();

  if (chain.levels.empty()) {
    // The base case is one node with Δ loops: always built in-process.
    CertificateLevel base =
        supervised_level(options.retry, base_rounds, info.supervision,
                         [&](int rounds) {
                           return build_base_case(algorithm, delta, rounds);
                         });
    chain.levels.push_back(std::move(base));
    checkpoint(chain.levels.back());
  }

  while (chain.certified_radius() < delta - 2) {
    if (options.adversary.cancel) options.adversary.cancel->check();
    CertificateLevel next = supervised_level(
        options.retry, base_rounds, info.supervision, [&](int rounds) {
          return executor.step(chain.levels.back(), rounds);
        });
    chain.levels.push_back(std::move(next));
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
  in_process.step = [&](const CertificateLevel& prev, int rounds) {
    AdversaryOptions step_options = options.adversary;
    step_options.max_rounds = rounds;
    return adversary_step(algorithm, delta, prev, step_options);
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
