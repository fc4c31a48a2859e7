#include "ldlb/fault/guarded_run.hpp"

namespace ldlb {

namespace {

// Runs `body` and records how it ended, through the one failure ladder.
template <typename Body>
GuardedOutcome classify(Body&& body) {
  GuardedOutcome outcome;
  outcome.run = classify_failure(
      [&]() -> std::optional<RunResult> { return body(outcome); },
      [&outcome](RunStatus status, const char* what,
                 int env_errno) -> std::optional<RunResult> {
        outcome.status = status;
        outcome.error = what;
        outcome.env_errno = env_errno;
        outcome.diagnostics.first_violation = outcome.error;
        return std::nullopt;
      });
  return outcome;
}

}  // namespace

const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kBudgetExceeded:
      return "budget-exceeded";
    case RunStatus::kModelViolation:
      return "model-violation";
    case RunStatus::kFaultInjected:
      return "fault-injected";
    case RunStatus::kCancelled:
      return "cancelled";
    case RunStatus::kEnvFault:
      return "env-fault";
    case RunStatus::kContractViolation:
      return "contract-violation";
    case RunStatus::kWorkerLost:
      return "worker-lost";
  }
  return "unknown";
}

bool run_status_from_string(std::string_view token, RunStatus& out) {
  // Sweeping the enumerator list keeps this the exact inverse of
  // to_string; status_strings_test round-trips every value.
  constexpr RunStatus kAll[] = {
      RunStatus::kOk,           RunStatus::kBudgetExceeded,
      RunStatus::kModelViolation, RunStatus::kFaultInjected,
      RunStatus::kCancelled,    RunStatus::kEnvFault,
      RunStatus::kContractViolation, RunStatus::kWorkerLost,
  };
  for (RunStatus status : kAll) {
    if (token == to_string(status)) {
      out = status;
      return true;
    }
  }
  return false;
}

std::string GuardedOutcome::classification() const {
  if (status != RunStatus::kOk) return to_string(status);
  if (!check.ok) return std::string("check:") + to_string(check.report.kind);
  return "ok";
}

GuardedOutcome guarded_run_ec(const Multigraph& g, EcAlgorithm& alg,
                              const GuardedRunOptions& options) {
  GuardedOutcome outcome = classify([&](GuardedOutcome& out) {
    RunOptions run_options;
    run_options.budget = options.budget;
    run_options.hooks = options.hooks;
    run_options.diagnostics = &out.diagnostics;
    run_options.cancel = options.cancel;
    return run_ec(g, alg, run_options);
  });
  if (outcome.run && options.check_output) {
    outcome.check = check_maximal(g, outcome.run->matching);
    if (!outcome.check.ok) {
      outcome.diagnostics.first_violation = outcome.check.reason;
    }
  }
  return outcome;
}

GuardedOutcome guarded_run_po(const Digraph& g, PoAlgorithm& alg,
                              const GuardedRunOptions& options) {
  GuardedOutcome outcome = classify([&](GuardedOutcome& out) {
    RunOptions run_options;
    run_options.budget = options.budget;
    run_options.hooks = options.hooks;
    run_options.diagnostics = &out.diagnostics;
    run_options.cancel = options.cancel;
    return run_po(g, alg, run_options);
  });
  if (outcome.run && options.check_output) {
    outcome.check = check_maximal(g, outcome.run->matching);
    if (!outcome.check.ok) {
      outcome.diagnostics.first_violation = outcome.check.reason;
    }
  }
  return outcome;
}

GuardedOutcome guarded_run_adversary(EcAlgorithm& alg, int delta,
                                     AdversaryOptions options) {
  GuardedOutcome outcome = classify(
      [&](GuardedOutcome& out) -> std::optional<RunResult> {
        // Route the adversary's diagnostics into the outcome so the last
        // simulated run is observable even when the chain dies.
        if (options.diagnostics == nullptr) {
          options.diagnostics = &out.diagnostics;
        }
        out.certificate = run_adversary(alg, delta, options);
        return std::nullopt;  // no single RunResult for a whole chain
      });
  if (outcome.status != RunStatus::kOk) outcome.certificate.reset();
  return outcome;
}

}  // namespace ldlb
