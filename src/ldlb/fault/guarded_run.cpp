#include "ldlb/fault/guarded_run.hpp"

#include <new>

namespace ldlb {

namespace {

// Shared catch ladder: run `body` and classify how it ended. The most
// specific exception types come first; ContractViolation last, as the
// catch-all for broken preconditions inside the algorithm or the library.
// std::bad_alloc sits outside the Error hierarchy but is still an
// environment failure, not a bug in the run, so it classifies as kEnvFault.
template <typename Body>
GuardedOutcome classify(Body&& body) {
  GuardedOutcome outcome;
  try {
    outcome.run = body(outcome);
  } catch (const BudgetExceeded& e) {
    outcome.status = RunStatus::kBudgetExceeded;
    outcome.error = e.what();
  } catch (const ModelViolation& e) {
    outcome.status = RunStatus::kModelViolation;
    outcome.error = e.what();
  } catch (const FaultInjected& e) {
    outcome.status = RunStatus::kFaultInjected;
    outcome.error = e.what();
  } catch (const Cancelled& e) {
    outcome.status = RunStatus::kCancelled;
    outcome.error = e.what();
  } catch (const IoError& e) {
    outcome.status = RunStatus::kEnvFault;
    outcome.error = e.what();
    outcome.env_errno = e.error_code();
  } catch (const WorkerLost& e) {
    outcome.status = RunStatus::kWorkerLost;
    outcome.error = e.what();
  } catch (const Error& e) {
    outcome.status = RunStatus::kContractViolation;
    outcome.error = e.what();
  } catch (const std::bad_alloc& e) {
    outcome.status = RunStatus::kEnvFault;
    outcome.error = e.what();
  }
  if (!outcome.error.empty()) {
    outcome.diagnostics.first_violation = outcome.error;
  }
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
