// Budget enforcement hooks.
//
// RunBudget (local/simulator.hpp) bounds one run; long adversary campaigns
// need a *cumulative* cap across the many simulated runs one chain
// performs, plus a global deadline and a cancel switch. BudgetHooks is a
// passive RunHooks implementation that enforces exactly that: it counts
// every delivered message into one atomic counter shared across runs and
// throws BudgetExceeded when the cap is crossed, and it polls an optional
// Deadline / CancellationToken from the hook entry points so a runaway run
// is stopped even between the executor's own poll sites.
//
// The hooks only count and poll, so an adversary run with them installed
// produces the same certificate bytes as one without, at any pool width;
// parallel_determinism_test pins this. The counter is atomic so that one
// instance may also watch runs on several threads. The error text names
// only the cap, not the count observed when it tripped.
#pragma once

#include <atomic>

#include "ldlb/local/hooks.hpp"
#include "ldlb/util/cancellation.hpp"

namespace ldlb {

class BudgetHooks : public RunHooks {
 public:
  struct Limits {
    /// Cumulative delivered-message cap across every run these hooks
    /// observe; <= 0 means unlimited.
    long long max_total_messages = 0;
    /// Global deadline; unset means none.
    Deadline deadline;
  };

  explicit BudgetHooks(Limits limits, CancellationToken* cancel = nullptr)
      : limits_(limits), cancel_(cancel) {}

  bool node_crashed(NodeId node, int round) override;
  void on_send_ec(NodeId node, int round,
                  std::map<Color, Message>& outbox) override;
  void on_send_po(NodeId node, int round,
                  std::map<PoEnd, Message>& outbox) override;
  bool on_deliver(EdgeId edge, NodeId from, NodeId to, int round,
                  Message& payload) override;

  /// Messages delivered so far across every observed run.
  [[nodiscard]] long long total_messages() const {
    return total_messages_.load(std::memory_order_relaxed);
  }

  /// Resets the cumulative counter (a new campaign).
  void reset() { total_messages_.store(0, std::memory_order_relaxed); }

 private:
  void poll() const;  ///< deadline + cancel check

  Limits limits_;
  CancellationToken* cancel_;
  std::atomic<long long> total_messages_{0};
};

}  // namespace ldlb
