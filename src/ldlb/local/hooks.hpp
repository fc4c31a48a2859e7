// Instrumentation and fault-injection hooks for the LOCAL simulator.
//
// The executor (simulator.hpp) calls into a RunHooks object at every point
// where an adversarial environment could interfere with a run: before a
// node acts in a round (crash-stop), after it fills its outbox (port
// permutation), while a message is in flight (drop / corruption), and when
// it announces its output (weight perturbation). The default implementation
// of every hook is a no-op, so a plain run pays one virtual call per event
// only when hooks are installed at all.
//
// The concrete adversarial implementation lives in fault/fault_plan.hpp;
// keeping the interface here lets `local/` stay independent of `fault/`.
#pragma once

#include <map>

#include "ldlb/local/algorithm.hpp"

namespace ldlb {

class RunHooks {
 public:
  virtual ~RunHooks() = default;

  /// Polled once per (live node, round) before sends. Returning true
  /// crash-stops the node: it stops sending and receiving, counts as
  /// terminated for the halting condition, and its output is read as-is.
  virtual bool node_crashed(NodeId /*node*/, int /*round*/) { return false; }

  /// May rewrite an EC node's outbox in place (e.g. permute which end each
  /// message leaves through).
  virtual void on_send_ec(NodeId /*node*/, int /*round*/,
                          std::map<Color, Message>& /*outbox*/) {}

  /// PO counterpart of on_send_ec.
  virtual void on_send_po(NodeId /*node*/, int /*round*/,
                          std::map<PoEnd, Message>& /*outbox*/) {}

  /// Called per in-flight message; may mutate the payload. Return false to
  /// drop the message entirely.
  virtual bool on_deliver(EdgeId /*edge*/, NodeId /*from*/, NodeId /*to*/,
                          int /*round*/, Message& /*payload*/) {
    return true;
  }

  /// May rewrite an EC node's announced end weights before cross-checking.
  virtual void on_output_ec(NodeId /*node*/,
                            std::map<Color, Rational>& /*output*/) {}

  /// PO counterpart of on_output_ec.
  virtual void on_output_po(NodeId /*node*/,
                            std::map<PoEnd, Rational>& /*output*/) {}
};

}  // namespace ldlb
