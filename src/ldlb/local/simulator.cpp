#include "ldlb/local/simulator.hpp"

#include <algorithm>
#include <chrono>

#include "ldlb/util/slow_checks.hpp"

namespace ldlb {

namespace {

// Runs fn(v) for every node in id order, polling the cancellation token,
// when given, every few nodes.
template <typename Fn>
void for_each_node(NodeId n, CancellationToken* cancel, const Fn& fn) {
  for (NodeId v = 0; v < n; ++v) {
    if (cancel != nullptr && v % 32 == 0) cancel->check();
    fn(v);
  }
}

// Messages to deliver between cancellation / wall-budget polls inside one
// round's delivery loop: coarse enough to be free, fine enough that a
// cancel lands mid-round on dense instances.
constexpr long long kDeliveryPollStride = 4096;

// ldlb-lint: allow(nondeterminism): wall-clock *budget* enforcement only —
// a monotonic clock that decides when BudgetExceeded fires, never what any
// node computes; certificate bytes are clock-independent.
using Clock = std::chrono::steady_clock;

long long elapsed_us(Clock::time_point t0) {
  // ldlb-analyze: allow(determinism): wall-budget accounting; overruns
  // abort via BudgetExceeded, certificate bytes are clock-independent.
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               t0)
      .count();
}

// Budget checks shared by both executors.
void check_round_budget(const RunBudget& b, int round,
                        const std::string& algo) {
  if (round > b.max_rounds) {
    std::ostringstream os;
    os << "algorithm '" << algo << "' exceeded " << b.max_rounds << " rounds";
    throw BudgetExceeded(os.str(), BudgetExceeded::Kind::kRounds,
                         b.max_rounds, round);
  }
}

void check_wall_budget(const RunBudget& b, Clock::time_point t0,
                       const std::string& algo) {
  if (b.max_wall_seconds <= 0) return;
  const long long used = elapsed_us(t0);
  const long long limit =
      static_cast<long long>(b.max_wall_seconds * 1e6);
  if (used > limit) {
    std::ostringstream os;
    os << "algorithm '" << algo << "' exceeded the wall-clock budget of "
       << b.max_wall_seconds << "s";
    throw BudgetExceeded(os.str(), BudgetExceeded::Kind::kWallClock, limit,
                         used);
  }
}

void check_message_budget(const RunBudget& b, long long delivered,
                          const std::string& algo) {
  if (b.max_messages > 0 && delivered > b.max_messages) {
    std::ostringstream os;
    os << "algorithm '" << algo << "' exceeded the message budget of "
       << b.max_messages;
    throw BudgetExceeded(os.str(), BudgetExceeded::Kind::kMessages,
                         b.max_messages, delivered);
  }
}

}  // namespace

void RunDiagnostics::reset(NodeId nodes) {
  per_round.clear();
  halt_round.assign(static_cast<std::size_t>(nodes), -1);
  crash_round.assign(static_cast<std::size_t>(nodes), -1);
  dropped_messages = 0;
  corrupted_messages = 0;
  first_violation.clear();
}

namespace {

// The message-passing interpreter behind run_ec.
RunResult interpret_ec(const Multigraph& g, EcAlgorithm& alg,
                       const RunOptions& options) {
  const int delta = g.max_degree();
  // ldlb-analyze: allow(determinism): start-of-run timestamp for the wall
  // budget; only decides when BudgetExceeded fires.
  const auto t0 = Clock::now();
  RunHooks* hooks = options.hooks;
  RunDiagnostics* diag = options.diagnostics;
  CancellationToken* cancel = options.cancel;
  if (diag) diag->reset(g.node_count());

  std::vector<std::unique_ptr<EcNodeState>> nodes(
      static_cast<std::size_t>(g.node_count()));
  for_each_node(g.node_count(), cancel, [&](NodeId v) {
    EcNodeContext ctx;
    for (EdgeId e : g.incident_edges(v)) {
      ctx.incident_colors.push_back(g.edge(e).color);
    }
    std::sort(ctx.incident_colors.begin(), ctx.incident_colors.end());
    ctx.max_degree = delta;
    nodes[static_cast<std::size_t>(v)] = alg.make_node(ctx);
  });

  RunResult result;
  std::vector<char> crashed(static_cast<std::size_t>(g.node_count()), 0);
  // halted() is a virtual call and the round loop consults it O(n) times per
  // round; cache it in a flags array instead. The flag is refreshed at every
  // point the bit can flip (construction, send, receive), so reading the
  // flag is indistinguishable from calling halted() directly.
  std::vector<char> halted(static_cast<std::size_t>(g.node_count()), 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    halted[static_cast<std::size_t>(v)] =
        nodes[static_cast<std::size_t>(v)]->halted() ? 1 : 0;
  }
  // A node is out of the protocol once it halted or crash-stopped.
  auto done = [&](NodeId v) {
    return crashed[static_cast<std::size_t>(v)] != 0 ||
           halted[static_cast<std::size_t>(v)] != 0;
  };
  auto all_done = [&] {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!done(v)) return false;
    }
    return true;
  };
  auto record_halts = [&](int round) {
    if (!diag) return;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      auto& slot = diag->halt_round[static_cast<std::size_t>(v)];
      if (slot < 0 && !crashed[static_cast<std::size_t>(v)] &&
          halted[static_cast<std::size_t>(v)]) {
        slot = round;
      }
    }
  };
  record_halts(0);

  // Per-node incident ends sorted by colour, for outbox-driven delivery:
  // properness makes (node, colour) identify at most one edge, so a node's
  // outbox entries (a std::map, also colour-sorted) can be merge-joined
  // against this table in O(deg + |outbox|).
  struct IncidentEnd {
    Color color;
    EdgeId edge;
    NodeId peer;
  };
  std::vector<std::vector<IncidentEnd>> ends_by_color;
  if (!hooks) {
    ends_by_color.resize(static_cast<std::size_t>(g.node_count()));
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const auto& ed = g.edge(e);
      // A loop delivers once, from the node back to itself.
      ends_by_color[static_cast<std::size_t>(ed.u)].push_back(
          {ed.color, e, ed.v});
      if (!ed.is_loop()) {
        ends_by_color[static_cast<std::size_t>(ed.v)].push_back(
            {ed.color, e, ed.u});
      }
    }
    for (auto& ends : ends_by_color) {
      std::sort(ends.begin(), ends.end(),
                [](const IncidentEnd& a, const IncidentEnd& b) {
                  return a.color < b.color;
                });
    }
  }

  int round = 0;
  while (!all_done()) {
    ++round;
    check_round_budget(options.budget, round, alg.name());
    check_wall_budget(options.budget, t0, alg.name());
    if (cancel) cancel->check();
    int live = 0;
    if (hooks) {
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (!done(v) && hooks->node_crashed(v, round)) {
          crashed[static_cast<std::size_t>(v)] = 1;
          if (diag) diag->crash_round[static_cast<std::size_t>(v)] = round;
        }
      }
    }
    // Count the nodes that act this round before any of them sends: a send
    // may flip the sender's halted() bit.
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!done(v)) ++live;
    }
    // Collect outboxes of live nodes.
    std::vector<std::map<Color, Message>> outbox(
        static_cast<std::size_t>(g.node_count()));
    for_each_node(g.node_count(), cancel, [&](NodeId v) {
      if (done(v)) return;
      auto& out = outbox[static_cast<std::size_t>(v)];
      out = nodes[static_cast<std::size_t>(v)]->send(round);
      if (hooks) hooks->on_send_ec(v, round, out);
      halted[static_cast<std::size_t>(v)] =
          nodes[static_cast<std::size_t>(v)]->halted() ? 1 : 0;
    });
    long long round_messages = 0, round_bytes = 0;
    std::vector<std::map<Color, Message>> inbox(
        static_cast<std::size_t>(g.node_count()));
    if (!hooks) {
      // Outbox-driven delivery: merge-join each node's (colour-sorted)
      // outbox against its colour-sorted incident ends — O(messages + deg)
      // per node instead of a scan over every edge per round. Delivery
      // order differs from the edge scan, but each (node, colour) inbox
      // slot receives at most one message (properness) and the per-round
      // counters are order-independent sums, so the observable state is
      // identical.
      long long next_poll = kDeliveryPollStride;
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (round_messages >= next_poll) {
          next_poll += kDeliveryPollStride;
          if (cancel) cancel->check();
          check_wall_budget(options.budget, t0, alg.name());
        }
        auto& out = outbox[static_cast<std::size_t>(v)];
        if (out.empty()) continue;
        const auto& ends = ends_by_color[static_cast<std::size_t>(v)];
        auto it = out.begin();
        for (const IncidentEnd& end : ends) {
          // ldlb-analyze: allow(cancellation): bounded — advances an
          // iterator strictly forward over one node's outbox.
          while (it != out.end() && it->first < end.color) ++it;
          if (it == out.end()) break;
          if (it->first != end.color) continue;
          round_bytes += static_cast<long long>(it->second.size());
          ++round_messages;
          inbox[static_cast<std::size_t>(end.peer)][end.color] =
              std::move(it->second);
          ++it;
        }
      }
    } else {
      // Hooks observe one on_deliver event per edge end in edge order; keep
      // the legacy scan so that event stream is unchanged.
      long long next_poll = kDeliveryPollStride;
      for (EdgeId e = 0; e < g.edge_count(); ++e) {
        if (round_messages >= next_poll) {
          next_poll += kDeliveryPollStride;
          if (cancel) cancel->check();
          check_wall_budget(options.budget, t0, alg.name());
        }
        const auto& ed = g.edge(e);
        const Color c = ed.color;
        auto deliver = [&](NodeId from, NodeId to) {
          auto it = outbox[static_cast<std::size_t>(from)].find(c);
          if (it == outbox[static_cast<std::size_t>(from)].end()) return;
          Message payload = it->second;
          if (!hooks->on_deliver(e, from, to, round, payload)) {
            if (diag) ++diag->dropped_messages;
            return;
          }
          if (diag && payload != it->second) ++diag->corrupted_messages;
          round_bytes += static_cast<long long>(payload.size());
          ++round_messages;
          inbox[static_cast<std::size_t>(to)][c] = std::move(payload);
        };
        if (ed.is_loop()) {
          deliver(ed.u, ed.u);
        } else {
          deliver(ed.u, ed.v);
          deliver(ed.v, ed.u);
        }
      }
    }
    result.messages += round_messages;
    result.message_bytes += round_bytes;
    if (diag) diag->per_round.push_back({round_messages, round_bytes, live});
    check_message_budget(options.budget, result.messages, alg.name());
    for_each_node(g.node_count(), cancel, [&](NodeId v) {
      if (done(v)) return;
      nodes[static_cast<std::size_t>(v)]->receive(
          round, inbox[static_cast<std::size_t>(v)]);
      halted[static_cast<std::size_t>(v)] =
          nodes[static_cast<std::size_t>(v)]->halted() ? 1 : 0;
    });
    record_halts(round);
  }
  result.rounds = round;

  // Assemble and cross-check the output.
  std::vector<std::map<Color, Rational>> outputs(
      static_cast<std::size_t>(g.node_count()));
  for_each_node(g.node_count(), cancel, [&](NodeId v) {
    auto& out = outputs[static_cast<std::size_t>(v)];
    out = nodes[static_cast<std::size_t>(v)]->output();
    if (hooks) hooks->on_output_ec(v, out);
  });
  result.matching = FractionalMatching(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    auto weight_at = [&](NodeId v) {
      const auto& out = outputs[static_cast<std::size_t>(v)];
      auto it = out.find(ed.color);
      if (it == out.end()) {
        std::ostringstream os;
        os << "node " << v << " announced no weight for its colour-"
           << ed.color << " end";
        throw ModelViolation(os.str(), v, e);
      }
      return it->second;
    };
    Rational wu = weight_at(ed.u);
    if (!ed.is_loop()) {
      Rational wv = weight_at(ed.v);
      if (wu != wv) {
        std::ostringstream os;
        os << "endpoints of edge " << e << " disagree: " << wu << " vs "
           << wv << " (algorithm '" << alg.name() << "')";
        throw ModelViolation(os.str(), -1, e);
      }
    }
    result.matching.set_weight(e, wu);
  }
  return result;
}

}  // namespace

RunResult run_ec(const Multigraph& g, EcAlgorithm& alg,
                 const RunOptions& options) {
  LDLB_REQUIRE_MSG(options.budget.max_rounds > 0,
                   "a run budget needs max_rounds > 0");
  LDLB_REQUIRE_MSG(g.has_proper_edge_coloring(),
                   "EC algorithms need a proper edge colouring");
  // Closed-form fast path: when nothing observes the round-by-round
  // execution (no hooks, no diagnostics, no message or wall-clock budget —
  // those are defined over interpreted traffic), an algorithm with a direct
  // evaluator produces the identical RunResult without building node state
  // machines or materialising messages. The round budget still applies to
  // the evaluated round count, with the interpreter's exact error.
  if (options.hooks != nullptr || options.diagnostics != nullptr ||
      options.budget.max_messages > 0 || options.budget.max_wall_seconds > 0) {
    return interpret_ec(g, alg, options);
  }
  // An evaluation is a whole run (EcFromPo's is every round of the inner
  // algorithm), so a cancelled token is honoured before paying for it.
  if (options.cancel) options.cancel->check();
  std::optional<EcDirectRun> direct = alg.evaluate_direct(g);
  if (!direct) return interpret_ec(g, alg, options);
  if (options.cancel) options.cancel->check();
  // The interpreter only notices the overrun when it *enters* round
  // max_rounds + 1, i.e. exactly when the run needs more rounds.
  check_round_budget(options.budget,
                     std::min(direct->rounds, options.budget.max_rounds + 1),
                     alg.name());
  LDLB_ENSURE(direct->edge_weights.size() ==
              static_cast<std::size_t>(g.edge_count()));
  RunResult result;
  result.rounds = direct->rounds;
  result.messages = direct->messages;
  result.message_bytes = direct->message_bytes;
  // Adopt the weight vector wholesale — the per-edge set_weight loop this
  // replaces cost more than the evaluation itself at Δ=12.
  result.matching = FractionalMatching(std::move(direct->edge_weights));
  if (slow_checks_enabled()) {
    // Debug oracle (util/slow_checks.hpp): the closed form must agree with
    // the interpreter field for field.
    const RunResult oracle = interpret_ec(g, alg, options);
    LDLB_ENSURE_MSG(
        oracle.rounds == result.rounds && oracle.messages == result.messages &&
            oracle.message_bytes == result.message_bytes &&
            oracle.matching.weights() == result.matching.weights(),
        "closed form of '" << alg.name()
                           << "' disagrees with the interpreter: rounds "
                           << result.rounds << " vs " << oracle.rounds
                           << ", messages " << result.messages << " vs "
                           << oracle.messages << ", bytes "
                           << result.message_bytes << " vs "
                           << oracle.message_bytes);
  }
  return result;
}

RunResult run_po(const Digraph& g, PoAlgorithm& alg,
                 const RunOptions& options) {
  LDLB_REQUIRE_MSG(options.budget.max_rounds > 0,
                   "a run budget needs max_rounds > 0");
  LDLB_REQUIRE_MSG(g.has_proper_po_coloring(),
                   "PO algorithms need a proper PO colouring");
  const int delta = g.max_degree();
  const auto t0 = Clock::now();
  RunHooks* hooks = options.hooks;
  RunDiagnostics* diag = options.diagnostics;
  CancellationToken* cancel = options.cancel;
  if (diag) diag->reset(g.node_count());

  std::vector<std::unique_ptr<PoNodeState>> nodes(
      static_cast<std::size_t>(g.node_count()));
  for_each_node(g.node_count(), cancel, [&](NodeId v) {
    PoNodeContext ctx;
    for (EdgeId a : g.out_arcs(v)) ctx.out_colors.push_back(g.arc(a).color);
    for (EdgeId a : g.in_arcs(v)) ctx.in_colors.push_back(g.arc(a).color);
    std::sort(ctx.out_colors.begin(), ctx.out_colors.end());
    std::sort(ctx.in_colors.begin(), ctx.in_colors.end());
    ctx.max_degree = delta;
    nodes[static_cast<std::size_t>(v)] = alg.make_node(ctx);
  });

  RunResult result;
  std::vector<char> crashed(static_cast<std::size_t>(g.node_count()), 0);
  // Cached halted() bits, refreshed wherever the bit can flip — see run_ec.
  std::vector<char> halted(static_cast<std::size_t>(g.node_count()), 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    halted[static_cast<std::size_t>(v)] =
        nodes[static_cast<std::size_t>(v)]->halted() ? 1 : 0;
  }
  auto done = [&](NodeId v) {
    return crashed[static_cast<std::size_t>(v)] != 0 ||
           halted[static_cast<std::size_t>(v)] != 0;
  };
  auto all_done = [&] {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!done(v)) return false;
    }
    return true;
  };
  auto record_halts = [&](int round) {
    if (!diag) return;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      auto& slot = diag->halt_round[static_cast<std::size_t>(v)];
      if (slot < 0 && !crashed[static_cast<std::size_t>(v)] &&
          halted[static_cast<std::size_t>(v)]) {
        slot = round;
      }
    }
  };
  record_halts(0);

  int round = 0;
  while (!all_done()) {
    ++round;
    check_round_budget(options.budget, round, alg.name());
    check_wall_budget(options.budget, t0, alg.name());
    if (cancel) cancel->check();
    int live = 0;
    if (hooks) {
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (!done(v) && hooks->node_crashed(v, round)) {
          crashed[static_cast<std::size_t>(v)] = 1;
          if (diag) diag->crash_round[static_cast<std::size_t>(v)] = round;
        }
      }
    }
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!done(v)) ++live;
    }
    std::vector<std::map<PoEnd, Message>> outbox(
        static_cast<std::size_t>(g.node_count()));
    for_each_node(g.node_count(), cancel, [&](NodeId v) {
      if (done(v)) return;
      auto& out = outbox[static_cast<std::size_t>(v)];
      out = nodes[static_cast<std::size_t>(v)]->send(round);
      if (hooks) hooks->on_send_po(v, round, out);
      halted[static_cast<std::size_t>(v)] =
          nodes[static_cast<std::size_t>(v)]->halted() ? 1 : 0;
    });
    long long round_messages = 0, round_bytes = 0;
    std::vector<std::map<PoEnd, Message>> inbox(
        static_cast<std::size_t>(g.node_count()));
    auto deliver = [&](EdgeId a, NodeId from, PoEnd from_end, NodeId to,
                       PoEnd to_end) {
      auto it = outbox[static_cast<std::size_t>(from)].find(from_end);
      if (it == outbox[static_cast<std::size_t>(from)].end()) return;
      // PO-properness makes each (node, end) outbox entry single-consumer,
      // mirroring the EC deliver fast path.
      Message payload = hooks ? it->second : std::move(it->second);
      if (hooks) {
        if (!hooks->on_deliver(a, from, to, round, payload)) {
          if (diag) ++diag->dropped_messages;
          return;
        }
        if (diag && payload != it->second) ++diag->corrupted_messages;
      }
      round_bytes += static_cast<long long>(payload.size());
      ++round_messages;
      inbox[static_cast<std::size_t>(to)][to_end] = std::move(payload);
    };
    long long next_poll = kDeliveryPollStride;
    for (EdgeId a = 0; a < g.arc_count(); ++a) {
      if (round_messages >= next_poll) {
        next_poll += kDeliveryPollStride;
        if (cancel) cancel->check();
        check_wall_budget(options.budget, t0, alg.name());
      }
      const auto& arc = g.arc(a);
      const Color c = arc.color;
      // Tail's outgoing end pairs with head's incoming end (also for loops,
      // where both ends sit on the same node).
      deliver(a, arc.tail, {true, c}, arc.head, {false, c});
      deliver(a, arc.head, {false, c}, arc.tail, {true, c});
    }
    result.messages += round_messages;
    result.message_bytes += round_bytes;
    if (diag) diag->per_round.push_back({round_messages, round_bytes, live});
    check_message_budget(options.budget, result.messages, alg.name());
    for_each_node(g.node_count(), cancel, [&](NodeId v) {
      if (done(v)) return;
      nodes[static_cast<std::size_t>(v)]->receive(
          round, inbox[static_cast<std::size_t>(v)]);
      halted[static_cast<std::size_t>(v)] =
          nodes[static_cast<std::size_t>(v)]->halted() ? 1 : 0;
    });
    record_halts(round);
  }
  result.rounds = round;

  std::vector<std::map<PoEnd, Rational>> outputs(
      static_cast<std::size_t>(g.node_count()));
  for_each_node(g.node_count(), cancel, [&](NodeId v) {
    auto& out = outputs[static_cast<std::size_t>(v)];
    out = nodes[static_cast<std::size_t>(v)]->output();
    if (hooks) hooks->on_output_po(v, out);
  });
  result.matching = FractionalMatching(g.arc_count());
  for (EdgeId a = 0; a < g.arc_count(); ++a) {
    const auto& arc = g.arc(a);
    auto weight_at = [&](NodeId v, PoEnd end) {
      const auto& out = outputs[static_cast<std::size_t>(v)];
      auto it = out.find(end);
      if (it == out.end()) {
        std::ostringstream os;
        os << "node " << v << " announced no weight for its "
           << (end.outgoing ? "outgoing" : "incoming") << " colour-"
           << end.color << " end";
        throw ModelViolation(os.str(), v, a);
      }
      return it->second;
    };
    Rational wt = weight_at(arc.tail, {true, arc.color});
    Rational wh = weight_at(arc.head, {false, arc.color});
    if (wt != wh) {
      std::ostringstream os;
      os << "ends of arc " << a << " disagree: " << wt << " vs " << wh
         << " (algorithm '" << alg.name() << "')";
      throw ModelViolation(os.str(), -1, a);
    }
    result.matching.set_weight(a, wt);
  }
  return result;
}

RunResult run_ec(const Multigraph& g, EcAlgorithm& alg, int max_rounds) {
  RunOptions options;
  options.budget.max_rounds = max_rounds;
  return run_ec(g, alg, options);
}

RunResult run_po(const Digraph& g, PoAlgorithm& alg, int max_rounds) {
  RunOptions options;
  options.budget.max_rounds = max_rounds;
  return run_po(g, alg, options);
}

}  // namespace ldlb
