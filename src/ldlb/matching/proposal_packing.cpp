#include "ldlb/matching/proposal_packing.hpp"

#include <algorithm>
#include <string>

namespace ldlb {

namespace {

constexpr const char* kSat = "SAT";

class Node final : public PoNodeState {
 public:
  explicit Node(const PoNodeContext& ctx) : residual_(1) {
    for (Color c : ctx.out_colors) ends_.push_back({{true, c}, {}});
    for (Color c : ctx.in_colors) ends_.push_back({{false, c}, {}});
  }

  std::map<PoEnd, Message> send(int) override {
    sent_sat_this_round_.clear();
    std::map<PoEnd, Message> out;
    int open = open_count();
    if (open == 0) return out;
    if (saturated()) {
      for (auto& end : ends_) {
        if (end.open) {
          out[end.id] = kSat;
          sent_sat_this_round_.push_back(end.id);
        }
      }
      return out;
    }
    Rational offer = residual_ / Rational(open);
    last_offer_ = offer;
    for (auto& end : ends_) {
      if (end.open) out[end.id] = offer.to_string();
    }
    return out;
  }

  void receive(int, const std::map<PoEnd, Message>& inbox) override {
    const bool i_offered = !saturated();
    for (auto& end : ends_) {
      if (!end.open) continue;
      auto it = inbox.find(end.id);
      // A silent peer halted earlier; it can only have halted after closing
      // the shared end, which requires a SAT to have passed — but SATs close
      // ends on both sides simultaneously, so silence cannot occur on an
      // open end. Treat it defensively as a close.
      if (it == inbox.end()) {
        end.open = false;
        continue;
      }
      if (it->second == kSat) {
        end.open = false;
        continue;
      }
      if (i_offered) {
        Rational peer = Rational::from_string(it->second);
        Rational gain = Rational::min(last_offer_, peer);
        end.weight += gain;
        residual_ -= gain;
      }
    }
    // Ends through which we announced SAT are now closed (the peer saw it).
    for (const PoEnd& id : sent_sat_this_round_) {
      for (auto& end : ends_) {
        if (end.id == id) end.open = false;
      }
    }
  }

  [[nodiscard]] bool halted() const override { return open_count() == 0; }

  [[nodiscard]] std::map<PoEnd, Rational> output() const override {
    std::map<PoEnd, Rational> out;
    for (const auto& end : ends_) out[end.id] = end.weight;
    return out;
  }

 private:
  struct End {
    PoEnd id;
    Rational weight;
    bool open = true;
  };

  [[nodiscard]] int open_count() const {
    return static_cast<int>(
        std::count_if(ends_.begin(), ends_.end(),
                      [](const End& e) { return e.open; }));
  }

  [[nodiscard]] bool saturated() const { return residual_.is_zero(); }

  std::vector<End> ends_;
  Rational residual_;
  Rational last_offer_;
  std::vector<PoEnd> sent_sat_this_round_;
};

}  // namespace

std::unique_ptr<PoNodeState> ProposalPacking::make_node(
    const PoNodeContext& ctx) {
  return std::make_unique<Node>(ctx);
}

std::optional<PoDirectRun> ProposalPacking::evaluate_direct(
    const Digraph& g, const PoSendObserver& on_send) const {
  // Flat form of Node. The two ends of an arc open and close together: a
  // SAT closes the end it leaves and the end it reaches in the same round,
  // and an open end is never silent, since both its nodes are live. So one
  // open flag per arc carries both ends, and every round each open arc
  // carries one message per end.
  const auto n = static_cast<std::size_t>(g.node_count());
  const int round_budget = proposal_packing_round_budget(g.node_count(),
                                                         g.arc_count());
  PoDirectRun run;
  run.arc_weights.resize(static_cast<std::size_t>(g.arc_count()));
  std::vector<Rational> residual(n, Rational(1));
  std::vector<int> open_ends(n, 0);  // a directed loop holds two ends
  std::vector<EdgeId> open_arcs;
  open_arcs.reserve(static_cast<std::size_t>(g.arc_count()));
  for (EdgeId a = 0; a < g.arc_count(); ++a) {
    ++open_ends[static_cast<std::size_t>(g.arc(a).tail)];
    ++open_ends[static_cast<std::size_t>(g.arc(a).head)];
    open_arcs.push_back(a);
  }
  // This round's message per live node: its offer residual / open, or SAT
  // (offered == 0) once saturated; `bytes` is the serialised size.
  std::vector<Rational> offer(n);
  std::vector<char> offered(n, 0);
  std::vector<std::size_t> bytes(n, 0);
  std::string text;
  const std::size_t sat_bytes = std::char_traits<char>::length(kSat);
  int round = 0;
  while (!open_arcs.empty()) {
    if (++round > round_budget) return std::nullopt;
    for (std::size_t v = 0; v < n; ++v) {
      if (open_ends[v] == 0) continue;
      offered[v] = residual[v].is_zero() ? 0 : 1;
      if (!offered[v]) {
        bytes[v] = sat_bytes;
        continue;
      }
      offer[v] = residual[v] / Rational(open_ends[v]);
      text.clear();
      offer[v].append_to(text);
      bytes[v] = text.size();
    }
    // An arc whose two ends both offered gains the smaller offer on each
    // end (a directed loop's node offers to itself through both, so it pays
    // twice); a SAT on either end closes the arc. Residuals fall only here,
    // after every offer of the round is fixed, as in Node::receive.
    std::size_t kept = 0;
    for (const EdgeId a : open_arcs) {
      const auto& arc = g.arc(a);
      const auto t = static_cast<std::size_t>(arc.tail);
      const auto h = static_cast<std::size_t>(arc.head);
      on_send({round, arc.tail, PoEnd{true, arc.color}, a, bytes[t]});
      on_send({round, arc.head, PoEnd{false, arc.color}, a, bytes[h]});
      if (offered[t] && offered[h]) {
        const Rational gain = Rational::min(offer[t], offer[h]);
        run.arc_weights[static_cast<std::size_t>(a)] += gain;
        residual[t] -= gain;
        residual[h] -= gain;
        open_arcs[kept++] = a;
      } else {
        --open_ends[t];
        --open_ends[h];
      }
    }
    open_arcs.resize(kept);
  }
  run.rounds = round;
  return run;
}

}  // namespace ldlb
