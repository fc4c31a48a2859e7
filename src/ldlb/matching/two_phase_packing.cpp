#include "ldlb/matching/two_phase_packing.hpp"

#include <algorithm>
#include <string>

#include "ldlb/graph/edge_coloring.hpp"

namespace ldlb {

namespace {

class Node final : public EcNodeState {
 public:
  Node(std::vector<Color> colors, int num_colors)
      : colors_(std::move(colors)), num_colors_(num_colors), residual_(1) {
    int max_color = -1;
    for (Color c : colors_) {
      LDLB_REQUIRE_MSG(c >= 0 && c < num_colors,
                       "edge colour " << c << " out of range [0, "
                                      << num_colors << ")");
      max_color = std::max(max_color, c);
    }
    // Rounds 1..k are sweep 1, k+1..2k sweep 2; we can halt after our own
    // highest colour's sweep-2 round.
    last_round_ = max_color < 0 ? 0 : num_colors_ + max_color + 1;
  }

  std::map<Color, Message> send(int round) override {
    Color c = color_of_round(round);
    std::map<Color, Message> out;
    if (has_end(c)) out[c] = residual_.to_string();
    return out;
  }

  void receive(int round, const std::map<Color, Message>& inbox) override {
    Color c = color_of_round(round);
    if (has_end(c)) {
      auto it = inbox.find(c);
      LDLB_ENSURE(it != inbox.end());
      Rational peer = Rational::from_string(it->second);
      Rational take = Rational::min(residual_, peer);
      if (round <= num_colors_) take *= Rational(1, 2);  // sweep 1: half
      weights_[c] += take;
      residual_ -= take;
    }
    rounds_done_ = round;
  }

  [[nodiscard]] bool halted() const override {
    return rounds_done_ >= last_round_;
  }

  [[nodiscard]] std::map<Color, Rational> output() const override {
    std::map<Color, Rational> out;
    for (Color c : colors_) {
      auto it = weights_.find(c);
      out[c] = it == weights_.end() ? Rational(0) : it->second;
    }
    return out;
  }

 private:
  [[nodiscard]] Color color_of_round(int round) const {
    return round <= num_colors_ ? round - 1 : round - num_colors_ - 1;
  }
  [[nodiscard]] bool has_end(Color c) const {
    return std::binary_search(colors_.begin(), colors_.end(), c);
  }

  std::vector<Color> colors_;
  int num_colors_;
  Rational residual_;
  std::map<Color, Rational> weights_;
  int last_round_ = 0;
  int rounds_done_ = 0;
};

}  // namespace

TwoPhasePacking::TwoPhasePacking(int num_colors) : num_colors_(num_colors) {
  LDLB_REQUIRE(num_colors >= 0);
}

std::unique_ptr<EcNodeState> TwoPhasePacking::make_node(
    const EcNodeContext& ctx) {
  return std::make_unique<Node>(ctx.incident_colors, num_colors_);
}

std::optional<EcDirectRun> TwoPhasePacking::evaluate_direct(
    const Multigraph& g) const {
  // Declines exactly where interpretation would fail: the Node constructor
  // rejects colours outside [0, num_colors).
  const std::optional<ColorClasses> classes = color_classes(g, num_colors_);
  if (!classes) return std::nullopt;
  const Color max_color = classes->max_color;

  EcDirectRun run;
  // A node halts after the sweep-2 round of its largest colour, so the last
  // one halts after round k + max_color + 1 — and an edgeless graph before
  // round 1.
  run.rounds = max_color < 0 ? 0 : num_colors_ + max_color + 1;
  run.edge_weights.resize(static_cast<std::size_t>(g.edge_count()));

  // SeqColorPacking's sweep, twice, over exact residuals: the halving makes
  // them dyadic rationals, so unlike seq's there is no byte shortcut. Each
  // send is the sender's residual as Node::send serialises it; `text` is
  // reused to measure it. Colour classes are conflict-free, so the order of
  // edges within a class cannot matter.
  const Rational half(1, 2);
  std::vector<Rational> residual(static_cast<std::size_t>(g.node_count()),
                                 Rational(1));
  std::string text;
  auto send = [&](const Rational& r) {
    text.clear();
    r.append_to(text);
    ++run.messages;
    run.message_bytes += static_cast<long long>(text.size());
  };
  for (int sweep = 1; sweep <= 2; ++sweep) {
    for (Color c = 0; c <= max_color; ++c) {
      for (std::int32_t i = classes->offsets[static_cast<std::size_t>(c)];
           i < classes->offsets[static_cast<std::size_t>(c) + 1]; ++i) {
        const EdgeId e = classes->edges[static_cast<std::size_t>(i)];
        const auto& ed = g.edge(e);
        Rational& ru = residual[static_cast<std::size_t>(ed.u)];
        Rational& rv = residual[static_cast<std::size_t>(ed.v)];
        // A loop delivers the node's residual back to itself once; the
        // node then takes min(r, r) = r and subtracts it once.
        send(ru);
        if (!ed.is_loop()) send(rv);
        Rational take = Rational::min(ru, rv);
        if (sweep == 1) take *= half;
        run.edge_weights[static_cast<std::size_t>(e)] += take;
        ru -= take;
        if (!ed.is_loop()) rv -= take;
      }
    }
  }
  return run;
}

}  // namespace ldlb
