#include "ldlb/matching/seq_color_packing.hpp"

#include <algorithm>

#include "ldlb/graph/edge_coloring.hpp"

namespace ldlb {

namespace {

class Node final : public EcNodeState {
 public:
  Node(std::vector<Color> colors, int num_colors)
      : colors_(std::move(colors)), residual_(1) {
    last_round_ = 0;
    for (Color c : colors_) {
      LDLB_REQUIRE_MSG(c >= 0 && c < num_colors,
                       "edge colour " << c << " out of range [0, "
                                      << num_colors << ")");
      last_round_ = std::max(last_round_, c + 1);
    }
  }

  std::map<Color, Message> send(int round) override {
    Color c = round - 1;
    std::map<Color, Message> out;
    if (has_end(c)) out[c] = residual_.to_string();
    return out;
  }

  void receive(int round, const std::map<Color, Message>& inbox) override {
    Color c = round - 1;
    if (has_end(c)) {
      auto it = inbox.find(c);
      LDLB_ENSURE_MSG(it != inbox.end(),
                      "peer on colour " << c << " sent no residual");
      Rational peer = Rational::from_string(it->second);
      Rational w = Rational::min(residual_, peer);
      weights_[c] = w;
      residual_ -= w;
    }
    rounds_done_ = round;
  }

  [[nodiscard]] bool halted() const override {
    return rounds_done_ >= last_round_;
  }

  [[nodiscard]] std::map<Color, Rational> output() const override {
    return weights_;
  }

 private:
  [[nodiscard]] bool has_end(Color c) const {
    return std::binary_search(colors_.begin(), colors_.end(), c);
  }

  std::vector<Color> colors_;  // sorted by the simulator
  Rational residual_;
  std::map<Color, Rational> weights_;
  int last_round_ = 0;
  int rounds_done_ = 0;
};

}  // namespace

SeqColorPacking::SeqColorPacking(int num_colors) : num_colors_(num_colors) {
  LDLB_REQUIRE(num_colors >= 0);
}

std::unique_ptr<EcNodeState> SeqColorPacking::make_node(
    const EcNodeContext& ctx) {
  return std::make_unique<Node>(ctx.incident_colors, num_colors_);
}

std::optional<EcDirectRun> SeqColorPacking::evaluate_direct(
    const Multigraph& g) const {
  // Declines exactly where interpretation would fail: the Node constructor
  // rejects colours outside [0, num_colors).
  const std::optional<ColorClasses> classes = color_classes(g, num_colors_);
  if (!classes) return std::nullopt;
  const Color max_color = classes->max_color;

  EcDirectRun run;
  // Every node halts right after the round of its largest incident colour,
  // so the interpreter stops after round max_color + 1 (never entering the
  // loop at all on an edgeless graph).
  run.rounds = max_color + 1;
  run.edge_weights.resize(static_cast<std::size_t>(g.edge_count()));

  // Every value this algorithm ever holds is 0 or 1, by induction: the
  // residuals start at 1; a weight is the minimum of two residuals, so it
  // stays in {0, 1}; and subtracting it leaves the residuals in {0, 1}
  // (1−1 = 0, x−0 = x). The evaluation therefore runs on bytes — no
  // big-rational arithmetic at all — and every message is the single
  // character "0" or "1" (exactly what Node::send's to_string serialises),
  // so each delivery contributes one byte.
  static const Rational kOne(1);
  std::vector<unsigned char> residual(static_cast<std::size_t>(g.node_count()),
                                      1);
  // In round c+1 each endpoint of a colour-c edge sends its residual (one
  // delivery on a loop, two otherwise) and both ends settle on the minimum.
  for (Color c = 0; c <= max_color; ++c) {
    for (std::int32_t i = classes->offsets[static_cast<std::size_t>(c)];
         i < classes->offsets[static_cast<std::size_t>(c) + 1]; ++i) {
      const EdgeId e = classes->edges[static_cast<std::size_t>(i)];
      const auto& ed = g.edge(e);
      unsigned char& ru = residual[static_cast<std::size_t>(ed.u)];
      // Zero weights are already in place — resize default-constructed the
      // vector and Rational{} is 0/1 — so only saturating edges write.
      if (ed.is_loop()) {
        run.messages += 1;
        run.message_bytes += 1;
        if (ru) {
          run.edge_weights[static_cast<std::size_t>(e)] = kOne;
          ru = 0;
        }
      } else {
        unsigned char& rv = residual[static_cast<std::size_t>(ed.v)];
        run.messages += 2;
        run.message_bytes += 2;
        if (ru & rv) {  // min over {0, 1}
          run.edge_weights[static_cast<std::size_t>(e)] = kOne;
          ru = 0;
          rv = 0;
        }
      }
    }
  }
  return run;
}

}  // namespace ldlb
