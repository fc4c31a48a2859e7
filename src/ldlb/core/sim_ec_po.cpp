#include "ldlb/core/sim_ec_po.hpp"

#include <charconv>

#include "ldlb/util/error.hpp"

namespace ldlb {

DoubledGraph double_ec_graph(const Multigraph& g) {
  LDLB_REQUIRE_MSG(g.has_proper_edge_coloring(),
                   "the §5.1 doubling needs a proper EC colouring");
  DoubledGraph out;
  out.digraph.add_nodes(g.node_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    if (ed.is_loop()) {
      EdgeId a = out.digraph.add_arc(ed.u, ed.u, ed.color);
      out.arc_of_edge.push_back({a, kNoEdge});
    } else {
      EdgeId a1 = out.digraph.add_arc(ed.u, ed.v, ed.color);
      EdgeId a2 = out.digraph.add_arc(ed.v, ed.u, ed.color);
      out.arc_of_edge.push_back({a1, a2});
    }
  }
  LDLB_ENSURE(out.digraph.has_proper_po_coloring());
  return out;
}

Message encode_message_pair(const Message* out_part, const Message* in_part) {
  auto chunk = [](const Message* m) {
    if (m == nullptr) return std::string("-");
    return std::to_string(m->size()) + ":" + *m;
  };
  return chunk(out_part) + chunk(in_part);
}

namespace {

// Parses one chunk starting at `pos`; advances `pos`.
bool parse_chunk(const Message& packed, std::size_t& pos, Message& out) {
  LDLB_REQUIRE_MSG(pos < packed.size(), "truncated message pair");
  if (packed[pos] == '-') {
    ++pos;
    return false;
  }
  std::size_t colon = packed.find(':', pos);
  LDLB_REQUIRE_MSG(colon != std::string::npos, "malformed message pair");
  std::size_t len = 0;
  auto res = std::from_chars(packed.data() + pos, packed.data() + colon, len);
  LDLB_REQUIRE_MSG(res.ec == std::errc{} && res.ptr == packed.data() + colon,
                   "malformed message length");
  pos = colon + 1;
  LDLB_REQUIRE_MSG(pos + len <= packed.size(), "truncated message body");
  out = packed.substr(pos, len);
  pos += len;
  return true;
}

class Node final : public EcNodeState {
 public:
  Node(std::unique_ptr<PoNodeState> inner, std::vector<Color> colors)
      : inner_(std::move(inner)), colors_(std::move(colors)) {}

  std::map<Color, Message> send(int round) override {
    std::map<PoEnd, Message> po_out = inner_->send(round);
    std::map<Color, Message> out;
    for (Color c : colors_) {
      auto oit = po_out.find(PoEnd{true, c});
      auto iit = po_out.find(PoEnd{false, c});
      const Message* op = oit == po_out.end() ? nullptr : &oit->second;
      const Message* ip = iit == po_out.end() ? nullptr : &iit->second;
      if (op != nullptr || ip != nullptr) {
        out[c] = encode_message_pair(op, ip);
      }
    }
    return out;
  }

  void receive(int round, const std::map<Color, Message>& inbox) override {
    std::map<PoEnd, Message> po_in;
    for (const auto& [c, packed] : inbox) {
      MessagePair pair = decode_message_pair(packed);
      // The peer's out-half feeds our in-end; its in-half feeds our out-end.
      if (pair.has_out) po_in[PoEnd{false, c}] = pair.out;
      if (pair.has_in) po_in[PoEnd{true, c}] = pair.in;
    }
    inner_->receive(round, po_in);
  }

  [[nodiscard]] bool halted() const override { return inner_->halted(); }

  [[nodiscard]] std::map<Color, Rational> output() const override {
    std::map<PoEnd, Rational> po = inner_->output();
    std::map<Color, Rational> out;
    for (Color c : colors_) {
      auto oit = po.find(PoEnd{true, c});
      auto iit = po.find(PoEnd{false, c});
      LDLB_REQUIRE_MSG(oit != po.end() && iit != po.end(),
                       "inner PO node missing output on colour " << c);
      // y_EC(e) = y(u,v) + y(v,u); for a loop this doubles the directed
      // loop's weight, matching the once-counted EC loop convention.
      out[c] = oit->second + iit->second;
    }
    return out;
  }

 private:
  std::unique_ptr<PoNodeState> inner_;
  std::vector<Color> colors_;
};

}  // namespace

MessagePair decode_message_pair(const Message& packed) {
  MessagePair pair;
  std::size_t pos = 0;
  pair.has_out = parse_chunk(packed, pos, pair.out);
  pair.has_in = parse_chunk(packed, pos, pair.in);
  LDLB_REQUIRE_MSG(pos == packed.size(), "trailing bytes in message pair");
  return pair;
}

std::optional<EcDirectRun> EcFromPo::evaluate_direct(
    const Multigraph& g) const {
  const DoubledGraph doubled = double_ec_graph(g);
  std::vector<EdgeId> edge_of_arc(
      static_cast<std::size_t>(doubled.digraph.arc_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto [a1, a2] = doubled.arc_of_edge[static_cast<std::size_t>(e)];
    edge_of_arc[static_cast<std::size_t>(a1)] = e;
    if (a2 != kNoEdge) edge_of_arc[static_cast<std::size_t>(a2)] = e;
  }
  // Node::send packs the out-half and in-half of one EC end — slot 2e for
  // edge e's end at its endpoint u, 2e+1 at v — into one message,
  // "<len>:<body>" per present half and "-" per absent one. The first send
  // of a round on a slot opens its message with the other half counted
  // absent; a second send on it fills that half in.
  EcDirectRun run;
  std::vector<int> last_round(static_cast<std::size_t>(2 * g.edge_count()), 0);
  auto framed = [](std::size_t body) {
    long long digits = 1;
    for (std::size_t rest = body / 10; rest != 0; rest /= 10) ++digits;
    return digits + 1 + static_cast<long long>(body);
  };
  const PoSendObserver on_send = [&](const PoSend& send) {
    const EdgeId e = edge_of_arc[static_cast<std::size_t>(send.arc)];
    const auto slot =
        static_cast<std::size_t>(2 * e + (send.node == g.edge(e).u ? 0 : 1));
    if (last_round[slot] == send.round) {
      run.message_bytes += framed(send.bytes) - 1;
    } else {
      last_round[slot] = send.round;
      ++run.messages;
      run.message_bytes += framed(send.bytes) + 1;
    }
  };
  std::optional<PoDirectRun> po =
      inner_->evaluate_direct(doubled.digraph, on_send);
  if (!po) return std::nullopt;
  run.rounds = po->rounds;
  run.edge_weights.resize(static_cast<std::size_t>(g.edge_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto [a1, a2] = doubled.arc_of_edge[static_cast<std::size_t>(e)];
    Rational& w = run.edge_weights[static_cast<std::size_t>(e)];
    w = po->arc_weights[static_cast<std::size_t>(a1)];
    w += po->arc_weights[static_cast<std::size_t>(a2 == kNoEdge ? a1 : a2)];
  }
  return run;
}

std::unique_ptr<EcNodeState> EcFromPo::make_node(const EcNodeContext& ctx) {
  PoNodeContext po_ctx;
  po_ctx.out_colors = ctx.incident_colors;
  po_ctx.in_colors = ctx.incident_colors;
  po_ctx.max_degree = 2 * ctx.max_degree;
  return std::make_unique<Node>(inner_->make_node(po_ctx),
                                ctx.incident_colors);
}

}  // namespace ldlb
