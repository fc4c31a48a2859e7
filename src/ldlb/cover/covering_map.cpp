#include "ldlb/cover/covering_map.hpp"

#include <algorithm>
#include <map>
#include <vector>

namespace ldlb {

namespace {

// colour -> head, over the out-ends at v; and colour -> tail over in-ends.
std::map<Color, NodeId> out_end_map(const Digraph& g, NodeId v) {
  std::map<Color, NodeId> out;
  for (EdgeId e : g.out_arcs(v)) out[g.arc(e).color] = g.arc(e).head;
  return out;
}
std::map<Color, NodeId> in_end_map(const Digraph& g, NodeId v) {
  std::map<Color, NodeId> out;
  for (EdgeId e : g.in_arcs(v)) out[g.arc(e).color] = g.arc(e).tail;
  return out;
}

}  // namespace

bool is_covering_map(const Multigraph& h, const Multigraph& g,
                     const std::vector<NodeId>& alpha) {
  if (static_cast<NodeId>(alpha.size()) != h.node_count()) return false;
  if (!h.has_proper_edge_coloring() || !g.has_proper_edge_coloring()) {
    return false;
  }
  // Colour-stamped flat arrays instead of a std::map per node: this check
  // runs on every lift the adversary builds (twice per level), and the
  // map-based version dominated the Δ=12 profile. Properness (checked
  // above) makes colours at a node distinct and non-negative, so the
  // per-node colour profile fits one stamped slot per colour. A loop
  // contributes one end with "other endpoint" = the node itself (EC
  // convention). `slot_of` maps a colour to its slot, below `slots`.
  auto check = [&](auto slot_of, std::size_t slots) {
    std::vector<bool> hit(static_cast<std::size_t>(g.node_count()), false);
    // stamp[s] == v marks maps_to[s] as the endpoint at alpha(v) along the
    // colour of slot s, written in this iteration of the loop below.
    std::vector<NodeId> maps_to(slots, kNoNode);
    std::vector<NodeId> stamp(slots, kNoNode);
    for (NodeId v = 0; v < h.node_count(); ++v) {
      NodeId av = alpha[static_cast<std::size_t>(v)];
      if (av < 0 || av >= g.node_count()) return false;
      hit[static_cast<std::size_t>(av)] = true;
      int deg_g = 0;
      for (EdgeId e : g.incident_edges(av)) {
        const std::size_t s = slot_of(g.edge(e).color);
        maps_to[s] = g.other_endpoint(e, av);
        stamp[s] = v;
        ++deg_g;
      }
      int deg_h = 0;
      for (EdgeId e : h.incident_edges(v)) {
        const std::size_t s = slot_of(h.edge(e).color);
        if (stamp[s] != v) return false;  // colour profile preserved
        if (alpha[static_cast<std::size_t>(h.other_endpoint(e, v))] !=
            maps_to[s]) {
          return false;
        }
        ++deg_h;
      }
      if (deg_h != deg_g) return false;  // degree preserved
    }
    // Onto.
    return std::all_of(hit.begin(), hit.end(), [](bool b) { return b; });
  };

  Color max_color = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    max_color = std::max(max_color, g.edge(e).color);
  }
  for (EdgeId e = 0; e < h.edge_count(); ++e) {
    max_color = std::max(max_color, h.edge(e).color);
  }
  if (static_cast<std::size_t>(max_color) <
      static_cast<std::size_t>(g.node_count()) +
          static_cast<std::size_t>(g.edge_count()) +
          static_cast<std::size_t>(h.edge_count())) {
    return check([](Color c) { return static_cast<std::size_t>(c); },
                 static_cast<std::size_t>(max_color) + 1);
  }
  // Colour values beyond the graphs' size would make the slot arrays as
  // large as the colour itself, so slots are ranks among g's colours
  // instead; a colour g lacks gets the spare last slot, never stamped.
  std::vector<Color> palette;
  palette.reserve(static_cast<std::size_t>(g.edge_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    palette.push_back(g.edge(e).color);
  }
  std::sort(palette.begin(), palette.end());
  palette.erase(std::unique(palette.begin(), palette.end()), palette.end());
  return check(
      [&palette](Color c) -> std::size_t {
        auto it = std::lower_bound(palette.begin(), palette.end(), c);
        if (it == palette.end() || *it != c) return palette.size();
        return static_cast<std::size_t>(it - palette.begin());
      },
      palette.size() + 1);
}

bool is_covering_map(const Digraph& h, const Digraph& g,
                     const std::vector<NodeId>& alpha) {
  if (static_cast<NodeId>(alpha.size()) != h.node_count()) return false;
  if (!h.has_proper_po_coloring() || !g.has_proper_po_coloring()) return false;
  std::vector<bool> hit(static_cast<std::size_t>(g.node_count()), false);
  for (NodeId v = 0; v < h.node_count(); ++v) {
    NodeId av = alpha[static_cast<std::size_t>(v)];
    if (av < 0 || av >= g.node_count()) return false;
    hit[static_cast<std::size_t>(av)] = true;

    auto outs_h = out_end_map(h, v);
    auto outs_g = out_end_map(g, av);
    if (outs_h.size() != outs_g.size()) return false;
    for (const auto& [color, head_h] : outs_h) {
      auto it = outs_g.find(color);
      if (it == outs_g.end()) return false;
      if (alpha[static_cast<std::size_t>(head_h)] != it->second) return false;
    }

    auto ins_h = in_end_map(h, v);
    auto ins_g = in_end_map(g, av);
    if (ins_h.size() != ins_g.size()) return false;
    for (const auto& [color, tail_h] : ins_h) {
      auto it = ins_g.find(color);
      if (it == ins_g.end()) return false;
      if (alpha[static_cast<std::size_t>(tail_h)] != it->second) return false;
    }
  }
  for (bool b : hit) {
    if (!b) return false;
  }
  return true;
}

}  // namespace ldlb
