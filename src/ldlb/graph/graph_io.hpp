// Text serialisation of graphs (edge-list format).
//
// Lets users bring their own workloads to the examples and tools, and
// persists the adversary's constructions. Format:
//
//   multigraph <nodes> <edges>        |   digraph <nodes> <arcs>
//   e <u> <v> <colour>                |   a <tail> <head> <colour>
//   ...                               |   ...
//
// Colour -1 denotes an uncoloured edge.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "ldlb/graph/digraph.hpp"
#include "ldlb/graph/multigraph.hpp"

namespace ldlb {

/// Appends the format above to `out`. The multigraph header carries `tag`
/// in place of "multigraph": certificate_io writes its G_i / H_i blocks
/// through the same edge-list writer as "g" / "h".
void append_graph(std::string& out, const Multigraph& g,
                  std::string_view tag = "multigraph");
void append_graph(std::string& out, const Digraph& g);

void write_graph(std::ostream& os, const Multigraph& g);
void write_graph(std::ostream& os, const Digraph& g);

/// Parses the format above; throws ParseError (with the 1-based line number
/// and the offending token) on malformed input: bad header, out-of-range
/// endpoints, colours below -1, truncation. The stream readers stop after
/// the last edge line so several objects can share a stream; the
/// `*_from_string` variants parse in place and additionally reject
/// trailing garbage.
Multigraph read_multigraph(std::istream& is);
Digraph read_digraph(std::istream& is);

std::string graph_to_string(const Multigraph& g);
std::string graph_to_string(const Digraph& g);
Multigraph multigraph_from_string(std::string_view text);
Digraph digraph_from_string(std::string_view text);

}  // namespace ldlb
