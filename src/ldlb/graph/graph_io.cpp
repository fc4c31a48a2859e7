#include "ldlb/graph/graph_io.hpp"

#include <charconv>
#include <limits>
#include <ostream>

#include "ldlb/util/error.hpp"
#include "ldlb/util/line_reader.hpp"

namespace ldlb {

namespace {

constexpr long long kMaxId = std::numeric_limits<NodeId>::max();

Multigraph read_multigraph_body(LineReader& r) {
  r.expect("multigraph", "header");
  const NodeId nodes = static_cast<NodeId>(r.integer("node count", 0, kMaxId));
  const EdgeId edges = static_cast<EdgeId>(r.integer("edge count", 0, kMaxId));
  Multigraph g(nodes);
  g.reserve_edges(static_cast<EdgeId>(r.edge_capacity(edges)));
  for (EdgeId e = 0; e < edges; ++e) {
    EdgeLine ed;
    if (!r.edge_line('e', nodes - 1, kMaxId, ed)) {
      const std::string_view tag = r.token("edge line");
      if (tag != "e") {
        r.fail(tag == "multigraph" ? "duplicated header inside edge list"
                                   : "expected edge line 'e <u> <v> <colour>'",
               tag);
      }
      ed.u = r.integer("edge endpoint u", 0, nodes - 1);
      ed.v = r.integer("edge endpoint v", 0, nodes - 1);
      ed.colour = r.integer("colour", kUncoloured, kMaxId);
    }
    g.add_edge(static_cast<NodeId>(ed.u), static_cast<NodeId>(ed.v),
               static_cast<Color>(ed.colour));
  }
  return g;
}

Digraph read_digraph_body(LineReader& r) {
  r.expect("digraph", "header");
  const NodeId nodes = static_cast<NodeId>(r.integer("node count", 0, kMaxId));
  const EdgeId arcs = static_cast<EdgeId>(r.integer("arc count", 0, kMaxId));
  Digraph g(nodes);
  g.reserve_arcs(static_cast<EdgeId>(r.edge_capacity(arcs)));
  for (EdgeId a = 0; a < arcs; ++a) {
    EdgeLine arc;
    if (!r.edge_line('a', nodes - 1, kMaxId, arc)) {
      const std::string_view tag = r.token("arc line");
      if (tag != "a") {
        r.fail(tag == "digraph"
                   ? "duplicated header inside arc list"
                   : "expected arc line 'a <tail> <head> <colour>'",
               tag);
      }
      arc.u = r.integer("arc tail", 0, nodes - 1);
      arc.v = r.integer("arc head", 0, nodes - 1);
      arc.colour = r.integer("colour", kUncoloured, kMaxId);
    }
    g.add_arc(static_cast<NodeId>(arc.u), static_cast<NodeId>(arc.v),
              static_cast<Color>(arc.colour));
  }
  return g;
}

// Appends "<tag> <a> <b> <c>\n", one edge or arc line, with a single
// append.
void append_item(std::string& out, char tag, long long a, long long b,
                 long long c) {
  char line[72];  // the tag, three " <long long>" and the newline
  char* const end = line + sizeof line;
  char* p = line;
  *p++ = tag;
  for (long long value : {a, b, c}) {
    *p++ = ' ';
    p = std::to_chars(p, end, value).ptr;
  }
  *p++ = '\n';
  out.append(line, p);
}

// Appends "<tag> <nodes> <items>\n".
void append_header(std::string& out, std::string_view tag, long long nodes,
                   long long items) {
  out += tag;
  out += ' ';
  append_int(out, nodes);
  out += ' ';
  append_int(out, items);
  out += '\n';
}

}  // namespace

void append_graph(std::string& out, const Multigraph& g,
                  std::string_view tag) {
  append_header(out, tag, g.node_count(), g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    append_item(out, 'e', ed.u, ed.v, ed.color);
  }
}

void append_graph(std::string& out, const Digraph& g) {
  append_header(out, "digraph", g.node_count(), g.arc_count());
  for (EdgeId a = 0; a < g.arc_count(); ++a) {
    const auto& arc = g.arc(a);
    append_item(out, 'a', arc.tail, arc.head, arc.color);
  }
}

void write_graph(std::ostream& os, const Multigraph& g) {
  os << graph_to_string(g);
}

void write_graph(std::ostream& os, const Digraph& g) {
  os << graph_to_string(g);
}

Multigraph read_multigraph(std::istream& is) {
  LineReader r{is};
  return read_multigraph_body(r);
}

Digraph read_digraph(std::istream& is) {
  LineReader r{is};
  return read_digraph_body(r);
}

std::string graph_to_string(const Multigraph& g) {
  std::string out;
  append_graph(out, g);
  return out;
}

std::string graph_to_string(const Digraph& g) {
  std::string out;
  append_graph(out, g);
  return out;
}

Multigraph multigraph_from_string(std::string_view text) {
  LineReader r{text};
  Multigraph g = read_multigraph_body(r);
  if (!r.at_end()) r.fail("trailing garbage after graph", r.token("?"));
  return g;
}

Digraph digraph_from_string(std::string_view text) {
  LineReader r{text};
  Digraph g = read_digraph_body(r);
  if (!r.at_end()) r.fail("trailing garbage after graph", r.token("?"));
  return g;
}

}  // namespace ldlb
