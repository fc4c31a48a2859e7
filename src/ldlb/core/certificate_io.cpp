#include "ldlb/core/certificate_io.hpp"

#include <limits>
#include <ostream>

#include "ldlb/graph/graph_io.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/error.hpp"

namespace ldlb {

namespace {

constexpr long long kMaxId = std::numeric_limits<NodeId>::max();

Multigraph read_graph(LineReader& r, std::string_view tag) {
  r.expect(tag, "graph header");
  const NodeId nodes = static_cast<NodeId>(r.integer("node count", 0, kMaxId));
  const EdgeId edges = static_cast<EdgeId>(r.integer("edge count", 0, kMaxId));
  // Every certificate graph must be connected (LevelValidation::shape_ok),
  // so it has at most edges + 1 nodes. Rejecting a larger count here keeps
  // the validator from sizing per-node arrays by an arbitrary number.
  if (nodes > static_cast<long long>(edges) + 1) {
    r.fail("node count exceeds edge count + 1, so the graph cannot be "
           "connected",
           std::to_string(nodes));
  }
  // No reserve: a level's graphs are built while its payload text is still
  // held, and an exact reserve here raised the streamed verify's peak RSS
  // (heap layout) without a measurable speed-up.
  Multigraph g(nodes);
  for (EdgeId e = 0; e < edges; ++e) {
    EdgeLine ed;
    if (!r.edge_line('e', nodes - 1, kMaxId, ed)) {
      r.expect("e", "edge line");
      ed.u = r.integer("edge endpoint u", 0, nodes - 1);
      ed.v = r.integer("edge endpoint v", 0, nodes - 1);
      ed.colour = r.integer("colour", kUncoloured, kMaxId);
    }
    g.add_edge(static_cast<NodeId>(ed.u), static_cast<NodeId>(ed.v),
               static_cast<Color>(ed.colour));
  }
  return g;
}

Rational read_rational(LineReader& r, const char* what) {
  const std::string_view tok = r.token(what);
  try {
    return Rational::from_string(tok);
  } catch (const Error&) {
    r.fail(std::string("malformed rational ") + what, tok);
  }
}

}  // namespace

long long append_certificate_level(std::string& out,
                                   const CertificateLevel& lv) {
  // A sentinel in a witness field means the level was never certified; the
  // parser range-rejects such values, so refuse to emit them in the first
  // place rather than writing a file no reader will accept.
  LDLB_REQUIRE_MSG(lv.g_node != kNoNode && lv.h_node != kNoNode &&
                       lv.g_loop != kNoEdge && lv.h_loop != kNoEdge &&
                       lv.c != kUncoloured,
                   "level " << lv.level
                            << " carries unpopulated witness sentinels");
  out += "level ";
  append_int(out, lv.level);
  out += '\n';
  append_graph(out, lv.g, "g");
  append_graph(out, lv.h, "h");
  out += "witness";
  for (long long field : {lv.g_node, lv.h_node, lv.c, lv.g_loop, lv.h_loop}) {
    out += ' ';
    append_int(out, field);
  }
  out += ' ';
  lv.g_weight.append_to(out);
  out += ' ';
  lv.h_weight.append_to(out);
  out += ' ';
  append_int(out, lv.propagation_steps);
  out += '\n';
  // "level", the two graph headers, one line per edge, "witness".
  return 4 + static_cast<long long>(lv.g.edge_count()) + lv.h.edge_count();
}

void write_certificate_level(std::ostream& os, const CertificateLevel& lv) {
  std::string out;
  append_certificate_level(out, lv);
  os << out;
}

CertificateLevel read_certificate_level(LineReader& r) {
  r.expect("level", "level line");
  CertificateLevel lv;
  lv.level = static_cast<int>(r.integer("level index", 0, kMaxId));
  lv.g = read_graph(r, "g");
  lv.h = read_graph(r, "h");
  r.expect("witness", "witness line");
  lv.g_node = static_cast<NodeId>(
      r.integer("witness g node", 0, lv.g.node_count() - 1));
  lv.h_node = static_cast<NodeId>(
      r.integer("witness h node", 0, lv.h.node_count() - 1));
  lv.c = static_cast<Color>(r.integer("witness colour", 0, kMaxId));
  lv.g_loop = static_cast<EdgeId>(
      r.integer("witness g loop", 0, lv.g.edge_count() - 1));
  lv.h_loop = static_cast<EdgeId>(
      r.integer("witness h loop", 0, lv.h.edge_count() - 1));
  lv.g_weight = read_rational(r, "witness g weight");
  lv.h_weight = read_rational(r, "witness h weight");
  lv.propagation_steps =
      static_cast<int>(r.integer("propagation steps", 0, kMaxId));
  return lv;
}

void write_certificate(std::ostream& os, const LowerBoundCertificate& cert) {
  os << certificate_to_string(cert);
}

namespace {

LowerBoundCertificate read_certificate_body(LineReader& r) {
  r.expect("ldlb-certificate", "certificate magic");
  const long long version = r.integer("format version", 1, 1);
  (void)version;
  LowerBoundCertificate cert;
  r.expect("delta", "delta line");
  cert.delta = static_cast<int>(r.integer("delta", 0, kMaxId));
  r.expect("algorithm", "algorithm line");
  cert.algorithm_name = r.token("algorithm name");
  for (;;) {
    const std::string_view word = r.token("'level' or 'end'");
    if (word == "end") break;
    if (word != "level") r.fail("expected 'level' or 'end'", word);
    r.push_back(word);
    cert.levels.push_back(read_certificate_level(r));
  }
  return cert;
}

}  // namespace

LowerBoundCertificate read_certificate(std::istream& is) {
  LineReader r{is};
  return read_certificate_body(r);
}

std::string certificate_to_string(const LowerBoundCertificate& cert) {
  std::string out = "ldlb-certificate 1\ndelta ";
  append_int(out, cert.delta);
  out += "\nalgorithm ";
  out += cert.algorithm_name;
  out += '\n';
  for (const auto& lv : cert.levels) append_certificate_level(out, lv);
  out += "end\n";
  return out;
}

LowerBoundCertificate certificate_from_string(std::string_view text) {
  LineReader r{text};
  return read_certificate_body(r);
}

void write_certificate_file(const std::string& path,
                            const LowerBoundCertificate& cert) {
  write_file_atomic(path, certificate_to_string(cert));
}

LowerBoundCertificate read_certificate_file(const std::string& path) {
  return certificate_from_string(read_file(path));
}

}  // namespace ldlb
