// Serialisation of lower-bound certificates.
//
// Certificates are the repository's primary artefact: a third party should
// be able to store one, ship it, reload it and re-validate it against the
// algorithm without trusting the process that produced it. The format is a
// line-oriented text format (stable, diff-able, no external dependencies):
//
//   ldlb-certificate 1
//   delta <d>
//   algorithm <name>
//   level <i>
//   g <nodes> <edges>
//   e <u> <v> <colour>        (edges of G_i, in id order)
//   h <nodes> <edges>
//   e <u> <v> <colour>        (edges of H_i)
//   witness <g_node> <h_node> <colour> <g_loop> <h_loop> <w_g> <w_h> <steps>
//   ...
//   end
//
// Weights are exact rationals rendered as "num/den".
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "ldlb/core/certificate.hpp"
#include "ldlb/util/line_reader.hpp"

namespace ldlb {

/// Writes the certificate in the text format above.
void write_certificate(std::ostream& os, const LowerBoundCertificate& cert);

/// Parses a certificate; throws ParseError (with the 1-based line number
/// and the offending token) on malformed input.
LowerBoundCertificate read_certificate(std::istream& is);

/// Appends one level in the chain format ("level" through "witness" lines)
/// to `out` and returns how many lines it appended: 4 + |E(G)| + |E(H)|.
/// Requires the witness fields to be populated — a level still carrying
/// the kNoNode / kNoEdge sentinels is not serialisable evidence.
long long append_certificate_level(std::string& out,
                                   const CertificateLevel& lv);

/// append_certificate_level onto a stream.
void write_certificate_level(std::ostream& os, const CertificateLevel& lv);

/// Reads one level, starting at its "level" keyword; throws ParseError on
/// malformed input, including a graph whose node count exceeds its edge
/// count + 1 (it cannot be connected). Shared by read_certificate, the
/// certificate log, the snapshot store and the fleet's validate verb, so
/// the formats cannot drift apart.
CertificateLevel read_certificate_level(LineReader& r);

/// Convenience round-trips through strings; the reader parses in place.
std::string certificate_to_string(const LowerBoundCertificate& cert);
LowerBoundCertificate certificate_from_string(std::string_view text);

/// Atomically replaces `path` with the serialised certificate (temp file +
/// fsync + rename, see util/atomic_file.hpp): a crash mid-write leaves the
/// previous file intact instead of a torn certificate. Throws IoError when
/// the filesystem refuses.
void write_certificate_file(const std::string& path,
                            const LowerBoundCertificate& cert);

/// Reads a certificate from a file; throws IoError when the file cannot be
/// read and ParseError when its content is malformed.
LowerBoundCertificate read_certificate_file(const std::string& path);

}  // namespace ldlb
