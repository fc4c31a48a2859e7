// Malformed-input corpus for the text parsers (graph_io, certificate_io).
//
// Every entry must produce a typed ParseError — never a crash, never a
// silent acceptance — and the error must point at the right line. A
// randomised mutation sweep then hammers the parsers with corrupted
// round-trip text: any outcome other than "parsed" or "typed ldlb::Error"
// is a bug. The text codec (util/line_reader) is then checked against the
// istringstream tokenizer and ostream writers it replaced: same tokens,
// integers and ParseErrors, same bytes, and a pinned digest of a Δ=14 log.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/core/sim_ec_po.hpp"
#include "ldlb/fault/fleet.hpp"
#include "ldlb/graph/edge_coloring.hpp"
#include "ldlb/graph/generators.hpp"
#include "ldlb/graph/graph_io.hpp"
#include "ldlb/matching/proposal_packing.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/checksum.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/line_reader.hpp"
#include "ldlb/util/rng.hpp"

namespace ldlb {
namespace {

// --- multigraph corpus -----------------------------------------------------

struct Malformed {
  const char* text;
  const char* why;
};

const Malformed kBadMultigraphs[] = {
    {"", "empty input"},
    {"multigraph", "truncated header: no counts"},
    {"multigraph 2", "truncated header: no edge count"},
    {"multigraph -1 0\n", "negative node count"},
    {"multigraph 2 -1\n", "negative edge count"},
    {"multigraph two 1\n", "non-numeric node count"},
    {"multigraph 2 1\n", "truncated edge list"},
    {"multigraph 2 2\ne 0 1 0\n", "one edge missing"},
    {"multigraph 2 1\nx 0 1 0\n", "bad edge tag"},
    {"multigraph 2 2\ne 0 1 0\nmultigraph 2 1\n", "duplicated header"},
    {"multigraph 2 1\ne 0 5 0\n", "endpoint out of range"},
    {"multigraph 2 1\ne -1 1 0\n", "negative endpoint"},
    {"multigraph 2 1\ne 0 1 -3\n", "colour below -1"},
    {"multigraph 2 1\ne 0 1 0.5\n", "fractional colour"},
    {"digraph 1 0\n", "wrong object kind"},
};

TEST(IoFuzz, MultigraphCorpusRejectedWithParseError) {
  for (const auto& bad : kBadMultigraphs) {
    try {
      multigraph_from_string(bad.text);
      FAIL() << "accepted " << bad.why << ": " << bad.text;
    } catch (const ParseError&) {
      // expected
    }
  }
}

TEST(IoFuzz, MultigraphTrailingGarbageRejected) {
  EXPECT_THROW(multigraph_from_string("multigraph 1 0\nleftover\n"),
               ParseError);
  // The plain stream reader stops after the last edge, so several graphs
  // can share one stream.
  std::istringstream two{"multigraph 1 0\nmultigraph 2 1\ne 0 1 4\n"};
  Multigraph first = read_multigraph(two);
  Multigraph second = read_multigraph(two);
  EXPECT_EQ(first.node_count(), 1);
  EXPECT_EQ(second.edge_count(), 1);
}

const Malformed kBadDigraphs[] = {
    {"", "empty input"},
    {"digraph 2", "truncated header"},
    {"digraph 2 1\n", "truncated arc list"},
    {"digraph 2 1\ne 0 1 0\n", "edge tag in a digraph"},
    {"digraph 2 1\na 0 9 0\n", "head out of range"},
    {"digraph 2 1\na 0 1 -2\n", "colour below -1"},
    {"multigraph 1 0\n", "wrong object kind"},
};

TEST(IoFuzz, DigraphCorpusRejectedWithParseError) {
  for (const auto& bad : kBadDigraphs) {
    try {
      digraph_from_string(bad.text);
      FAIL() << "accepted " << bad.why << ": " << bad.text;
    } catch (const ParseError&) {
      // expected
    }
  }
}

// --- certificate corpus ----------------------------------------------------

std::string valid_certificate_text() {
  // A syntactically complete single-level certificate: both graphs are one
  // node with two loops (colours 0 and 1).
  return "ldlb-certificate 1\n"
         "delta 2\n"
         "algorithm Test\n"
         "level 0\n"
         "g 1 2\n"
         "e 0 0 0\n"
         "e 0 0 1\n"
         "h 1 2\n"
         "e 0 0 0\n"
         "e 0 0 1\n"
         "witness 0 0 0 0 0 1/2 1/3 4\n"
         "end\n";
}

TEST(IoFuzz, ValidCertificateParses) {
  LowerBoundCertificate cert = certificate_from_string(valid_certificate_text());
  EXPECT_EQ(cert.delta, 2);
  ASSERT_EQ(cert.levels.size(), 1u);
  EXPECT_EQ(cert.levels[0].g_weight, Rational(1, 2));
  EXPECT_EQ(cert.levels[0].h_weight, Rational(1, 3));
  // Round-trip stability.
  EXPECT_EQ(certificate_to_string(cert), valid_certificate_text());
}

const Malformed kBadCertificates[] = {
    {"", "empty input"},
    {"ldlb-certificate 2\n", "unsupported version"},
    {"not-a-certificate 1\n", "wrong magic"},
    {"ldlb-certificate 1\ndelta 2\nalgorithm A\n", "missing end"},
    {"ldlb-certificate 1\ndelta 2\nalgorithm A\nlevel 0\nend\n",
     "level without graphs"},
    {"ldlb-certificate 1\nalgorithm A\ndelta 2\nend\n",
     "delta and algorithm swapped"},
};

TEST(IoFuzz, CertificateCorpusRejectedWithParseError) {
  for (const auto& bad : kBadCertificates) {
    try {
      certificate_from_string(bad.text);
      FAIL() << "accepted " << bad.why;
    } catch (const ParseError&) {
      // expected
    }
  }
}

TEST(IoFuzz, CertificateBadRationalDiagnosed) {
  std::string text = valid_certificate_text();
  const auto at = text.find("1/2");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 3, "1/x");
  try {
    certificate_from_string(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 11);  // the witness line
    EXPECT_EQ(e.token(), "1/x");
  }
}

TEST(IoFuzz, CertificateWitnessOutOfRangeDiagnosed) {
  std::string text = valid_certificate_text();
  const auto at = text.find("witness 0");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 9, "witness 5");  // g witness node out of range
  try {
    certificate_from_string(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 11);
  }
}

TEST(IoFuzz, SentinelWitnessFieldsRejected) {
  // A witness field still carrying a kNoNode / kNoEdge / kUncoloured
  // sentinel (-1) is an uncertified level; the parser must range-reject it,
  // and the writer must refuse to produce such text in the first place.
  const std::string base = valid_certificate_text();
  const auto witness_at = base.find("witness ");
  ASSERT_NE(witness_at, std::string::npos);
  const auto witness_end = base.find('\n', witness_at);
  const std::string fields_text =
      base.substr(witness_at + 8, witness_end - witness_at - 8);
  // Fields: g_node h_node colour g_loop h_loop — poison each in turn.
  for (int field = 0; field < 5; ++field) {
    std::istringstream is{fields_text};
    std::ostringstream line;
    std::string tok;
    for (int i = 0; is >> tok; ++i) {
      line << (i == 0 ? "" : " ") << (i == field ? "-1" : tok);
    }
    const std::string text = base.substr(0, witness_at) + "witness " +
                             line.str() + base.substr(witness_end);
    EXPECT_THROW(certificate_from_string(text), ParseError)
        << "sentinel in witness field " << field << " accepted";
  }

  CertificateLevel unset;
  unset.g = Multigraph(1);
  unset.h = Multigraph(1);
  std::ostringstream os;
  EXPECT_THROW(write_certificate_level(os, unset), ContractViolation);
}

// --- truncation sweeps -----------------------------------------------------

// Every byte-prefix of a certificate must either parse to the full chain or
// raise a line-sited ParseError — no crashes, no silent partial loads.
TEST(IoFuzz, CertificateTruncationSweep) {
  SeqColorPacking alg{4};
  const std::string full =
      certificate_to_string(run_adversary(alg, 4));
  int parsed = 0;
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::string text = full.substr(0, cut);
    try {
      LowerBoundCertificate cert = certificate_from_string(text);
      // The only acceptable accepted prefix is the whole chain (the final
      // newline is optional for a line-oriented reader).
      EXPECT_EQ(certificate_to_string(cert), full) << "cut at byte " << cut;
      ++parsed;
    } catch (const ParseError& e) {
      EXPECT_GE(e.line(), 0) << "cut at byte " << cut;
    }
    // Anything else escapes the test as a failure.
  }
  EXPECT_EQ(parsed, 1);  // exactly the cut through the final newline
}

// --- certificate-log damage sweeps ----------------------------------------

// The loader's degradation contract: whatever it salvages must be a byte
// -exact prefix of the clean chain's levels — never reordered, never
// repeated, never invented.
void expect_clean_prefix(const LowerBoundCertificate& loaded,
                         const LowerBoundCertificate& chain) {
  ASSERT_LE(loaded.levels.size(), chain.levels.size());
  for (std::size_t i = 0; i < loaded.levels.size(); ++i) {
    std::ostringstream got, want;
    write_certificate_level(got, loaded.levels[i]);
    write_certificate_level(want, chain.levels[i]);
    EXPECT_EQ(got.str(), want.str()) << "level " << i;
  }
}

// The append-only certificate log (recover/cert_log): every corruption
// lands in the *typed* damage taxonomy — kTornTail is repaired, everything
// else rejects the artefact — and load() never throws, never invents
// levels, never returns anything but a byte-exact prefix of the clean chain.

struct CertLogFixture {
  LowerBoundCertificate chain;
  std::string full;   // clean serialized log
  std::string path;
  std::vector<std::uint64_t> offsets;  // record start offsets + end-of-file
};

CertLogFixture make_cert_log_fixture(const char* name) {
  CertLogFixture f;
  SeqColorPacking alg{4};
  f.chain = run_adversary(alg, 4);
  f.full = CertificateLog::serialize(f.chain);
  f.path =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  write_file_atomic(f.path, f.full);
  const CertLogReport clean = inspect_certificate_log(
      f.path,
      [&](const CertLogRecordInfo& rec) { f.offsets.push_back(rec.offset); });
  EXPECT_EQ(clean.damage, LogDamage::kNone);
  f.offsets.push_back(f.full.size());
  return f;
}

// Every single-byte flip must be classified (never kNone, never a crash)
// and load() must still salvage a clean prefix.
TEST(IoFuzz, CertLogEveryByteFlipLandsInTheTaxonomy) {
  CertLogFixture f = make_cert_log_fixture("io_log_flip.log");
  CertificateLog log{f.path};
  for (std::size_t at = 0; at < f.full.size(); ++at) {
    std::string text = f.full;
    text[at] = static_cast<char>(text[at] ^ 0x01);  // guaranteed change
    write_file_atomic(f.path, text);
    const CertLogReport report = log.scan();
    EXPECT_NE(report.damage, LogDamage::kNone) << "flip at byte " << at;
    RecoveryReport recovery;
    LowerBoundCertificate loaded = log.load(&recovery);  // must not throw
    if (!report.recoverable()) {
      EXPECT_TRUE(loaded.levels.empty()) << "flip at byte " << at;
    }
    expect_clean_prefix(loaded, f.chain);
  }
  log.remove();
}

// Every truncation point is either clean (a record boundary) or a torn
// tail — always recoverable — and checkpoint() repairs the file back to
// the byte-identical clean log.
TEST(IoFuzz, CertLogEveryTruncationPointIsTornOrClean) {
  CertLogFixture f = make_cert_log_fixture("io_log_trunc.log");
  CertificateLog log{f.path};
  for (std::size_t cut = 0; cut <= f.full.size(); ++cut) {
    write_file_atomic(f.path, f.full.substr(0, cut));
    const CertLogReport report = log.scan();
    EXPECT_TRUE(report.recoverable()) << "cut at byte " << cut;
    const bool boundary =
        std::find(f.offsets.begin(), f.offsets.end(), cut) != f.offsets.end();
    EXPECT_EQ(report.damage == LogDamage::kNone, boundary)
        << "cut at byte " << cut;
    EXPECT_LE(report.valid_bytes, cut);
    if (cut % 7 == 0 || cut + 1 == f.full.size()) {
      // Torn-tail repair: truncate to the valid prefix, append the rest.
      log.checkpoint(f.chain);
      EXPECT_EQ(read_file(f.path), f.full) << "cut at byte " << cut;
      write_file_atomic(f.path, f.full.substr(0, cut));  // re-tear
    }
  }
  log.remove();
}

// Records spliced out of order — duplicated or swapped — break the
// predecessor chain exactly at the splice.
TEST(IoFuzz, CertLogSplicedRecordsAreChainBreaks) {
  CertLogFixture f = make_cert_log_fixture("io_log_splice.log");
  CertificateLog log{f.path};
  const std::size_t n = f.offsets.size() - 1;  // record count
  ASSERT_GE(n, 3u);
  const auto record = [&](std::size_t i) {
    return f.full.substr(f.offsets[i], f.offsets[i + 1] - f.offsets[i]);
  };
  const std::string header = f.full.substr(0, f.offsets[0]);

  for (std::size_t k = 0; k < n; ++k) {
    SCOPED_TRACE("duplicated record " + std::to_string(k));
    std::string text = header;
    for (std::size_t i = 0; i <= k; ++i) text += record(i);
    text += record(k);  // the duplicate
    for (std::size_t i = k + 1; i < n; ++i) text += record(i);
    write_file_atomic(f.path, text);
    const CertLogReport report = log.scan();
    EXPECT_EQ(report.damage, LogDamage::kChainBreak);
    EXPECT_EQ(report.defect_level, static_cast<int>(k + 1));
    EXPECT_TRUE(log.load().levels.empty());  // rejected wholesale
  }

  for (std::size_t k = 0; k + 1 < n; ++k) {
    SCOPED_TRACE("swapped records " + std::to_string(k) + "," +
                 std::to_string(k + 1));
    std::string text = header;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (i == k) ? k + 1 : (i == k + 1) ? k : i;
      text += record(j);
    }
    write_file_atomic(f.path, text);
    const CertLogReport report = log.scan();
    EXPECT_EQ(report.damage, LogDamage::kChainBreak);
    EXPECT_EQ(report.defect_level, static_cast<int>(k));
    EXPECT_TRUE(log.load().levels.empty());
  }
  log.remove();
}

// A record spliced in from a *different* log (same delta, different
// algorithm name in the header) fails the chain even when its self
// checksum verifies — the chain is seeded from the header.
TEST(IoFuzz, CertLogForeignRecordIsAChainBreak) {
  CertLogFixture f = make_cert_log_fixture("io_log_foreign.log");
  // Same chain re-serialized under a different header.
  LowerBoundCertificate relabeled = f.chain;
  relabeled.algorithm_name = "Imposter";
  const std::string foreign = CertificateLog::serialize(relabeled);
  const std::size_t foreign_body = foreign.find("record ");
  ASSERT_NE(foreign_body, std::string::npos);
  // Foreign header + original records: genesis differs, so record 0's
  // chain checksum no longer verifies.
  const std::string text =
      foreign.substr(0, foreign_body) + f.full.substr(f.offsets[0]);
  write_file_atomic(f.path, text);
  CertificateLog log{f.path};
  const CertLogReport report = log.scan();
  EXPECT_EQ(report.damage, LogDamage::kChainBreak);
  EXPECT_EQ(report.defect_level, 0);
  EXPECT_TRUE(log.load().levels.empty());
  log.remove();
}

// --- randomised mutation sweep --------------------------------------------

// Mutates valid serialisations and checks the parsers never do anything
// except parse or throw a typed ldlb error.
TEST(IoFuzz, RandomMutationsNeverEscapeTheTaxonomy) {
  Rng rng{20140721};
  Multigraph g = greedy_edge_coloring(make_cycle(7));
  const std::string base = graph_to_string(g);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string text = base;
    switch (rng.next_below(3)) {
      case 0:  // flip one byte to a random printable character
        text[rng.next_below(text.size())] =
            static_cast<char>(' ' + rng.next_below(95));
        break;
      case 1:  // truncate
        text.resize(rng.next_below(text.size()));
        break;
      default:  // duplicate a chunk in place
        text.insert(rng.next_below(text.size()),
                    text.substr(0, rng.next_below(text.size())));
        break;
    }
    try {
      Multigraph back = multigraph_from_string(text);
      (void)back;
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    }
    // Anything else (std::bad_alloc aside) escapes the test as a failure.
  }
  // The sweep must exercise both outcomes to be meaningful.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(parsed + rejected, 499);
}

// --- certificate graphs must be connectable --------------------------------

// Caps the address space at its current size plus `headroom` bytes, so an
// allocation sized by a hostile count fails instead of succeeding slowly.
void cap_address_space(std::size_t headroom) {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  statm >> pages;
  rlimit limit{};
  limit.rlim_cur = pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) +
                   headroom;
  limit.rlim_max = limit.rlim_cur;
  setrlimit(RLIMIT_AS, &limit);
}

// A certificate whose level-0 G claims 2^31 - 1 nodes on two edges.
const char kWideGraphCertificate[] =
    "ldlb-certificate 1\n"
    "delta 2\n"
    "algorithm SeqColorPacking\n"
    "level 0\n"
    "g 2147483647 2\n"
    "e 0 0 0\n"
    "e 0 0 1\n"
    "h 1 2\n"
    "e 0 0 0\n"
    "e 0 0 1\n"
    "witness 0 0 0 0 0 1/2 1/2 0\n"
    "end\n";

TEST(IoFuzz, UnconnectableNodeCountRejectedBeforeAnyPerNodeMemory) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        cap_address_space(std::size_t{256} << 20);
        try {
          const LowerBoundCertificate cert =
              certificate_from_string(kWideGraphCertificate);
          SeqColorPacking alg{2};
          std::exit(certificate_is_valid(cert, alg) ? 2 : 3);
        } catch (const ParseError&) {
          std::exit(0);
        }
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(IoFuzz, UnconnectableNodeCountIsSitedOnTheGraphHeader) {
  try {
    (void)certificate_from_string(kWideGraphCertificate);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 5);
    EXPECT_EQ(e.token(), "2147483647");
    EXPECT_NE(std::string(e.what()).find("cannot be connected"),
              std::string::npos)
        << e.what();
  }
  // One node more than edges + 1 is already too many; edges + 1 is fine.
  std::string text = valid_certificate_text();
  text.replace(text.find("g 1 2"), 5, "g 4 2");
  EXPECT_THROW((void)certificate_from_string(text), ParseError);
  text.replace(text.find("g 4 2"), 5, "g 3 2");
  EXPECT_NO_THROW((void)certificate_from_string(text));
}

TEST(IoFuzz, UnconnectableNodeCountInALogIsABadRecord) {
  SeqColorPacking alg{4};
  LowerBoundCertificate chain = run_adversary(alg, 4);
  Multigraph wide(2147483647);
  for (EdgeId e = 0; e < chain.levels[1].g.edge_count(); ++e) {
    const auto& ed = chain.levels[1].g.edge(e);
    wide.add_edge(ed.u, ed.v, ed.color);
  }
  chain.levels[1].g = std::move(wide);
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "io_wide.log").string();
  write_file_atomic(path, CertificateLog::serialize(chain));
  CertificateLog log{path};
  const CertLogReport report = log.scan();
  EXPECT_EQ(report.damage, LogDamage::kBadRecord);
  EXPECT_EQ(report.defect_level, 1);
  EXPECT_EQ(report.levels_intact, 1);
  EXPECT_NE(report.detail.find("cannot be connected"), std::string::npos)
      << report.detail;
  log.remove();
}

// A count of 2^31 - 1 edges (or arcs) followed by one edge line must fail as
// a ParseError in both reader modes, without reserving for the count: the
// reserve is bounded by what the unread input can hold.
TEST(IoFuzz, LyingEdgeCountIsAParseErrorWithoutALargeAllocation) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string certificate =
      "ldlb-certificate 1\ndelta 2\nalgorithm Test\nlevel 0\n"
      "g 2 2147483647\ne 0 1 0\n";
  const std::string multigraph = "multigraph 2 2147483647\ne 0 1 0\n";
  const std::string digraph = "digraph 2 2147483647\na 0 1 0\n";
  EXPECT_EXIT(
      {
        cap_address_space(std::size_t{256} << 20);
        int rejected = 0;
        const auto expect_parse_error = [&](auto parse) {
          try {
            parse();
          } catch (const ParseError&) {
            ++rejected;
          }
        };
        expect_parse_error([&] { (void)certificate_from_string(certificate); });
        expect_parse_error([&] {
          std::istringstream is{certificate};
          (void)read_certificate(is);
        });
        expect_parse_error([&] { (void)multigraph_from_string(multigraph); });
        expect_parse_error([&] {
          std::istringstream is{multigraph};
          (void)read_multigraph(is);
        });
        expect_parse_error([&] { (void)digraph_from_string(digraph); });
        expect_parse_error([&] {
          std::istringstream is{digraph};
          (void)read_digraph(is);
        });
        std::exit(rejected == 6 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// A record header whose `bytes` field reads 2^40 is a byte-count flip, and
// the payload buffer is sized by what the file holds, not by the field.
TEST(IoFuzz, LyingPayloadByteCountIsABitFlipWithoutALargeAllocation) {
  SeqColorPacking alg{5};
  const std::string full = CertificateLog::serialize(run_adversary(alg, 5));
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "io_lying_bytes.log")
          .string();
  // The first record and the last, each with its bytes field replaced.
  const std::size_t first = full.find("record 0 ");
  const std::size_t last = full.rfind("\nrecord ") + 1;
  for (const std::size_t at : {first, last}) {
    std::istringstream fields{full.substr(at, full.find('\n', at) - at)};
    std::string tag, index, lines, bytes, self, chain;
    fields >> tag >> index >> lines >> bytes >> self >> chain;
    const std::string header = tag + " " + index + " " + lines + " " +
                               std::to_string(1LL << 40) + " " + self + " " +
                               chain;
    write_file_atomic(path, full.substr(0, at) + header +
                                full.substr(full.find('\n', at)));
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
          cap_address_space(std::size_t{256} << 20);
          CertificateLog log{path};
          const CertLogReport report = log.scan();
          std::exit(report.damage == LogDamage::kBitFlip &&
                            report.detail ==
                                "record byte count disagrees with its payload"
                        ? 0
                        : 1);
        },
        ::testing::ExitedWithCode(0), "")
        << "record at byte " << at;
  }
  std::filesystem::remove(path);
}

// --- fleet run replies -----------------------------------------------------

TEST(IoFuzz, RunReplyWeightListRoundTripsAndRejectsShortBodies) {
  const std::vector<Rational> weights = {Rational(1, 2), Rational(0),
                                         Rational(1), Rational(3, 7)};
  const std::string reply = detail::run_reply(5, FractionalMatching(weights));
  EXPECT_EQ(reply, "ok 5 4\n1/2\n0\n1\n3/7\n");
  const std::string_view body = std::string_view(reply).substr(7);
  EXPECT_EQ(detail::read_weight_list(body, 4), weights);
  // Weights past the count are left unread.
  EXPECT_EQ(detail::read_weight_list(body, 3)->size(), 3u);
  EXPECT_FALSE(detail::read_weight_list(body, 5).has_value());
  EXPECT_FALSE(detail::read_weight_list(body, -1).has_value());
  EXPECT_FALSE(detail::read_weight_list("1/2\nx\n", 2).has_value());
  EXPECT_FALSE(detail::read_weight_list("1/0\n", 1).has_value());
  EXPECT_TRUE(detail::read_weight_list("", 0)->empty());
}

TEST(IoFuzz, LyingRunReplyCountIsMalformedWithoutALargeAllocation) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        cap_address_space(std::size_t{256} << 20);
        const auto weights =
            detail::read_weight_list("1/2\n1/3\n", 1000000000000LL);
        std::exit(weights.has_value() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "");
}

// --- reference codec -------------------------------------------------------
//
// The istringstream tokenizer and ostream writers that util/line_reader's
// codec replaced, kept as the oracle for the differential tests below.

class LegacyLineReader {
 public:
  explicit LegacyLineReader(std::istream& is) : is_(is) {}

  std::string token(const char* what) {
    if (!pushed_back_.empty()) {
      std::string tok = std::move(pushed_back_);
      pushed_back_.clear();
      return tok;
    }
    std::string tok;
    while (!(line_stream_ >> tok)) {
      if (!next_line()) {
        fail(std::string("unexpected end of input — expected ") + what);
      }
    }
    return tok;
  }

  long long integer(const char* what, long long lo, long long hi) {
    std::string tok = token(what);
    char* end = nullptr;
    const long long value = std::strtoll(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0') {
      fail(std::string("expected integer ") + what, tok);
    }
    if (value < lo || value > hi) {
      std::ostringstream os;
      os << what << " " << value << " out of range [" << lo << ", " << hi
         << "]";
      fail(os.str(), tok);
    }
    return value;
  }

  void expect(const std::string& expected, const char* what) {
    std::string tok = token(what);
    if (tok != expected) {
      fail("expected '" + expected + "' (" + what + ")", tok);
    }
  }

  void push_back(std::string tok) { pushed_back_ = std::move(tok); }

  bool at_end() {
    std::string probe;
    for (;;) {
      if (line_stream_ >> probe) {
        pushed_back_ = probe;
        return false;
      }
      if (!next_line()) return true;
    }
  }

  [[noreturn]] void fail(const std::string& msg,
                         const std::string& tok = "") const {
    std::ostringstream os;
    os << "line " << line_ << ": " << msg;
    if (!tok.empty()) os << ", got '" << tok << "'";
    throw ParseError(os.str(), line_, tok);
  }

 private:
  bool next_line() {
    std::string buf;
    if (!std::getline(is_, buf)) return false;
    ++line_;
    line_stream_.clear();
    line_stream_.str(buf);
    return true;
  }

  std::istream& is_;
  std::istringstream line_stream_;
  std::string pushed_back_;
  int line_ = 0;
};

void legacy_write_graph(std::ostream& os, const char* tag,
                        const Multigraph& g) {
  os << tag << " " << g.node_count() << " " << g.edge_count() << "\n";
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    os << "e " << ed.u << " " << ed.v << " " << ed.color << "\n";
  }
}

void legacy_write_digraph(std::ostream& os, const Digraph& g) {
  os << "digraph " << g.node_count() << " " << g.arc_count() << "\n";
  for (EdgeId a = 0; a < g.arc_count(); ++a) {
    const auto& arc = g.arc(a);
    os << "a " << arc.tail << " " << arc.head << " " << arc.color << "\n";
  }
}

void legacy_write_level(std::ostream& os, const CertificateLevel& lv) {
  os << "level " << lv.level << "\n";
  legacy_write_graph(os, "g", lv.g);
  legacy_write_graph(os, "h", lv.h);
  os << "witness " << lv.g_node << " " << lv.h_node << " " << lv.c << " "
     << lv.g_loop << " " << lv.h_loop << " " << lv.g_weight.to_string() << " "
     << lv.h_weight.to_string() << " " << lv.propagation_steps << "\n";
}

std::string legacy_level(const CertificateLevel& lv) {
  std::ostringstream os;
  legacy_write_level(os, lv);
  return os.str();
}

std::string legacy_certificate(const LowerBoundCertificate& cert) {
  std::ostringstream os;
  os << "ldlb-certificate 1\n";
  os << "delta " << cert.delta << "\n";
  os << "algorithm " << cert.algorithm_name << "\n";
  for (const auto& lv : cert.levels) legacy_write_level(os, lv);
  os << "end\n";
  return os.str();
}

long long count_lines(const std::string& text) {
  return std::count(text.begin(), text.end(), '\n');
}

std::string legacy_cert_log(const LowerBoundCertificate& chain) {
  std::ostringstream header;
  header << "ldlb-cert-log 1\n";
  header << "delta " << chain.delta << "\n";
  header << "algorithm "
         << (chain.algorithm_name.empty() ? "-" : chain.algorithm_name)
         << "\n";
  std::string text = header.str();
  Checksum128 state = fnv1a_128(text);
  for (std::size_t i = 0; i < chain.levels.size(); ++i) {
    const std::string payload = legacy_level(chain.levels[i]);
    const Checksum128 self = fnv1a_128(payload);
    std::ostringstream step;
    step << i << " " << checksum_to_hex(self);
    state = fnv1a_128(step.str(), state);
    std::ostringstream os;
    os << "record " << i << " " << count_lines(payload) << " "
       << payload.size() << " " << checksum_to_hex(self) << " "
       << checksum_to_hex(state) << "\n"
       << payload;
    text += os.str();
  }
  return text;
}

std::string legacy_run_reply(long long id, const FractionalMatching& y) {
  std::ostringstream os;
  os << "ok " << id << " " << y.edge_count() << "\n";
  for (EdgeId e = 0; e < y.edge_count(); ++e) os << y.weight(e) << "\n";
  return os.str();
}

// --- (a) same parse outcomes -----------------------------------------------

// One parse, recorded: every token and integer the grammar consumed, in
// order, then success or the ParseError's line, token and message.
// A parsed graph as the grammar read it: the node count and every edge
// (or arc) line's three integers, in order.
struct TracedGraph {
  long long nodes = 0;
  std::vector<std::array<long long, 3>> items;
  friend bool operator==(const TracedGraph&, const TracedGraph&) = default;
};

struct ParseTrace {
  std::string items;  // each item followed by '\x01'
  bool ok = false;
  int line = 0;
  std::string token;
  std::string message;
  std::vector<TracedGraph> graphs;  // every graph read, in order
  friend bool operator==(const ParseTrace&, const ParseTrace&) = default;
};

std::ostream& operator<<(std::ostream& os, const ParseTrace& t) {
  return os << std::count(t.items.begin(), t.items.end(), '\x01')
            << " items" << (t.ok ? ", ok" : ", failed: ") << t.message;
}

// kLevel is one level on its own, as a certificate-log record holds it. The
// *Body formats stop after the last edge, as the stream readers do; the
// others then require nothing but whitespace.
enum class Format {
  kCertificate,
  kLevel,
  kMultigraph,
  kDigraph,
  kMultigraphBody,
  kDigraphBody
};

constexpr long long kMaxId = 2147483647;

// Drives the graph_io and certificate_io grammars rule for rule over any
// reader with LineReader's interface, recording what it consumes.
template <class Reader>
class GrammarWalk {
 public:
  explicit GrammarWalk(Reader& r) : r_(r) {}

  ParseTrace run(Format format) {
    try {
      if (format == Format::kCertificate) {
        certificate();
      } else if (format == Format::kLevel) {
        level();
        record(r_.at_end() ? "at end" : "trailing content");
      } else {
        graph_file(format);
      }
      trace_.ok = true;
    } catch (const ParseError& e) {
      trace_.line = e.line();
      trace_.token = e.token();
      trace_.message = e.what();
    }
    return std::move(trace_);
  }

 private:
  void record(std::string_view item) {
    trace_.items += item;
    trace_.items += '\x01';
  }

  auto token(const char* what) {
    auto tok = r_.token(what);
    record(tok);
    return tok;
  }

  long long integer(const char* what, long long lo, long long hi) {
    const long long value = r_.integer(what, lo, hi);
    record(std::to_string(value));
    return value;
  }

  void expect(const char* expected, const char* what) {
    r_.expect(expected, what);
    record(expected);
  }

  // graph_io: a multigraph or digraph, then (unless a *Body format)
  // nothing but whitespace.
  void graph_file(Format format) {
    const bool multi =
        format == Format::kMultigraph || format == Format::kMultigraphBody;
    const char* const header = multi ? "multigraph" : "digraph";
    expect(header, "header");
    const long long nodes = integer("node count", 0, kMaxId);
    const long long items =
        integer(multi ? "edge count" : "arc count", 0, kMaxId);
    TracedGraph& g = trace_.graphs.emplace_back();
    g.nodes = nodes;
    for (long long i = 0; i < items; ++i) {
      const auto tag = token(multi ? "edge line" : "arc line");
      if (tag != (multi ? "e" : "a")) {
        r_.fail(tag == header ? (multi ? "duplicated header inside edge list"
                                       : "duplicated header inside arc list")
                : multi ? "expected edge line 'e <u> <v> <colour>'"
                        : "expected arc line 'a <tail> <head> <colour>'",
                tag);
      }
      const long long u =
          integer(multi ? "edge endpoint u" : "arc tail", 0, nodes - 1);
      const long long v =
          integer(multi ? "edge endpoint v" : "arc head", 0, nodes - 1);
      g.items.push_back({u, v, integer("colour", -1, kMaxId)});
    }
    if (format == Format::kMultigraph || format == Format::kDigraph) {
      if (!r_.at_end()) r_.fail("trailing garbage after graph", r_.token("?"));
    }
  }

  // certificate_io: one G_i or H_i block; returns {nodes, edges}.
  std::pair<long long, long long> graph(const char* tag) {
    expect(tag, "graph header");
    const long long nodes = integer("node count", 0, kMaxId);
    const long long edges = integer("edge count", 0, kMaxId);
    if (nodes > edges + 1) {
      r_.fail("node count exceeds edge count + 1, so the graph cannot be "
              "connected",
              std::to_string(nodes));
    }
    TracedGraph& g = trace_.graphs.emplace_back();
    g.nodes = nodes;
    for (long long e = 0; e < edges; ++e) {
      expect("e", "edge line");
      const long long u = integer("edge endpoint u", 0, nodes - 1);
      const long long v = integer("edge endpoint v", 0, nodes - 1);
      g.items.push_back({u, v, integer("colour", -1, kMaxId)});
    }
    return {nodes, edges};
  }

  void rational(const char* what) {
    const auto tok = token(what);
    try {
      (void)Rational::from_string(tok);
    } catch (const Error&) {
      r_.fail(std::string("malformed rational ") + what, tok);
    }
  }

  void level() {
    expect("level", "level line");
    integer("level index", 0, kMaxId);
    const auto [g_nodes, g_edges] = graph("g");
    const auto [h_nodes, h_edges] = graph("h");
    expect("witness", "witness line");
    integer("witness g node", 0, g_nodes - 1);
    integer("witness h node", 0, h_nodes - 1);
    integer("witness colour", 0, kMaxId);
    integer("witness g loop", 0, g_edges - 1);
    integer("witness h loop", 0, h_edges - 1);
    rational("witness g weight");
    rational("witness h weight");
    integer("propagation steps", 0, kMaxId);
  }

  void certificate() {
    expect("ldlb-certificate", "certificate magic");
    integer("format version", 1, 1);
    expect("delta", "delta line");
    integer("delta", 0, kMaxId);
    expect("algorithm", "algorithm line");
    token("algorithm name");
    for (;;) {
      const auto word = token("'level' or 'end'");
      if (word == "end") break;
      if (word != "level") r_.fail("expected 'level' or 'end'", word);
      r_.push_back(word);
      level();
    }
  }

  Reader& r_;
  ParseTrace trace_;
};

TracedGraph traced(const Multigraph& g) {
  TracedGraph out;
  out.nodes = g.node_count();
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    out.items.push_back({g.edge(e).u, g.edge(e).v, g.edge(e).color});
  }
  return out;
}

TracedGraph traced(const Digraph& g) {
  TracedGraph out;
  out.nodes = g.node_count();
  for (EdgeId a = 0; a < g.arc_count(); ++a) {
    out.items.push_back({g.arc(a).tail, g.arc(a).head, g.arc(a).color});
  }
  return out;
}

std::vector<TracedGraph> traced(const std::vector<CertificateLevel>& levels) {
  std::vector<TracedGraph> out;
  for (const CertificateLevel& lv : levels) {
    out.push_back(traced(lv.g));
    out.push_back(traced(lv.h));
  }
  return out;
}

// The library parser's verdict on `text`: the graphs it built, or the
// ParseError.
template <class Parse>
ParseTrace library_verdict(Parse parse) {
  ParseTrace out;
  try {
    out.graphs = parse();
    out.ok = true;
  } catch (const ParseError& e) {
    out.line = e.line();
    out.token = e.token();
    out.message = e.what();
  }
  return out;
}

// Parses `text` with the reference tokenizer and with the codec in both its
// modes, expects identical traces, and expects the library's parsers (every
// entry point for the format) to reach the same verdict: the same graphs, or
// the same ParseError.
void expect_library_parse(const std::string& text, Format format,
                          const ParseTrace& want);

void expect_same_parse(const std::string& text, Format format) {
  std::istringstream legacy_in{text};
  LegacyLineReader legacy{legacy_in};
  const ParseTrace want = GrammarWalk<LegacyLineReader>{legacy}.run(format);

  std::istringstream stream_in{text};
  LineReader stream_reader{stream_in};
  EXPECT_EQ(GrammarWalk<LineReader>{stream_reader}.run(format), want)
      << "istream mode on: " << text;
  LineReader view_reader{std::string_view(text)};
  EXPECT_EQ(GrammarWalk<LineReader>{view_reader}.run(format), want)
      << "string_view mode on: " << text;
  expect_library_parse(text, format, want);
}

// Every library entry point for `format` must reach `want` on `text`.
void expect_library_parse(const std::string& text, Format format,
                          const ParseTrace& want) {
  const auto check = [&](auto parse, const char* entry) {
    const ParseTrace got = library_verdict(parse);
    EXPECT_TRUE(got.ok == want.ok && got.line == want.line &&
                got.token == want.token && got.message == want.message &&
                (!got.ok || got.graphs == want.graphs))
        << entry << " gave " << got << " where the reference gave " << want
        << " on: " << text;
  };
  switch (format) {
    case Format::kCertificate:
      check([&] { return traced(certificate_from_string(text).levels); },
            "certificate_from_string");
      check(
          [&] {
            std::istringstream is{text};
            return traced(read_certificate(is).levels);
          },
          "read_certificate");
      break;
    case Format::kLevel:
      // The library's verdict on trailing content is the walk's last item.
      check(
          [&] {
            LineReader r{std::string_view(text)};
            return traced({read_certificate_level(r)});
          },
          "read_certificate_level");
      check(
          [&] {
            std::istringstream is{text};
            LineReader r{is};
            return traced({read_certificate_level(r)});
          },
          "read_certificate_level (istream)");
      break;
    case Format::kMultigraph:
      check([&] { return std::vector{traced(multigraph_from_string(text))}; },
            "multigraph_from_string");
      break;
    case Format::kDigraph:
      check([&] { return std::vector{traced(digraph_from_string(text))}; },
            "digraph_from_string");
      break;
    case Format::kMultigraphBody:
      check(
          [&] {
            std::istringstream is{text};
            return std::vector{traced(read_multigraph(is))};
          },
          "read_multigraph");
      break;
    case Format::kDigraphBody:
      check(
          [&] {
            std::istringstream is{text};
            return std::vector{traced(read_digraph(is))};
          },
          "read_digraph");
      break;
  }
}

// Every byte-prefix, and every position overwritten with probe bytes:
// whitespace of every kind, digits, signs, a slash, letters, a high byte.
// `every_probe` tries them all at each position; otherwise position i gets
// probe i mod 14, which keeps the sweep of a large text affordable.
void sweep(const std::string& text, Format format, bool every_probe) {
  static const char kProbes[] = {' ', '\n', '\t', '\r', '\v', '\f', '0',
                                 '9', '-',  '+',  '/',  'e',  'x',  '\xa0'};
  constexpr std::size_t kProbeCount = sizeof kProbes;
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    expect_same_parse(text.substr(0, cut), format);
  }
  std::string mutated = text;
  for (std::size_t at = 0; at < text.size(); ++at) {
    for (std::size_t i = 0; i < kProbeCount; ++i) {
      const char probe = kProbes[every_probe ? i : (at + i) % kProbeCount];
      if (probe == text[at]) continue;
      mutated[at] = probe;
      expect_same_parse(mutated, format);
      if (!every_probe) break;
    }
    mutated[at] = text[at];
  }
}

Digraph orient(const Multigraph& g) {
  Digraph d(g.node_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    d.add_arc(g.edge(e).u, g.edge(e).v, g.edge(e).color);
  }
  return d;
}

TEST(TextCodec, CorpusParsesLikeTheReference) {
  for (const auto& bad : kBadMultigraphs) {
    expect_same_parse(bad.text, Format::kMultigraph);
  }
  for (const auto& bad : kBadDigraphs) {
    expect_same_parse(bad.text, Format::kDigraph);
  }
  for (const auto& bad : kBadCertificates) {
    expect_same_parse(bad.text, Format::kCertificate);
  }
  expect_same_parse(valid_certificate_text(), Format::kCertificate);
  expect_same_parse(kWideGraphCertificate, Format::kCertificate);
  // Integer edge cases: signs, leading zeros, values past 64 bits.
  for (const char* colour :
       {"+5", "-1", "+-5", "-+5", "+", "-", "007", "-0", "5x", "1e3",
        "99999999999999999999", "-99999999999999999999",
        "+99999999999999999999", "9223372036854775807",
        "-9223372036854775808", "99999999999999999999x"}) {
    expect_same_parse(std::string("multigraph 2 1\ne 0 1 ") + colour + "\n",
                      Format::kMultigraph);
  }
}

TEST(TextCodec, MutatedSmallTextsParseLikeTheReference) {
  SeqColorPacking alg{4};
  sweep(certificate_to_string(run_adversary(alg, 4)), Format::kCertificate,
        true);
  const Multigraph g = greedy_edge_coloring(make_cycle(7));
  sweep(graph_to_string(g), Format::kMultigraph, true);
  sweep(graph_to_string(orient(g)), Format::kDigraph, true);
  sweep(graph_to_string(g), Format::kMultigraphBody, true);
  sweep(graph_to_string(orient(g)), Format::kDigraphBody, true);
}

// The Δ=8 certificate is swept one level at a time, each level as the
// payload of its certificate-log record (how verify --stream reads it), so
// the sweep costs the sum of the squared level sizes, not the square of the
// whole certificate's.
TEST(TextCodec, MutatedDelta8LevelsParseLikeTheReference) {
  SeqColorPacking alg{8};
  const LowerBoundCertificate chain = run_adversary(alg, 8);
  const std::string whole = certificate_to_string(chain);
  expect_same_parse(whole, Format::kCertificate);
  for (const CertificateLevel& lv : chain.levels) {
    std::string payload;
    append_certificate_level(payload, lv);
    SCOPED_TRACE("level " + std::to_string(lv.level));
    sweep(payload, Format::kLevel, false);
  }
}

// strtoll stopped at a NUL byte and accepted the digits before it; the codec
// reads the whole token, so such a token is not an integer.
TEST(TextCodec, NulInsideAnIntegerTokenIsRejected) {
  const std::string text("multigraph 2 1\ne 0 1\0009 0\n", 25);
  std::istringstream legacy_in{text};
  LegacyLineReader legacy{legacy_in};
  const ParseTrace old = GrammarWalk<LegacyLineReader>{legacy}.run(
      Format::kMultigraph);
  EXPECT_TRUE(old.ok);  // endpoint v read as 1
  try {
    (void)multigraph_from_string(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.token(), std::string("1\0009", 3));
    EXPECT_NE(std::string(e.what()).find("expected integer edge endpoint v"),
              std::string::npos);
  }
}

// The edge-line decoder's boundary corpus. Each body is spliced into a
// two-node graph as its first edge lines, '@' standing for the item tag and
// '#' for the graph's own header word, and is followed by one well-formed
// trailer line; `edges` counts the edges the body holds.
struct EdgeCase {
  std::string body;
  int edges;
  const char* why;
};

const EdgeCase kEdgeCases[] = {
    {"@ 0 1 2\n", 1, "the writers' spelling"},
    {"@  0 1 2\n", 1, "double space after the tag"},
    {"@ 0  1 2\n", 1, "double space between endpoints"},
    {"@ 0 1  2\n", 1, "double space before the colour"},
    {"@ 0 1 2 \n", 1, "trailing space"},
    {" @ 0 1 2\n", 1, "leading space"},
    {"@\t0\t1\t2\n", 1, "tabs"},
    {"@ 0 1 2\r\n", 1, "CRLF"},
    {"@ 0 1 2\v\n", 1, "vertical tab before the newline"},
    {"@ +1 0 2\n", 1, "plus sign on an endpoint"},
    {"@ 0 1 +7\n", 1, "plus sign on the colour"},
    {"@ 00 01 0007\n", 1, "leading zeros"},
    {"@ 0000000001 0 0\n", 1, "10-digit endpoint with leading zeros"},
    {"@ 00000000001 0 0\n", 1, "11-digit endpoint with leading zeros"},
    {"@ 0 1 1234567890\n", 1, "10-digit colour"},
    {"@ 0 1 12345678901\n", 1, "11-digit colour"},
    {"@ 0 1 2147483647\n", 1, "colour 2^31 - 1"},
    {"@ 0 1 2147483648\n", 1, "colour 2^31"},
    {"@ 0 1 99999999999999999999\n", 1, "colour past 64 bits"},
    {"@ 0 1 -1\n", 1, "colour -1"},
    {"@ 0 1 -2\n", 1, "colour -2"},
    {"@ 0 1 -0\n", 1, "colour -0"},
    {"@ 1 1 0\n", 1, "endpoint nodes - 1"},
    {"@ 2 0 0\n", 1, "endpoint u = nodes"},
    {"@ 0 2 0\n", 1, "endpoint v = nodes"},
    {"@ 0 1\n", 1, "missing field"},
    {"@ 0 1 2 3\n", 1, "extra field"},
    {"@ 0 1 \n", 1, "missing colour before the newline"},
    {"@ 0 1 2\n\n@ 1 0 3\n", 2, "blank line between edges"},
    {"@ 0 1 2\n \t\n@ 1 0 3\n", 2, "whitespace line between edges"},
    {"@ 0\n1 2\n", 1, "one edge over two lines"},
    {"@ 0 1 2 @ 1 0 3\n", 2, "two edges on one line"},
    {"@ 0 1 2\n@ 1 0 3 @ 0 0 4\n", 3, "two edges on the second line"},
    {"# 2 1\n", 1, "the header tag inside the edge list"},
    {"x 0 1 2\n", 1, "wrong tag"},
    {"@0 1 2\n", 1, "tag glued to the endpoint"},
    {"@@ 0 1 2\n", 1, "doubled tag"},
    {"@ 0 1 2x\n", 1, "letter after the colour"},
    {"@ 0 1x 2\n", 1, "letter after an endpoint"},
    {std::string("@ 0 1\0009 2\n", 10), 1, "NUL inside an endpoint"},
    {std::string("@ 0 1 2\0003\n", 10), 1, "NUL inside the colour"},
    {std::string("@ 0 1 2\000\n", 9), 1, "NUL after the colour"},
    {"\n", 0, "blank line before the trailer"},
};

std::string spell(const std::string& body, char tag,
                  const std::string& header) {
  std::string out;
  for (char ch : body) {
    if (ch == '@') {
      out += tag;
    } else if (ch == '#') {
      out += header;
    } else {
      out += ch;
    }
  }
  return out;
}

// A one-level certificate whose G holds `edges` then "e 1 1 1".
std::string level_with_edges(const std::string& edges, int count) {
  return "level 0\ng 2 " + std::to_string(count + 1) + "\n" + edges +
         "e 1 1 1\nh 1 1\ne 0 0 0\nwitness 0 0 0 0 0 1/2 1/2 0\n";
}

// A certificate log of one record holding `payload` (which ends in '\n'),
// with valid counts and checksums.
std::string one_record_log(const std::string& payload) {
  std::string text = "ldlb-cert-log 1\ndelta 2\nalgorithm Test\n";
  const Checksum128 self = fnv1a_128(payload);
  const Checksum128 chain =
      fnv1a_128("0 " + checksum_to_hex(self), fnv1a_128(text));
  text += "record 0 " + std::to_string(count_lines(payload)) + " " +
          std::to_string(payload.size()) + " " + checksum_to_hex(self) + " " +
          checksum_to_hex(chain) + "\n";
  return text + payload;
}

// The log walk's verdict on a record holding `payload` must be what the
// reference grammar made of the payload (`want`): the same graphs, or
// kBadRecord carrying the same ParseError.
void expect_record_like_reference(const std::string& payload,
                                  const ParseTrace& want) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "io_edge_case.log")
          .string();
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << one_record_log(payload);
  }
  CertificateLog log{path};
  const CertLogReport report = log.scan();
  const LowerBoundCertificate loaded = log.load();
  log.remove();
  if (!want.ok) {
    EXPECT_EQ(report.damage, LogDamage::kBadRecord) << payload;
    EXPECT_EQ(report.detail,
              "checksum-valid payload unparsable: " + want.message)
        << payload;
  } else if (want.items.ends_with("trailing content\x01")) {
    EXPECT_EQ(report.damage, LogDamage::kBadRecord) << payload;
    EXPECT_EQ(report.detail, "record payload has trailing content") << payload;
  } else {
    EXPECT_EQ(report.damage, LogDamage::kNone) << payload;
    EXPECT_EQ(traced(loaded.levels), want.graphs) << payload;
  }
}

// Every boundary case decodes exactly as the reference tokenizer reads it,
// through every entry point and in both reader modes: as a multigraph, a
// digraph, a certificate's G and a certificate-log record, and — for the
// graph formats — once more as the text's last line, without its newline.
// strtoll ends a number at a NUL byte where the codec's token path rejects
// the token (NulInsideAnIntegerTokenIsRejected), so a body holding a NUL is
// checked against the token path instead.
TEST(TextCodec, EdgeLineBoundaryCorpusDecodesLikeTheReference) {
  const auto reference = [](const std::string& text, Format format) {
    std::istringstream legacy_in{text};
    LegacyLineReader legacy{legacy_in};
    if (text.find('\0') == std::string::npos) {
      return GrammarWalk<LegacyLineReader>{legacy}.run(format);
    }
    LineReader tokens{std::string_view(text)};
    return GrammarWalk<LineReader>{tokens}.run(format);
  };
  const auto expect_same = [&](const std::string& text, Format format) {
    if (text.find('\0') == std::string::npos) {
      expect_same_parse(text, format);
    } else {
      expect_library_parse(text, format, reference(text, format));
    }
  };
  for (const EdgeCase& c : kEdgeCases) {
    SCOPED_TRACE(c.why);
    const std::string count = std::to_string(c.edges + 1);
    for (const char* header : {"multigraph", "digraph"}) {
      const bool multi = header[0] == 'm';
      const char tag = multi ? 'e' : 'a';
      const std::string text = std::string(header) + " 2 " + count + "\n" +
                               spell(c.body, tag, header) + tag + " 1 1 1\n";
      expect_same(text, multi ? Format::kMultigraph : Format::kDigraph);
      expect_same(text,
                  multi ? Format::kMultigraphBody : Format::kDigraphBody);
      // The body as the last line of the input, without its newline.
      const std::string last = std::string(header) + " 2 " +
                               std::to_string(c.edges) + "\n" +
                               spell(c.body, tag, header);
      const std::string unterminated = last.substr(0, last.size() - 1);
      expect_same(unterminated,
                  multi ? Format::kMultigraph : Format::kDigraph);
      expect_same(unterminated,
                  multi ? Format::kMultigraphBody : Format::kDigraphBody);
    }
    const std::string level =
        level_with_edges(spell(c.body, 'e', "g"), c.edges);
    expect_same("ldlb-certificate 1\ndelta 2\nalgorithm Test\n" + level +
                    "end\n",
                Format::kCertificate);
    expect_same(level, Format::kLevel);
    expect_record_like_reference(level, reference(level, Format::kLevel));
  }
}

// --- (b) same written bytes ------------------------------------------------

void expect_same_bytes(const LowerBoundCertificate& chain) {
  SCOPED_TRACE(chain.algorithm_name + " delta " +
               std::to_string(chain.delta));
  for (const CertificateLevel& lv : chain.levels) {
    std::string appended;
    append_certificate_level(appended, lv);
    EXPECT_EQ(appended, legacy_level(lv)) << "level " << lv.level;
    std::ostringstream streamed;
    write_certificate_level(streamed, lv);
    EXPECT_EQ(streamed.str(), appended) << "level " << lv.level;
    for (const Multigraph* g : {&lv.g, &lv.h}) {
      std::ostringstream graph_os, digraph_os;
      legacy_write_graph(graph_os, "multigraph", *g);
      EXPECT_EQ(graph_to_string(*g), graph_os.str());
      legacy_write_digraph(digraph_os, orient(*g));
      EXPECT_EQ(graph_to_string(orient(*g)), digraph_os.str());
    }
  }
  EXPECT_EQ(certificate_to_string(chain), legacy_certificate(chain));
  EXPECT_EQ(CertificateLog::serialize(chain), legacy_cert_log(chain));
}

TEST(TextCodec, WritersMatchTheReferenceOnEveryChainLevel) {
  AdversaryOptions options;
  options.max_rounds = 40000;
  for (int delta = 4; delta <= 11; ++delta) {
    SeqColorPacking seq{delta};
    expect_same_bytes(run_adversary(seq, delta, options));
    TwoPhasePacking two{delta};
    expect_same_bytes(run_adversary(two, delta, options));
    ProposalPacking proposal;
    EcFromPo po{proposal};
    expect_same_bytes(run_adversary(po, delta, options));
  }
  SeqColorPacking seq{14};
  expect_same_bytes(run_adversary(seq, 14, options));
}

TEST(TextCodec, WideWeightsAndRunRepliesMatchTheReference) {
  SeqColorPacking alg{4};
  CertificateLevel lv = run_adversary(alg, 4).levels[0];
  const BigInt wide = BigInt::pow2(70) + BigInt{1};
  lv.g_weight = Rational(wide, BigInt::pow2(71));
  lv.h_weight = Rational(-wide * wide, BigInt{3});
  std::string appended;
  append_certificate_level(appended, lv);
  EXPECT_EQ(appended, legacy_level(lv));
  EXPECT_NE(appended.find("1180591620717411303425/2361183241434822606848"),
            std::string::npos);

  const std::vector<Rational> weights = {
      Rational(0),        Rational(1),       Rational(1, 2),
      Rational(-3, 7),    lv.g_weight,       lv.h_weight,
      Rational(wide, BigInt{1}), Rational(BigInt{1}, wide)};
  const FractionalMatching y{weights};
  const std::string reply = detail::run_reply(42, y);
  EXPECT_EQ(reply, legacy_run_reply(42, y));
  const std::size_t nl = reply.find('\n');
  EXPECT_EQ(detail::read_weight_list(std::string_view(reply).substr(nl + 1),
                                     y.edge_count()),
            weights);
}

// --- (c) pinned bytes ------------------------------------------------------

// The Δ=14 log as the ostream writers produced it: any byte the codec moves
// changes this digest.
TEST(TextCodec, Delta14LogDigestIsPinned) {
  SeqColorPacking alg{14};
  const std::string text = CertificateLog::serialize(run_adversary(alg, 14));
  EXPECT_EQ(text.size(), 2656756u);
  EXPECT_EQ(checksum_to_hex(fnv1a_128(text)),
            "e262b2c099c8b872eef82a63c9eb2b3e");
}

}  // namespace
}  // namespace ldlb
