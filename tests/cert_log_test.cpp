// The append-only streaming certificate log (recover/cert_log.hpp): exact
// round-trips, O(one level) incremental appends, the typed damage taxonomy,
// torn-tail recovery that resumes to byte-identical logs, the resumable
// engine checkpointing into it, and the block-read walk checked field for
// field against the line-by-line walk it replaced.
#include "ldlb/recover/cert_log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/core/sim_ec_po.hpp"
#include "ldlb/matching/proposal_packing.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/recover/resumable_adversary.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/line_reader.hpp"

namespace ldlb {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

LowerBoundCertificate reference_chain(int delta) {
  SeqColorPacking alg{delta};
  return run_adversary(alg, delta);
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << bytes;
  ASSERT_TRUE(out.good());
}

// --- reference walk --------------------------------------------------------
//
// The line-by-line walk the block-read framer replaced (std::getline per
// line, `payload += line`), kept as the oracle: the library's walk must
// report every CertLogReport field and deliver every record exactly as it
// did, on intact and damaged logs alike.

struct LegacyScanner {
  std::istream& in;
  int line_no = 0;
  std::uint64_t offset = 0;
  std::string line;
  bool terminated = false;

  bool next() {
    if (!std::getline(in, line)) return false;
    ++line_no;
    terminated = !in.eof();
    offset += line.size() + (terminated ? 1 : 0);
    return true;
  }
};

bool legacy_fields(const std::string& line, const std::string& tag,
                   std::initializer_list<long long*> fields,
                   std::string* text_field = nullptr) {
  std::istringstream ls{line};
  std::string word;
  if (!(ls >> word) || word != tag) return false;
  if (text_field != nullptr) {
    if (!(ls >> *text_field)) return false;
  }
  for (long long* f : fields) {
    if (!(ls >> *f)) return false;
  }
  return !(ls >> word);
}

Checksum128 legacy_chain_step(long long index, const Checksum128& self,
                              const Checksum128& previous) {
  return fnv1a_128(std::to_string(index) + " " + checksum_to_hex(self),
                   previous);
}

// What the reference walk saw: the report, and each delivered record's
// geometry and payload text.
struct LegacyWalk {
  CertLogReport report;
  std::vector<CertLogRecordInfo> records;
  std::vector<std::string> payloads;
};

LegacyWalk legacy_walk(const std::string& path) {
  LegacyWalk out;
  CertLogReport& rep = out.report;
  rep.path = path;
  std::ifstream in{path, std::ios::binary};
  if (!in) return out;
  rep.file_found = true;
  LegacyScanner sc{in, 0, 0, {}, false};
  const auto classify = [&](LogDamage damage, int level, std::string why) {
    rep.damage = damage;
    rep.defect_level = level;
    rep.defect_line = sc.line_no;
    rep.detail = std::move(why);
  };

  long long version = 0, delta = 0;
  std::string name, header_text;
  const auto header_line = [&](auto parse) -> int {
    if (!sc.next() || !sc.terminated) return 1;
    if (!parse()) return 2;
    header_text += sc.line + '\n';
    return 0;
  };
  int header = header_line([&] {
    return legacy_fields(sc.line, "ldlb-cert-log", {&version}) && version == 1;
  });
  if (header == 0) {
    header = header_line([&] {
      return legacy_fields(sc.line, "delta", {&delta}) && delta >= 0;
    });
  }
  if (header == 0) {
    header = header_line(
        [&] { return legacy_fields(sc.line, "algorithm", {}, &name); });
  }
  if (header == 1) {
    classify(LogDamage::kTornTail, -1, "file ends inside the header");
    return out;
  }
  if (header == 2) {
    classify(LogDamage::kBadHeader, -1, "malformed header line");
    return out;
  }
  rep.valid_bytes = sc.offset;

  Checksum128 chain = fnv1a_128(header_text);
  for (;;) {
    const std::uint64_t record_offset = sc.offset;
    if (!sc.next()) break;
    if (!sc.terminated) {
      classify(LogDamage::kTornTail, rep.levels_intact,
               "record header torn mid-line");
      break;
    }
    long long index = 0, lines = 0, bytes = 0;
    std::string self_hex, chain_hex, tag, extra;
    std::istringstream ls{sc.line};
    Checksum128 want_self, want_chain;
    if (!(ls >> tag) || tag != "record" ||
        !(ls >> index >> lines >> bytes >> self_hex >> chain_hex) ||
        (ls >> extra) || index < 0 || lines <= 0 || bytes <= 0 ||
        !checksum_from_hex(self_hex, want_self) ||
        !checksum_from_hex(chain_hex, want_chain)) {
      classify(LogDamage::kBitFlip, rep.levels_intact,
               "malformed record header");
      break;
    }
    if (index != rep.levels_intact) {
      classify(LogDamage::kChainBreak, rep.levels_intact,
               "record index out of sequence (found " + std::to_string(index) +
                   ", expected " + std::to_string(rep.levels_intact) + ")");
      break;
    }
    std::string payload;
    bool torn = false;
    for (long long i = 0; i < lines; ++i) {
      if (!sc.next() || !sc.terminated) {
        torn = true;
        break;
      }
      payload += sc.line + '\n';
    }
    if (torn) {
      classify(LogDamage::kTornTail, rep.levels_intact,
               "record payload truncated");
      break;
    }
    if (static_cast<long long>(payload.size()) != bytes) {
      classify(LogDamage::kBitFlip, rep.levels_intact,
               "record byte count disagrees with its payload");
      break;
    }
    const Checksum128 self = fnv1a_128(payload);
    if (self != want_self) {
      classify(LogDamage::kBitFlip, rep.levels_intact,
               "record payload fails its self checksum");
      break;
    }
    const Checksum128 next_chain = legacy_chain_step(index, self, chain);
    if (next_chain != want_chain) {
      classify(LogDamage::kChainBreak, rep.levels_intact,
               "record chain checksum disagrees with its predecessor");
      break;
    }
    try {
      std::istringstream is{payload};
      LineReader reader{is};
      const CertificateLevel lv = read_certificate_level(reader);
      if (!reader.at_end()) {
        classify(LogDamage::kBadRecord, rep.levels_intact,
                 "record payload has trailing content");
        break;
      }
      if (lv.level != index) {
        classify(LogDamage::kBadRecord, rep.levels_intact,
                 "payload level index disagrees with the record index");
        break;
      }
    } catch (const ParseError& e) {
      classify(LogDamage::kBadRecord, rep.levels_intact,
               std::string("checksum-valid payload unparsable: ") + e.what());
      break;
    }
    CertLogRecordInfo info;
    info.index = static_cast<int>(index);
    info.payload_lines = static_cast<int>(lines);
    info.payload_bytes = static_cast<std::uint64_t>(bytes);
    info.offset = record_offset;
    info.self = self;
    info.chain = next_chain;
    out.records.push_back(info);
    out.payloads.push_back(std::move(payload));
    chain = next_chain;
    rep.valid_bytes = sc.offset;
    ++rep.levels_intact;
  }
  return out;
}

void expect_same_report(const CertLogReport& got, const CertLogReport& want,
                        const std::string& at) {
  EXPECT_EQ(got.path, want.path) << at;
  EXPECT_EQ(got.file_found, want.file_found) << at;
  EXPECT_EQ(got.damage, want.damage) << at;
  EXPECT_EQ(got.levels_intact, want.levels_intact) << at;
  EXPECT_EQ(got.defect_level, want.defect_level) << at;
  EXPECT_EQ(got.defect_line, want.defect_line) << at;
  EXPECT_EQ(got.valid_bytes, want.valid_bytes) << at;
  EXPECT_EQ(got.detail, want.detail) << at;
}

// Writes `bytes` to `path` and checks every reader of the library against
// the reference walk: inspect (report and record geometry), scan (report)
// and load (recovery report and, when recoverable, every level).
void expect_walk_like_reference(const std::string& path,
                                 const std::string& bytes,
                                 const std::string& at) {
  spill(path, bytes);
  const LegacyWalk want = legacy_walk(path);

  std::vector<CertLogRecordInfo> records;
  const CertLogReport inspected = inspect_certificate_log(
      path, [&](const CertLogRecordInfo& info) { records.push_back(info); });
  expect_same_report(inspected, want.report, at + " (inspect)");
  ASSERT_EQ(records.size(), want.records.size()) << at;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const CertLogRecordInfo& g = records[i];
    const CertLogRecordInfo& w = want.records[i];
    EXPECT_TRUE(g.index == w.index && g.payload_lines == w.payload_lines &&
                g.payload_bytes == w.payload_bytes && g.offset == w.offset &&
                g.self == w.self && g.chain == w.chain)
        << at << " record " << i;
  }

  CertificateLog log{path};
  expect_same_report(log.scan(), want.report, at + " (scan)");
  RecoveryReport recovery;
  const LowerBoundCertificate loaded = log.load(&recovery);
  EXPECT_EQ(recovery.levels_loaded, static_cast<int>(loaded.levels.size()))
      << at;
  EXPECT_EQ(recovery.drop_line, want.report.defect_line) << at;
  EXPECT_EQ(recovery.complete, want.report.file_found &&
                                   want.report.damage == LogDamage::kNone)
      << at;
  if (!want.report.recoverable()) {
    EXPECT_TRUE(loaded.levels.empty()) << at;
    return;
  }
  ASSERT_EQ(loaded.levels.size(), want.payloads.size()) << at;
  for (std::size_t i = 0; i < loaded.levels.size(); ++i) {
    std::string text;
    append_certificate_level(text, loaded.levels[i]);
    EXPECT_EQ(text, want.payloads[i]) << at << " level " << i;
  }
}

// Every truncation point, every single-byte flip, and every record header
// with its `lines` or `bytes` field rewritten to ±1, 0 and 2^40.
void sweep_walk(const LowerBoundCertificate& chain, const std::string& name) {
  const std::string full = CertificateLog::serialize(chain);
  const std::string path = temp_path(name);
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    expect_walk_like_reference(path, full.substr(0, cut),
                               "cut at byte " + std::to_string(cut));
  }
  std::string flipped = full;
  for (std::size_t at = 0; at < full.size(); ++at) {
    flipped[at] = static_cast<char>(full[at] ^ 0x01);
    expect_walk_like_reference(path, flipped,
                               "flip at byte " + std::to_string(at));
    flipped[at] = full[at];
  }
  for (std::size_t start = full.find("record "); start != std::string::npos;
       start = full.find("record ", start + 1)) {
    if (start != 0 && full[start - 1] != '\n') continue;
    const std::size_t end = full.find('\n', start);
    std::istringstream fields{full.substr(start, end - start)};
    std::vector<std::string> words;
    for (std::string w; fields >> w;) words.push_back(w);
    ASSERT_EQ(words.size(), 6u);
    for (std::size_t field : {2u, 3u}) {  // lines, bytes
      const long long value = std::stoll(words[field]);
      for (long long lie : {value - 1, value + 1, 0LL, 1LL << 40}) {
        std::vector<std::string> lied = words;
        lied[field] = std::to_string(lie);
        std::string header = lied[0];
        for (std::size_t i = 1; i < lied.size(); ++i) header += " " + lied[i];
        const std::string text =
            full.substr(0, start) + header + full.substr(end);
        expect_walk_like_reference(
            path, text,
            "record at byte " + std::to_string(start) +
                (field == 2 ? " lines " : " bytes ") + std::to_string(lie));
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(CertLogWalk, SeqDelta6MatchesTheLineByLineReference) {
  sweep_walk(reference_chain(6), "walk_seq6.ldcl");
}

TEST(CertLogWalk, PoDelta5MatchesTheLineByLineReference) {
  ProposalPacking proposal;
  EcFromPo po{proposal};
  sweep_walk(run_adversary(po, 5), "walk_po5.ldcl");
}

TEST(CertLog, RoundTripsAChainExactly) {
  const LowerBoundCertificate chain = reference_chain(5);
  CertificateLog log{temp_path("roundtrip.ldcl")};
  log.remove();
  log.checkpoint(chain);

  const CertLogReport report = log.scan();
  EXPECT_TRUE(report.file_found);
  EXPECT_EQ(report.damage, LogDamage::kNone);
  EXPECT_EQ(report.levels_intact, static_cast<int>(chain.levels.size()));
  EXPECT_TRUE(report.recoverable());

  RecoveryReport recovery;
  const LowerBoundCertificate loaded = log.load(&recovery);
  EXPECT_TRUE(recovery.complete);
  EXPECT_EQ(recovery.levels_loaded, static_cast<int>(chain.levels.size()));
  EXPECT_EQ(certificate_to_string(loaded), certificate_to_string(chain));

  // The file is exactly serialize() of the chain, and scan() agrees on its
  // length — no trailing bytes, no hidden state.
  EXPECT_EQ(slurp(log.path()), CertificateLog::serialize(chain));
  EXPECT_EQ(report.valid_bytes, CertificateLog::serialize(chain).size());
  log.remove();
}

TEST(CertLog, CheckpointAppendsIncrementally) {
  const LowerBoundCertificate full = reference_chain(6);
  CertificateLog log{temp_path("incremental.ldcl")};
  log.remove();

  // Growing the chain one level at a time must only ever *extend* the
  // file: every prefix of the final byte content is what the file held
  // after the corresponding checkpoint.
  LowerBoundCertificate growing;
  growing.delta = full.delta;
  growing.algorithm_name = full.algorithm_name;
  std::string previous_bytes;
  for (const CertificateLevel& lv : full.levels) {
    growing.levels.push_back(lv);
    log.checkpoint(growing);
    const std::string bytes = slurp(log.path());
    EXPECT_EQ(bytes.rfind(previous_bytes, 0), 0u)
        << "append rewrote earlier bytes at level " << lv.level;
    EXPECT_GT(bytes.size(), previous_bytes.size());
    previous_bytes = bytes;
  }
  EXPECT_EQ(previous_bytes, CertificateLog::serialize(full));
  log.remove();
}

TEST(CertLog, MissingFileLoadsEmpty) {
  CertificateLog log{temp_path("missing.ldcl")};
  log.remove();
  EXPECT_FALSE(log.exists());
  const CertLogReport report = log.scan();
  EXPECT_FALSE(report.file_found);
  EXPECT_EQ(report.damage, LogDamage::kNone);
  RecoveryReport recovery;
  EXPECT_TRUE(log.load(&recovery).levels.empty());
  EXPECT_FALSE(recovery.file_found);
  EXPECT_EQ(recovery.drop_reason, "no certificate log file");
}

TEST(CertLog, TornTailTruncatesToValidPrefixAndResumes) {
  const LowerBoundCertificate chain = reference_chain(5);
  const std::string clean = CertificateLog::serialize(chain);
  CertificateLog reference{temp_path("torn_ref.ldcl")};
  reference.remove();
  reference.checkpoint(chain);

  // Tear the file at every byte inside its final record: each cut must
  // classify kTornTail (or be the clean boundary), load the remaining
  // records, and checkpoint() must repair to the byte-identical clean log.
  std::uint64_t last_record_start = 0;
  (void)inspect_certificate_log(reference.path(),
                                [&](const CertLogRecordInfo& info) {
                                  last_record_start = info.offset;
                                });
  ASSERT_GT(last_record_start, 0u);
  const std::string torn_path = temp_path("torn.ldcl");
  for (std::uint64_t cut = last_record_start; cut < clean.size(); ++cut) {
    spill(torn_path, clean.substr(0, cut));
    CertificateLog log{torn_path};
    const CertLogReport report = log.scan();
    if (cut == last_record_start) {
      EXPECT_EQ(report.damage, LogDamage::kNone);  // clean record boundary
    } else {
      EXPECT_EQ(report.damage, LogDamage::kTornTail) << "cut=" << cut;
    }
    EXPECT_TRUE(report.recoverable());
    EXPECT_EQ(report.levels_intact, static_cast<int>(chain.levels.size()) - 1);

    RecoveryReport recovery;
    const LowerBoundCertificate salvaged = log.load(&recovery);
    EXPECT_EQ(salvaged.levels.size(), chain.levels.size() - 1);

    log.checkpoint(chain);
    EXPECT_EQ(slurp(torn_path), clean) << "cut=" << cut;
  }
  reference.remove();
  std::remove(torn_path.c_str());
}

TEST(CertLog, BitFlipInPayloadRejectsWholeArtifact) {
  const LowerBoundCertificate chain = reference_chain(4);
  const std::string clean = CertificateLog::serialize(chain);
  const std::string path = temp_path("bitflip.ldcl");

  // Flip one byte inside the *first* record's payload digits: the self
  // checksum fails, the taxonomy says kBitFlip, and load() salvages
  // nothing — mid-file damage is never "repaired".
  std::uint64_t first_record_off = 0;
  {
    CertificateLog setup{path};
    setup.remove();
    setup.checkpoint(chain);
    bool first = true;
    (void)inspect_certificate_log(path, [&](const CertLogRecordInfo& info) {
      if (first) first_record_off = info.offset;
      first = false;
    });
  }
  std::string bytes = clean;
  const std::uint64_t target = first_record_off + 30;  // inside payload
  ASSERT_LT(target, bytes.size());
  bytes[target] ^= 0x01;
  spill(path, bytes);

  CertificateLog log{path};
  const CertLogReport report = log.scan();
  EXPECT_TRUE(report.damage == LogDamage::kBitFlip ||
              report.damage == LogDamage::kChainBreak ||
              report.damage == LogDamage::kBadRecord)
      << to_string(report.damage);
  EXPECT_FALSE(report.recoverable());
  RecoveryReport recovery;
  EXPECT_TRUE(log.load(&recovery).levels.empty());
  EXPECT_FALSE(recovery.complete);
  EXPECT_NE(recovery.drop_reason, "");

  // checkpoint() over a rejected artifact rebuilds from scratch.
  log.checkpoint(chain);
  EXPECT_EQ(slurp(path), clean);
  log.remove();
}

TEST(CertLog, ReorderedRecordsAreAChainBreak) {
  const LowerBoundCertificate chain = reference_chain(5);
  const std::string clean = CertificateLog::serialize(chain);
  const std::string path = temp_path("reorder.ldcl");

  // Swap records 1 and 2 wholesale. Each still carries a valid self
  // checksum, so only the predecessor chain can convict: index-out-of-
  // sequence (kChainBreak) at the first displaced record.
  std::vector<std::uint64_t> offsets;
  {
    CertificateLog setup{path};
    setup.remove();
    setup.checkpoint(chain);
    (void)inspect_certificate_log(path, [&](const CertLogRecordInfo& info) {
      offsets.push_back(info.offset);
    });
  }
  ASSERT_GE(offsets.size(), 4u);
  const std::string rec1 =
      clean.substr(offsets[1], offsets[2] - offsets[1]);
  const std::string rec2 =
      clean.substr(offsets[2], offsets[3] - offsets[2]);
  const std::string spliced = clean.substr(0, offsets[1]) + rec2 + rec1 +
                              clean.substr(offsets[3]);
  spill(path, spliced);

  CertificateLog log{path};
  const CertLogReport report = log.scan();
  EXPECT_EQ(report.damage, LogDamage::kChainBreak);
  EXPECT_EQ(report.defect_level, 1);
  EXPECT_FALSE(report.recoverable());
  RecoveryReport recovery;
  EXPECT_TRUE(log.load(&recovery).levels.empty());
  log.remove();
}

TEST(CertLog, DuplicatedRecordIsAChainBreak) {
  const LowerBoundCertificate chain = reference_chain(4);
  const std::string clean = CertificateLog::serialize(chain);
  const std::string path = temp_path("duplicate.ldcl");
  std::vector<std::uint64_t> offsets;
  {
    CertificateLog setup{path};
    setup.remove();
    setup.checkpoint(chain);
    (void)inspect_certificate_log(path, [&](const CertLogRecordInfo& info) {
      offsets.push_back(info.offset);
    });
  }
  ASSERT_GE(offsets.size(), 2u);
  const std::string rec1 = clean.substr(offsets[1]);
  spill(path, clean + rec1);  // replay the tail record

  CertificateLog log{path};
  const CertLogReport report = log.scan();
  EXPECT_EQ(report.damage, LogDamage::kChainBreak);
  EXPECT_FALSE(report.recoverable());
  log.remove();
}

TEST(CertLog, HeaderTamperSurfacesEvenWhenItStillParses) {
  const LowerBoundCertificate chain = reference_chain(4);
  std::string bytes = CertificateLog::serialize(chain);
  const std::string path = temp_path("header_tamper.ldcl");

  // "delta 4" -> "delta 5": still a perfectly parsable header, but the
  // genesis checksum seeds the chain, so record 0 no longer verifies.
  const std::size_t pos = bytes.find("delta 4");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos + 6] = '5';
  spill(path, bytes);

  CertificateLog log{path};
  const CertLogReport report = log.scan();
  EXPECT_EQ(report.damage, LogDamage::kChainBreak);
  EXPECT_EQ(report.defect_level, 0);
  EXPECT_FALSE(report.recoverable());
  log.remove();
}

TEST(CertLog, StreamingValidationMatchesResidentValidation) {
  const int delta = 6;
  const LowerBoundCertificate chain = reference_chain(delta);
  CertificateLog log{temp_path("validate.ldcl")};
  log.remove();
  log.checkpoint(chain);

  SeqColorPacking alg{delta};
  int seen = 0;
  const CertLogValidation v = validate_certificate_log(
      log.path(), alg, /*check_loopiness=*/true,
      [&](const LevelValidation& lv) {
        EXPECT_TRUE(lv.ok()) << "level " << lv.level;
        ++seen;
      });
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.delta, delta);
  EXPECT_EQ(v.algorithm_name, chain.algorithm_name);
  EXPECT_EQ(v.levels_checked, delta - 1);
  EXPECT_EQ(seen, delta - 1);
  EXPECT_TRUE(v.chain_complete);

  // A log the *wrong algorithm* reads must fail semantic validation even
  // though every checksum passes.
  TwoPhasePacking other{delta};
  const CertLogValidation wrong =
      validate_certificate_log(log.path(), other);
  EXPECT_FALSE(wrong.ok());
  EXPECT_GE(wrong.first_invalid_level, 0);
  log.remove();
}

// A record header's line count is what append_certificate_level reports:
// the level's newlines, 4 + |E(G)| + |E(H)|.
TEST(CertLog, RecordLineCountIsTheLevelsLineCount) {
  const LowerBoundCertificate chain = reference_chain(6);
  std::vector<long long> want;
  for (const CertificateLevel& lv : chain.levels) {
    std::string payload;
    const long long lines = append_certificate_level(payload, lv);
    EXPECT_EQ(lines, std::count(payload.begin(), payload.end(), '\n'));
    EXPECT_EQ(lines, 4 + lv.g.edge_count() + lv.h.edge_count());
    want.push_back(lines);
  }
  CertificateLog log{temp_path("lines.ldcl")};
  log.remove();
  log.checkpoint(chain);
  std::vector<long long> got;
  const CertLogReport report = inspect_certificate_log(
      log.path(),
      [&](const CertLogRecordInfo& info) { got.push_back(info.payload_lines); });
  EXPECT_EQ(report.damage, LogDamage::kNone);
  EXPECT_EQ(got, want);
  EXPECT_EQ(slurp(log.path()), CertificateLog::serialize(chain));
  log.remove();
}

TEST(CertLog, IncompleteChainIsValidButNotComplete) {
  const LowerBoundCertificate chain = reference_chain(6);
  LowerBoundCertificate partial = chain;
  partial.levels.resize(2);
  CertificateLog log{temp_path("partial.ldcl")};
  log.remove();
  log.checkpoint(partial);

  SeqColorPacking alg{6};
  const CertLogValidation v = validate_certificate_log(log.path(), alg);
  EXPECT_EQ(v.log.damage, LogDamage::kNone);
  EXPECT_EQ(v.levels_checked, 2);
  EXPECT_EQ(v.first_invalid_level, -1);
  EXPECT_FALSE(v.chain_complete);
  EXPECT_FALSE(v.ok());
  log.remove();
}

TEST(CertLog, ResumableEngineRunsOverTheLogByteIdentically) {
  // The engine's checkpoint path end to end: crash-stop a resumable run
  // that checkpoints into the log, resume it, and compare against the
  // uninterrupted run.
  const int delta = 5;
  const std::string reference =
      certificate_to_string(reference_chain(delta));

  CertificateLog log{temp_path("engine.ldcl")};
  log.remove();
  {
    SeqColorPacking alg{delta};
    ResumeOptions options;
    options.on_checkpoint = crash_at_level(1);
    EXPECT_THROW(run_adversary_resumable(alg, delta, log, options),
                 FaultInjected);
  }
  // The crash left a clean log holding exactly levels 0..1.
  const CertLogReport mid = log.scan();
  EXPECT_EQ(mid.damage, LogDamage::kNone);
  EXPECT_EQ(mid.levels_intact, 2);

  SeqColorPacking alg{delta};
  ResumeInfo info;
  const LowerBoundCertificate resumed =
      run_adversary_resumable(alg, delta, log, {}, &info);
  EXPECT_EQ(certificate_to_string(resumed), reference);
  EXPECT_EQ(info.loaded_levels, 2);
  EXPECT_EQ(info.trusted_levels, 2);
  EXPECT_EQ(info.computed_levels, delta - 2 - 1);
  log.remove();
}

TEST(CertLog, RevalidationRejectTruncatesTheLogTail) {
  // A log whose tail was built by a *different* algorithm fails the
  // engine's semantic revalidation; the engine then hands checkpoint() a
  // shorter trusted prefix, which must truncate the stale tail in place —
  // never leave rejected records behind the new ones.
  const int delta = 5;
  const std::string path = temp_path("revalidate.ldcl");
  {
    TwoPhasePacking other{delta};
    CertificateLog log{path};
    log.remove();
    LowerBoundCertificate foreign = run_adversary(other, delta);
    // Re-label so delta/name match the upcoming job and only semantics
    // can convict the tail.
    foreign.algorithm_name = SeqColorPacking{delta}.name();
    log.checkpoint(foreign);
  }
  SeqColorPacking alg{delta};
  CertificateLog log{path};
  ResumeInfo info;
  const LowerBoundCertificate resumed =
      run_adversary_resumable(alg, delta, log, {}, &info);
  EXPECT_EQ(certificate_to_string(resumed),
            certificate_to_string(reference_chain(delta)));
  EXPECT_LT(info.trusted_levels, info.loaded_levels);
  EXPECT_NE(info.discard_reason, "");
  // The repaired log round-trips cleanly and holds the resumed chain.
  const CertLogReport report = log.scan();
  EXPECT_EQ(report.damage, LogDamage::kNone);
  EXPECT_EQ(report.levels_intact, delta - 1);
  EXPECT_EQ(slurp(path), CertificateLog::serialize(resumed));
  log.remove();
}

TEST(CertLog, CheckpointResetsAStoreNamedForAnotherJob) {
  const LowerBoundCertificate five = reference_chain(5);
  const LowerBoundCertificate four = reference_chain(4);
  CertificateLog log{temp_path("rejob.ldcl")};
  log.remove();
  log.checkpoint(five);
  // Same path, different job: the log must not try to splice — it resets.
  log.checkpoint(four);
  EXPECT_EQ(slurp(log.path()), CertificateLog::serialize(four));
  log.remove();
}

}  // namespace
}  // namespace ldlb
