#include "ldlb/recover/cert_log.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>

#include "ldlb/core/certificate_io.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/line_reader.hpp"

namespace ldlb {

namespace {

// The log as the walk reads it: the file header and the record headers one
// line at a time, and each record's payload in one read, into a buffer of
// its own. Never throws on content (the walk classifies, it does not
// reject); tracks what torn-tail detection needs: the line count, the byte
// offset and whether the last line read carried its newline.
struct LogScanner {
  std::istream& in;
  int line_no = 0;
  std::uint64_t offset = 0;  ///< bytes consumed so far
  std::string line;
  bool terminated = false;  ///< the line ended with '\n'
  std::uint64_t size = 0;   ///< the file's length when opened

  bool next() {
    if (!std::getline(in, line)) return false;
    ++line_no;
    // getline only sets eofbit when it ran out of bytes *before* the
    // delimiter — i.e. the file's last line is missing its newline.
    terminated = !in.eof();
    offset += line.size() + (terminated ? 1 : 0);
    return true;
  }

  /// Reads up to `want` bytes into a buffer sized by what the file held
  /// when opened — never more than `want`, never past the file's end — and
  /// returns how many it read; fewer than `want` only at the end.
  std::size_t read_payload(std::unique_ptr<char[]>& buf, std::uint64_t want) {
    const auto cap = static_cast<std::size_t>(
        std::min(want, size > offset ? size - offset : 0));
    buf = std::make_unique_for_overwrite<char[]>(cap);
    in.read(buf.get(), static_cast<std::streamsize>(cap));
    const auto got = static_cast<std::size_t>(in.gcount());
    offset += got;
    return got;
  }

  /// Consumes input through the `want`-th newline, or to the end, and
  /// returns the newlines found. `open` says whether the line being
  /// counted already has bytes; on return, whether the input ended inside
  /// a line that has bytes.
  std::uint64_t skip_lines(std::uint64_t want, bool& open) {
    std::uint64_t found = 0;
    while (found < want) {
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      if (in.gcount() == 0) break;
      if (in.eof()) {  // the last line, without its newline
        open = true;
        break;
      }
      open = false;
      ++found;
    }
    return found;
  }
};

// Parses "<tag> <fields...>" and returns false unless the tag matches and
// every field converts cleanly with nothing left over.
bool parse_fields(const std::string& line, const std::string& tag,
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
  return !(ls >> word);  // trailing garbage invalidates the line
}

// The chain absorbs the record index and the canonical hex of the payload
// checksum: chain_i = fnv1a_128("<i> <self_i>", chain_{i-1}).
Checksum128 chain_step(int index, const Checksum128& self,
                       const Checksum128& previous) {
  std::string step;
  append_int(step, index);
  step += ' ';
  step += checksum_to_hex(self);
  return fnv1a_128(step, previous);
}

using OnLevel =
    std::function<void(const CertLogRecordInfo&, CertificateLevel&&)>;

// One streaming pass: classifies damage per the taxonomy (cert_log.hpp),
// fills `geom` with the verified prefix's geometry, and hands each fully
// verified level to `on_level` (which may be null). Holds one payload at a
// time. Throws only on environmental IO failure (the before_read seam).
CertLogReport walk_log(const std::string& path,
                       detail::CertLogGeometry& geom,
                       const OnLevel& on_level) {
  geom = {};
  CertLogReport rep;
  rep.path = path;

  FsFaultInjector* inj = fs_fault_injector();
  if (inj) inj->before_read(path);
  std::ifstream in{path, std::ios::binary};
  if (!in) return rep;  // no file: nothing found, nothing damaged
  rep.file_found = true;
  geom.file_found = true;

  LogScanner sc{in, 0, 0, {}, false};
  if (in.seekg(0, std::ios::end)) {
    sc.size = static_cast<std::uint64_t>(
        std::max<std::streamoff>(in.tellg(), 0));
    in.seekg(0);
  }
  in.clear();

  const auto classify = [&](LogDamage damage, int level, std::string why) {
    rep.damage = damage;
    rep.defect_level = level;
    rep.defect_line = sc.line_no;
    rep.detail = std::move(why);
    geom.damage = damage;
  };

  // Header: three lines. A file that ends — or ends mid-line — inside the
  // header is a torn creation (salvage nothing, resume from scratch); three
  // complete lines that do not parse are kBadHeader. Note the header's
  // exact bytes seed the chain, so even a *parsable* header tamper (say a
  // flipped delta digit) breaks the chain at record 0.
  long long version = 0, delta = 0;
  std::string name;
  std::string header_text;
  const auto header_line = [&](auto parse) -> int {
    if (!sc.next() || !sc.terminated) return 1;  // torn
    if (!parse()) return 2;                      // malformed
    header_text += sc.line;
    header_text += '\n';
    return 0;
  };
  int header = header_line([&] {
    return parse_fields(sc.line, "ldlb-cert-log", {&version}) && version == 1;
  });
  if (header == 0) {
    header = header_line(
        [&] { return parse_fields(sc.line, "delta", {&delta}) && delta >= 0; });
  }
  if (header == 0) {
    header =
        header_line([&] { return parse_fields(sc.line, "algorithm", {}, &name); });
  }
  if (header == 1) {
    classify(LogDamage::kTornTail, -1, "file ends inside the header");
    return rep;
  }
  if (header == 2) {
    classify(LogDamage::kBadHeader, -1, "malformed header line");
    return rep;
  }

  geom.delta = static_cast<int>(delta);
  geom.algorithm_name = name == "-" ? "" : name;
  geom.genesis = fnv1a_128(header_text);
  geom.header_end = sc.offset;
  rep.valid_bytes = sc.offset;

  Checksum128 chain = geom.genesis;
  for (;;) {
    if (inj) inj->before_read(path);  // one consult per streamed record
    const std::uint64_t record_offset = sc.offset;
    if (!sc.next()) break;  // clean end: a valid (possibly shorter) log
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
      // Complete but malformed: a torn append cannot produce this (the cut
      // would leave the line unterminated), so the content changed.
      classify(LogDamage::kBitFlip, rep.levels_intact,
               "malformed record header");
      break;
    }
    if (index != rep.levels_intact) {
      std::ostringstream why;
      why << "record index out of sequence (found " << index << ", expected "
          << rep.levels_intact << ")";
      classify(LogDamage::kChainBreak, rep.levels_intact, why.str());
      break;
    }
    // The payload: `bytes` bytes read in one go (or what the file holds, if
    // less), which must be exactly `lines` newline-terminated lines. When
    // they are not, the lines decide as the line-by-line reading did: a
    // file that ends before `lines` lines is a torn tail, and `lines` lines
    // of another length are a byte-count flip.
    std::unique_ptr<char[]> payload;
    const std::uint64_t want_bytes = static_cast<std::uint64_t>(bytes);
    const std::size_t got = sc.read_payload(payload, want_bytes);
    const char* p = payload.get();
    const char* const stop = p + got;
    long long seen = 0;
    while (seen < lines && p != stop) {
      const char* const nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(stop - p)));
      if (nl == nullptr) break;
      p = nl + 1;
      ++seen;
    }
    const bool exact = seen == lines && p == stop && got == want_bytes;
    if (seen < lines) {
      bool open = p != stop;
      if (got == want_bytes) {
        seen += static_cast<long long>(
            sc.skip_lines(static_cast<std::uint64_t>(lines - seen), open));
      }
      if (seen < lines) {
        sc.line_no += static_cast<int>(seen) + (open ? 1 : 0);
        classify(LogDamage::kTornTail, rep.levels_intact,
                 "record payload truncated");
        break;
      }
    }
    sc.line_no += static_cast<int>(lines);
    if (!exact) {
      classify(LogDamage::kBitFlip, rep.levels_intact,
               "record byte count disagrees with its payload");
      break;
    }
    const std::string_view text(payload.get(), got);
    const Checksum128 self = fnv1a_128(text);
    if (self != want_self) {
      classify(LogDamage::kBitFlip, rep.levels_intact,
               "record payload fails its self checksum");
      break;
    }
    const Checksum128 next_chain = chain_step(static_cast<int>(index), self,
                                              chain);
    if (next_chain != want_chain) {
      classify(LogDamage::kChainBreak, rep.levels_intact,
               "record chain checksum disagrees with its predecessor");
      break;
    }
    // Both checksums passed, so the payload is byte-exact; a parse failure
    // here means the record was *written* damaged, not flipped.
    bool bad_record = false;
    CertificateLevel lv;
    try {
      LineReader reader{text};
      lv = read_certificate_level(reader);
      if (!reader.at_end()) {
        classify(LogDamage::kBadRecord, rep.levels_intact,
                 "record payload has trailing content");
        bad_record = true;
      } else if (lv.level != index) {
        classify(LogDamage::kBadRecord, rep.levels_intact,
                 "payload level index disagrees with the record index");
        bad_record = true;
      }
    } catch (const ParseError& e) {
      classify(LogDamage::kBadRecord, rep.levels_intact,
               std::string("checksum-valid payload unparsable: ") + e.what());
      bad_record = true;
    }
    // Free the text before the consumer runs: `on_level` may re-validate
    // the level (graphs, ball table), and the streaming-footprint promise
    // is O(one level), not O(one level + its text).
    payload.reset();
    if (bad_record) break;
    if (on_level) {
      CertLogRecordInfo info;
      info.index = static_cast<int>(index);
      info.payload_lines = static_cast<int>(lines);
      info.payload_bytes = static_cast<std::uint64_t>(bytes);
      info.offset = record_offset;
      info.self = self;
      info.chain = next_chain;
      on_level(info, std::move(lv));
    }
    chain = next_chain;
    geom.records.push_back({sc.offset, chain});
    rep.valid_bytes = sc.offset;
    ++rep.levels_intact;
  }
  return rep;
}

}  // namespace

const char* to_string(LogDamage damage) {
  switch (damage) {
    case LogDamage::kNone:
      return "none";
    case LogDamage::kTornTail:
      return "torn-tail";
    case LogDamage::kBitFlip:
      return "bit-flip";
    case LogDamage::kChainBreak:
      return "chain-break";
    case LogDamage::kBadHeader:
      return "bad-header";
    case LogDamage::kBadRecord:
      return "bad-record";
  }
  return "unknown";
}

std::string CertLogReport::to_string() const {
  std::ostringstream os;
  os << "certificate log '" << path << "': ";
  if (!file_found) {
    os << "not found";
    return os.str();
  }
  os << levels_intact << " level(s) intact (" << valid_bytes << " bytes)";
  if (damage == LogDamage::kNone) {
    os << ", clean";
  } else {
    os << ", " << ldlb::to_string(damage);
    if (defect_level >= 0) os << " at level " << defect_level;
    os << " (line " << defect_line << ": " << detail << ")";
  }
  return os.str();
}

std::string RecoveryReport::to_string() const {
  std::ostringstream os;
  os << "store '" << path << "': ";
  if (!file_found) {
    os << "not found";
    return os.str();
  }
  os << levels_loaded << " level(s) salvaged";
  if (complete) {
    os << ", complete";
  } else {
    os << ", tail dropped at line " << drop_line << ": " << drop_reason;
  }
  return os.str();
}

CertificateLog::CertificateLog(std::string path) : path_(std::move(path)) {
  LDLB_REQUIRE_MSG(!path_.empty(), "certificate log needs a path");
}

bool CertificateLog::exists() const {
  std::ifstream in{path_};
  return static_cast<bool>(in);
}

CertLogReport CertificateLog::scan() {
  geometry_fresh_ = false;
  CertLogReport rep = walk_log(path_, geom_, nullptr);
  geometry_fresh_ = true;
  return rep;
}

void CertificateLog::refresh_geometry() {
  if (geometry_fresh_) return;
  (void)walk_log(path_, geom_, nullptr);
  geometry_fresh_ = true;
}

LowerBoundCertificate CertificateLog::load(RecoveryReport* report) {
  geometry_fresh_ = false;
  LowerBoundCertificate chain;
  const CertLogReport rep = walk_log(
      path_, geom_,
      [&](const CertLogRecordInfo&, CertificateLevel&& lv) {
        chain.levels.push_back(std::move(lv));
      });
  geometry_fresh_ = true;
  chain.delta = geom_.delta;
  chain.algorithm_name = geom_.algorithm_name;
  // Mid-file damage rejects the whole artefact: unlike a torn tail, a
  // failed tamper check means the file's history cannot be trusted, so
  // nothing is salvaged and the run rebuilds from scratch.
  if (!rep.recoverable()) chain.levels.clear();

  RecoveryReport out;
  out.path = path_;
  out.file_found = rep.file_found;
  out.complete = rep.file_found && rep.damage == LogDamage::kNone;
  out.levels_loaded = static_cast<int>(chain.levels.size());
  out.drop_line = rep.defect_line;
  if (!rep.file_found) {
    out.drop_reason = "no certificate log file";
  } else if (rep.damage != LogDamage::kNone) {
    std::ostringstream os;
    os << ldlb::to_string(rep.damage);
    if (rep.defect_level >= 0) os << " at level " << rep.defect_level;
    os << ": " << rep.detail;
    out.drop_reason = os.str();
  }
  if (report != nullptr) *report = out;
  return chain;
}

namespace {

// Serialises the header / appends one record, advancing `geom` as if the
// text had been appended to the file — the single source of truth for
// writer-side bytes, shared by checkpoint() and serialize().
std::string render_header(const LowerBoundCertificate& chain,
                          detail::CertLogGeometry& geom) {
  std::string text = "ldlb-cert-log 1\ndelta ";
  append_int(text, chain.delta);
  text += "\nalgorithm ";
  text += chain.algorithm_name.empty() ? "-" : chain.algorithm_name;
  text += '\n';
  geom.delta = chain.delta;
  geom.algorithm_name = chain.algorithm_name;
  geom.genesis = fnv1a_128(text);
  geom.header_end = text.size();
  return text;
}

void append_record(std::string& out, const CertificateLevel& lv, int index,
                   detail::CertLogGeometry& geom) {
  // The payload is rendered in place and its header inserted in front of
  // it once the counts and checksums are known.
  const std::size_t record_start = out.size();
  const long long lines = append_certificate_level(out, lv);
  const std::string_view payload = std::string_view(out).substr(record_start);
  const Checksum128 self = fnv1a_128(payload);
  const Checksum128 previous =
      geom.records.empty() ? geom.genesis : geom.records.back().chain;
  const Checksum128 chain = chain_step(index, self, previous);
  std::string header = "record ";
  append_int(header, index);
  header += ' ';
  append_int(header, lines);
  header += ' ';
  append_int(header, static_cast<long long>(payload.size()));
  header += ' ';
  header += checksum_to_hex(self);
  header += ' ';
  header += checksum_to_hex(chain);
  header += '\n';
  out.insert(record_start, header);
  const std::uint64_t start =
      geom.records.empty() ? geom.header_end : geom.records.back().end;
  geom.records.push_back({start + (out.size() - record_start), chain});
}

}  // namespace

std::string CertificateLog::serialize(const LowerBoundCertificate& chain) {
  LDLB_REQUIRE_MSG(chain.levels.empty() || !chain.algorithm_name.empty(),
                   "a certificate log with records needs an algorithm name");
  detail::CertLogGeometry geom;
  std::string text = render_header(chain, geom);
  for (std::size_t i = 0; i < chain.levels.size(); ++i) {
    append_record(text, chain.levels[i], static_cast<int>(i), geom);
  }
  return text;
}

void CertificateLog::checkpoint(const LowerBoundCertificate& chain) {
  LDLB_REQUIRE_MSG(chain.levels.empty() || !chain.algorithm_name.empty(),
                   "a certificate log with records needs an algorithm name");
  refresh_geometry();
  // Any throw below leaves the in-memory geometry unproven — re-scan then.
  geometry_fresh_ = false;

  const bool identity_ok = geom_.file_found && geom_.header_end > 0 &&
                           geom_.delta == chain.delta &&
                           geom_.algorithm_name == chain.algorithm_name;
  if (!identity_ok || !(geom_.damage == LogDamage::kNone ||
                        geom_.damage == LogDamage::kTornTail)) {
    // Fresh file, rejected artefact, or a different job: one full atomic
    // rewrite (write_file_atomic), which also makes the dirent durable.
    detail::CertLogGeometry fresh;
    std::string text = render_header(chain, fresh);
    for (std::size_t i = 0; i < chain.levels.size(); ++i) {
      append_record(text, chain.levels[i], static_cast<int>(i), fresh);
    }
    write_file_atomic(path_, text);
    fresh.file_found = true;
    geom_ = std::move(fresh);
    geometry_fresh_ = true;
    return;
  }

  // Torn tail: durably cut back to the verified prefix before appending.
  std::uint64_t end =
      geom_.records.empty() ? geom_.header_end : geom_.records.back().end;
  if (geom_.damage == LogDamage::kTornTail) {
    truncate_file(path_, end);
    geom_.damage = LogDamage::kNone;
  }

  // The engine's prefix-stability contract (CertificateLog::checkpoint)
  // vouches for every record before the chain's freshly built tail; any
  // record the file holds beyond that is a revalidation-rejected suffix
  // and is truncated away.
  std::size_t keep = chain.levels.size() == geom_.records.size() + 1
                         ? geom_.records.size()
                         : (chain.levels.empty() ? 0
                                                 : chain.levels.size() - 1);
  if (keep > geom_.records.size()) keep = geom_.records.size();
  if (keep < geom_.records.size()) {
    geom_.records.resize(keep);
    end = keep == 0 ? geom_.header_end : geom_.records.back().end;
    truncate_file(path_, end);
  }

  std::string record;
  for (std::size_t i = geom_.records.size(); i < chain.levels.size(); ++i) {
    record.clear();
    append_record(record, chain.levels[i], static_cast<int>(i), geom_);
    append_file_durable(path_, record);
  }
  geometry_fresh_ = true;
}

void CertificateLog::remove() {
  if (std::remove(path_.c_str()) != 0 && errno != ENOENT) {
    std::ostringstream os;
    os << "remove failed for '" << path_ << "': " << std::strerror(errno);
    throw IoError(os.str(), path_);
  }
  geom_ = {};
  geometry_fresh_ = true;
}

CertLogReport inspect_certificate_log(
    const std::string& path,
    const std::function<void(const CertLogRecordInfo&)>& on_record) {
  detail::CertLogGeometry geom;
  return walk_log(path, geom,
                  [&](const CertLogRecordInfo& info, CertificateLevel&&) {
                    if (on_record) on_record(info);
                  });
}

CertLogValidation validate_certificate_log(
    const std::string& path, EcAlgorithm& algorithm, bool check_loopiness,
    const std::function<void(const LevelValidation&)>& on_level) {
  CertLogValidation out;
  detail::CertLogGeometry geom;
  out.log = walk_log(
      path, geom, [&](const CertLogRecordInfo& info, CertificateLevel&& lv) {
        // The same singleton-chain trick the fleet's "validate" verb uses:
        // levels validate independently, so one level at a time is enough.
        LowerBoundCertificate one;
        one.delta = geom.delta;
        one.algorithm_name = algorithm.name();
        one.levels.push_back(std::move(lv));
        const auto validations =
            validate_certificate(one, algorithm, check_loopiness);
        const bool ok = validations.size() == 1 && validations[0].ok();
        ++out.levels_checked;
        if (!ok && out.first_invalid_level < 0) {
          out.first_invalid_level = info.index;
        }
        if (on_level && !validations.empty()) on_level(validations[0]);
      });
  out.delta = geom.delta;
  out.algorithm_name = geom.algorithm_name;
  out.chain_complete = out.log.damage == LogDamage::kNone && geom.delta >= 2 &&
                       out.log.levels_intact == geom.delta - 1;
  return out;
}

}  // namespace ldlb
