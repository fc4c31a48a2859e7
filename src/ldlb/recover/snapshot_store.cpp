#include "ldlb/recover/snapshot_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "ldlb/core/certificate_io.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/checksum.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/line_reader.hpp"

namespace ldlb {

namespace {

// Incremental line-oriented reader that, unlike LineReader, never throws on
// malformed content: the loader's contract is to degrade, not to reject.
struct SnapshotScanner {
  std::istream& in;
  int line_no = 0;
  std::string line;

  bool next() {
    if (!std::getline(in, line)) return false;
    ++line_no;
    return true;
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

}  // namespace

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

SnapshotStore::SnapshotStore(std::string path) : path_(std::move(path)) {
  LDLB_REQUIRE_MSG(!path_.empty(), "snapshot store needs a path");
}

bool SnapshotStore::exists() const {
  std::ifstream in{path_};
  return static_cast<bool>(in);
}

std::string SnapshotStore::serialize(const LowerBoundCertificate& chain) {
  LDLB_REQUIRE_MSG(chain.levels.empty() || !chain.algorithm_name.empty(),
                   "a snapshot with levels needs an algorithm name");
  std::string out = "ldlb-snapshot 1\ndelta ";
  append_int(out, chain.delta);
  out += "\nalgorithm ";
  out += chain.algorithm_name.empty() ? "-" : chain.algorithm_name;
  out += '\n';
  std::string payload;
  for (std::size_t i = 0; i < chain.levels.size(); ++i) {
    payload.clear();
    append_certificate_level(payload, chain.levels[i]);
    out += "record ";
    append_int(out, static_cast<long long>(i));
    out += ' ';
    append_int(out, std::count(payload.begin(), payload.end(), '\n'));
    out += ' ';
    out += checksum_to_hex(fnv1a_64(payload));
    out += '\n';
    out += payload;
  }
  out += "end ";
  append_int(out, static_cast<long long>(chain.levels.size()));
  out += '\n';
  return out;
}

void SnapshotStore::save(const LowerBoundCertificate& chain) {
  write_file_atomic(path_, serialize(chain));
}

LowerBoundCertificate SnapshotStore::load(RecoveryReport* report) {
  RecoveryReport rep;
  rep.path = path_;
  LowerBoundCertificate chain;

  std::ifstream in{path_};
  if (!in) {
    rep.drop_reason = "no snapshot file";
    if (report != nullptr) *report = rep;
    return chain;
  }
  rep.file_found = true;
  SnapshotScanner sc{in, 0, {}};

  const auto drop_tail = [&](const std::string& why) {
    rep.drop_reason = why;
    rep.drop_line = sc.line_no;
  };

  // Header: any defect here means nothing can be salvaged.
  long long version = 0;
  if (!sc.next() || !parse_fields(sc.line, "ldlb-snapshot", {&version}) ||
      version != 1) {
    drop_tail("bad or missing snapshot magic");
  } else {
    long long delta = 0;
    std::string name;
    if (!sc.next() || !parse_fields(sc.line, "delta", {&delta}) || delta < 0) {
      drop_tail("bad or missing delta line");
    } else if (!sc.next() ||
               !parse_fields(sc.line, "algorithm", {}, &name)) {
      drop_tail("bad or missing algorithm line");
    } else {
      chain.delta = static_cast<int>(delta);
      chain.algorithm_name = name == "-" ? "" : name;

      // Records, in order, until the trailer or the first defect.
      for (;;) {
        if (!sc.next()) {
          drop_tail("file ends before the 'end' trailer");
          break;
        }
        long long count = 0;
        if (parse_fields(sc.line, "end", {&count})) {
          if (count != static_cast<long long>(chain.levels.size())) {
            drop_tail("trailer record count disagrees with records read");
          } else if (sc.next()) {
            drop_tail("trailing garbage after the 'end' trailer");
          } else {
            rep.complete = true;
          }
          break;
        }
        long long index = 0, lines = 0;
        std::string hex;
        std::istringstream ls{sc.line};
        std::string tag, extra;
        if (!(ls >> tag) || tag != "record" || !(ls >> index >> lines >> hex) ||
            (ls >> extra)) {
          drop_tail("expected a 'record' header or the 'end' trailer");
          break;
        }
        std::uint64_t want = 0;
        if (index != static_cast<long long>(chain.levels.size()) ||
            lines <= 0 || !checksum_from_hex(hex, want)) {
          drop_tail("malformed record header");
          break;
        }
        std::string payload;
        bool truncated = false;
        for (long long i = 0; i < lines; ++i) {
          if (!sc.next()) {
            truncated = true;
            break;
          }
          payload += sc.line;
          payload += '\n';
        }
        if (truncated) {
          drop_tail("record payload truncated");
          break;
        }
        if (fnv1a_64(payload) != want) {
          drop_tail("record checksum mismatch");
          break;
        }
        // The checksum passed, so the payload is byte-exact; a parse failure
        // here means the record was *written* damaged — drop it and stop.
        try {
          LineReader r{std::string_view(payload)};
          CertificateLevel lv = read_certificate_level(r);
          if (!r.at_end()) {
            drop_tail("record payload has trailing content");
            break;
          }
          if (lv.level != static_cast<int>(chain.levels.size())) {
            drop_tail("record level index out of sequence");
            break;
          }
          chain.levels.push_back(std::move(lv));
        } catch (const ParseError& e) {
          std::ostringstream os;
          os << "record payload unparsable: " << e.what();
          drop_tail(os.str());
          break;
        }
      }
    }
  }

  rep.levels_loaded = static_cast<int>(chain.levels.size());
  if (report != nullptr) *report = rep;
  return chain;
}

void SnapshotStore::remove() {
  if (std::remove(path_.c_str()) != 0 && errno != ENOENT) {
    std::ostringstream os;
    os << "remove failed for '" << path_ << "': " << std::strerror(errno);
    throw IoError(os.str(), path_);
  }
}

}  // namespace ldlb
