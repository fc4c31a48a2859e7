// Rule table and lint engine for ldlb_lint.
//
// Pattern rules run per line of the stripped source; each pattern carries
// its own path scope (prefixes under src/ldlb/). The switch rule is a tiny
// structural scan (paren/brace matching) rather than a pattern, because it
// must pair a `default:` label with the enum cases of the same switch.
//
// To add a rule: append to build_rules() (name, per-pattern scopes, fixed
// token label used in the message), document it in docs/STATIC_ANALYSIS.md,
// and plant a fixture under tests/lint_fixtures/ — lint_test asserts the
// exact diagnostic for every rule.

#include <algorithm>
#include <cctype>
#include <regex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "lint_core.hpp"

namespace ldlb::lint {

namespace {

struct Pattern {
  std::regex re;
  std::string token;   // stable label for the diagnostic message
  bool not_after_lt = false;  // skip matches used as template arguments
  std::vector<std::string> includes;  // prefixes under src/ldlb/; empty = all
  std::vector<std::string> excludes;
};

struct Rule {
  std::string name;
  // message = prefix + "'" + token + "'" + suffix
  std::string prefix;
  std::string suffix;
  std::vector<Pattern> patterns;
};

const std::vector<std::string> kProofLayers = {"core/",  "view/",     "cover/",
                                               "order/", "matching/", "graph/"};
const std::vector<std::string> kSyncUtilities = {
    "util/thread_pool.", "util/cancellation.", "fault/budget_hooks."};

std::vector<Rule> build_rules() {
  auto pat = [](const char* re, const char* token) {
    Pattern p;
    p.re = std::regex(re);
    p.token = token;
    return p;
  };

  std::vector<Rule> rules;

  {
    Rule r;
    r.name = "raw-file-write";
    r.prefix = "raw file write ";
    r.suffix =
        " outside util/atomic_file; route durable output through "
        "write_file_atomic()";
    r.patterns = {
        pat(R"(std::ofstream\b)", "std::ofstream"),
        pat(R"(std::fstream\b)", "std::fstream"),
        pat(R"(\bfopen\s*\()", "fopen("),
        pat(R"(\bfreopen\s*\()", "freopen("),
        pat(R"((::|std::)rename\s*\()", "rename("),
        pat(R"(\bmkstemp\s*\()", "mkstemp("),
        pat(R"(\bO_(WRONLY|RDWR|CREAT|TRUNC|APPEND)\b)",
            "write-mode open(2) flag"),
    };
    for (auto& p : r.patterns) p.excludes = {"util/atomic_file."};
    rules.push_back(std::move(r));
  }

  {
    Rule r;
    r.name = "nondeterminism";
    r.prefix = "nondeterminism source ";
    r.suffix =
        "; certificates are compared byte-for-byte — take an explicit "
        "seeded ldlb::Rng, or keep clocks in util/cancellation";
    Pattern rand_like =
        pat(R"(std::rand\b|\bsrand\s*\(|\brand\s*\()", "rand()");
    Pattern random_device = pat(R"(\brandom_device\b)", "std::random_device");
    Pattern mt = pat(R"(\bmt19937)", "std::mt19937");
    Pattern time_call = pat(R"(\btime\s*\()", "time()");
    Pattern ptr_keyed = pat(R"(std::(multi)?(map|set)\s*<[^,>]*\*)",
                            "pointer-keyed ordered container");
    for (Pattern* p : {&rand_like, &random_device, &mt, &time_call,
                       &ptr_keyed}) {
      p->includes = kProofLayers;
    }
    Pattern wall_clock = pat(R"(\bsystem_clock\b)", "system_clock");
    Pattern mono_clock = pat(R"(\bsteady_clock\b|\bhigh_resolution_clock\b)",
                             "monotonic clock");
    mono_clock.excludes = {"util/cancellation.", "fault/budget_hooks."};
    r.patterns = {rand_like, random_device, mt,        time_call,
                  ptr_keyed, wall_clock,    mono_clock};
    rules.push_back(std::move(r));
  }

  {
    Rule r;
    r.name = "raw-sync";
    r.prefix = "raw concurrency primitive ";
    r.suffix =
        " outside util/thread_pool, util/cancellation, fault/budget_hooks; "
        "use the pool, or annotate why the site is schedule-safe";
    Pattern mutex = pat(R"(std::(recursive_|shared_|timed_)?mutex\b)",
                        "std::mutex");
    mutex.not_after_lt = true;  // the declaration, not each lock_guard use
    r.patterns = {
        pat(R"(std::j?thread\b)", "std::thread"),
        std::move(mutex),
        pat(R"(std::condition_variable\w*)", "std::condition_variable"),
        pat(R"(std::atomic\b|std::atomic_flag\b)", "std::atomic"),
        pat(R"(std::call_once\b|std::once_flag\b)", "std::call_once"),
        pat(R"(std::async\b|std::future\b|std::promise\b)", "std::async"),
    };
    for (auto& p : r.patterns) p.excludes = kSyncUtilities;
    rules.push_back(std::move(r));
  }

  {
    Rule r;
    r.name = "catch-all";
    r.prefix = "";
    r.suffix =
        " outside the thread-pool/guarded-run boundaries; catch the typed "
        "ldlb errors, or annotate why the boundary must be opaque";
    Pattern p = pat(R"(catch\s*\(\s*\.\.\.\s*\))", "catch (...)");
    p.excludes = {"util/thread_pool.", "fault/guarded_run."};
    r.patterns = {std::move(p)};
    rules.push_back(std::move(r));
  }

  {
    Rule r;
    r.name = "raw-process";
    r.prefix = "raw process control ";
    r.suffix =
        " outside util/ipc; spawn, signal and reap workers through the ipc "
        "module so every process-control site is audited";
    r.patterns = {
        pat(R"(\bv?fork\s*\()", "fork("),
        pat(R"(\bexec[lv][pe]{0,2}\s*\()", "exec*("),
        pat(R"(\bpipe2?\s*\()", "pipe("),
        pat(R"(\bwait(pid|id|3|4)\s*\(|::wait\s*\()", "waitpid("),
        pat(R"(\bkill(pg)?\s*\()", "kill("),
        pat(R"(\bsig(action|procmask|nal)\s*\()", "signal("),
        pat(R"(\b_exit\s*\()", "_exit("),
    };
    for (auto& p : r.patterns) p.excludes = {"util/ipc."};
    rules.push_back(std::move(r));
  }

  {
    Rule r;
    r.name = "raw-socket";
    r.prefix = "raw socket syscall ";
    r.suffix =
        " outside util/net; open, connect and configure sockets through "
        "the net module so framing, deadlines and fault injection stay in "
        "one audited place";
    r.patterns = {
        pat(R"(\bsocket\s*\()", "socket("),
        // FaultPlan::bind() is a project method, so the syscall must be
        // ::-qualified to count (matching how util/net calls it).
        pat(R"((^|[^\w])::bind\s*\()", "bind("),
        pat(R"(\blisten\s*\()", "listen("),
        pat(R"(\baccept4?\s*\()", "accept("),
        pat(R"(\bconnect\s*\()", "connect("),
        pat(R"(\bgetsockname\s*\()", "getsockname("),
        pat(R"(\bsetsockopt\s*\()", "setsockopt("),
    };
    for (auto& p : r.patterns) p.excludes = {"util/net."};
    rules.push_back(std::move(r));
  }

  {
    Rule r;
    r.name = "raw-log-write";
    r.prefix = "raw log write ";
    r.suffix =
        " outside recover/cert_log and util/atomic_file; the append-only "
        "certificate log owns its chained-checksum geometry — route appends "
        "and truncations through CertificateLog so tamper evidence cannot "
        "be bypassed";
    r.patterns = {
        pat(R"(\bftruncate\s*\()", "ftruncate("),
        // ::-qualified like raw-socket's bind: truncate_file is the audited
        // wrapper, ::truncate the syscall.
        pat(R"((^|[^\w])::truncate\s*\()", "truncate("),
        pat(R"(\bappend_file_durable\s*\()", "append_file_durable("),
        pat(R"(\btruncate_file\s*\()", "truncate_file("),
        pat(R"(std::ios(_base)?::app\b)", "std::ios::app"),
    };
    for (auto& p : r.patterns) {
      p.excludes = {"util/atomic_file.", "recover/cert_log."};
    }
    rules.push_back(std::move(r));
  }

  // switch-default-on-enum is structural; registered for name validation.
  {
    Rule r;
    r.name = "switch-default-on-enum";
    rules.push_back(std::move(r));
  }

  return rules;
}

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = build_rules();
  return kRules;
}

// True when `sub` (path under src/ldlb/) starts with any listed prefix.
bool has_prefix(const std::string& sub, const std::vector<std::string>& list) {
  return std::any_of(list.begin(), list.end(), [&](const std::string& p) {
    return sub.rfind(p, 0) == 0;
  });
}

bool pattern_in_scope(const std::string& sub, const Pattern& p) {
  if (!p.includes.empty() && !has_prefix(sub, p.includes)) return false;
  return !has_prefix(sub, p.excludes);
}

// Last non-space character before `pos` on the same line, or '\0'.
char prev_nonspace(const std::string& line, std::size_t pos) {
  while (pos > 0) {
    const char c = line[--pos];
    if (std::isspace(static_cast<unsigned char>(c)) == 0) return c;
  }
  return '\0';
}

bool word_bounded(const std::string& text, std::size_t begin,
                  std::size_t end) {
  auto ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  if (begin > 0 && ident(text[begin - 1])) return false;
  if (end < text.size() && ident(text[end])) return false;
  return true;
}

// Advances past balanced (), returning the index just after the close
// (or std::string::npos when unbalanced).
std::size_t skip_balanced(const std::string& text, std::size_t open,
                          char open_ch, char close_ch) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == open_ch) ++depth;
    if (text[i] == close_ch && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

int line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<int>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(pos),
                            '\n'));
}

// The project writes enum values as Enum::kName; a `case Foo::kBar:` label
// therefore marks a switch over a project enum, and such switches must
// enumerate every case (no `default:`) so -Wswitch reports new enumerators.
void scan_switches(const std::string& text, const std::string& path,
                   std::vector<Diagnostic>& out) {
  static const std::regex kEnumCase(
      R"(\bcase\s+([A-Za-z_][A-Za-z0-9_:]*)::k[A-Z]\w*\s*:)");
  std::size_t search = 0;
  while (true) {
    const std::size_t kw = text.find("switch", search);
    if (kw == std::string::npos) return;
    search = kw + 6;
    if (!word_bounded(text, kw, kw + 6)) continue;
    std::size_t i = kw + 6;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
    if (i >= text.size() || text[i] != '(') continue;
    const std::size_t after_cond = skip_balanced(text, i, '(', ')');
    if (after_cond == std::string::npos) return;
    i = after_cond;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
    if (i >= text.size() || text[i] != '{') continue;
    const std::size_t block_end = skip_balanced(text, i, '{', '}');
    if (block_end == std::string::npos) return;

    // Direct content of this switch: blank out nested switch blocks so
    // their cases and defaults attach to the inner scan, not this one.
    std::string body = text.substr(i + 1, block_end - i - 2);
    std::size_t nested = 0;
    while ((nested = body.find("switch", nested)) != std::string::npos) {
      if (!word_bounded(body, nested, nested + 6)) {
        nested += 6;
        continue;
      }
      std::size_t j = nested + 6;
      while (j < body.size() &&
             std::isspace(static_cast<unsigned char>(body[j])) != 0) {
        ++j;
      }
      if (j < body.size() && body[j] == '(') {
        const std::size_t nac = skip_balanced(body, j, '(', ')');
        if (nac != std::string::npos) {
          std::size_t b = nac;
          while (b < body.size() &&
                 std::isspace(static_cast<unsigned char>(body[b])) != 0) {
            ++b;
          }
          if (b < body.size() && body[b] == '{') {
            const std::size_t nbe = skip_balanced(body, b, '{', '}');
            if (nbe != std::string::npos) {
              for (std::size_t k = nested; k < nbe; ++k) {
                if (body[k] != '\n') body[k] = ' ';
              }
              nested = nbe;
              continue;
            }
          }
        }
      }
      nested += 6;
    }

    std::smatch m;
    if (!std::regex_search(body, m, kEnumCase)) continue;
    const std::string enum_name = m[1].str();

    // `default` followed by ':' (not `= default;`).
    std::size_t d = 0;
    while ((d = body.find("default", d)) != std::string::npos) {
      if (!word_bounded(body, d, d + 7)) {
        d += 7;
        continue;
      }
      std::size_t j = d + 7;
      while (j < body.size() &&
             std::isspace(static_cast<unsigned char>(body[j])) != 0) {
        ++j;
      }
      if (j < body.size() && body[j] == ':') {
        out.push_back(
            {path, line_of(text, i + 1 + d), "switch-default-on-enum",
             "switch over enum '" + enum_name +
                 "' has a 'default:' label; enumerate every case so "
                 "-Wswitch reports new enumerators"});
        break;
      }
      d += 7;
    }
  }
}

std::string path_under_ldlb(const std::string& rel_path) {
  static const std::string kPrefix = "src/ldlb/";
  if (rel_path.rfind(kPrefix, 0) == 0) return rel_path.substr(kPrefix.size());
  return rel_path;
}

}  // namespace

std::vector<Annotation> parse_annotations(const Stripped& stripped,
                                          const std::string& path,
                                          std::vector<Diagnostic>& out) {
  return srcmodel::parse_allow_annotations(stripped, path, "ldlb-lint",
                                           rule_names(), out);
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Rule& r : rules()) names.push_back(r.name);
    return names;
  }();
  return kNames;
}

std::vector<Diagnostic> lint_file(const std::string& rel_path,
                                  std::string_view content) {
  const Stripped stripped = strip_source(content);
  std::vector<Diagnostic> diagnostics;  // unsuppressible meta-diagnostics
  std::vector<Annotation> annotations =
      parse_annotations(stripped, rel_path, diagnostics);

  const std::string sub = path_under_ldlb(rel_path);
  std::vector<Diagnostic> candidates;

  // Pattern rules, line by line over the stripped text.
  std::istringstream lines(stripped.text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    for (const Rule& rule : rules()) {
      for (const Pattern& p : rule.patterns) {
        if (!pattern_in_scope(sub, p)) continue;
        for (std::sregex_iterator it(line.begin(), line.end(), p.re), end;
             it != end; ++it) {
          if (p.not_after_lt &&
              prev_nonspace(line, static_cast<std::size_t>(it->position())) ==
                  '<') {
            continue;
          }
          candidates.push_back({rel_path, line_no, rule.name,
                                rule.prefix + "'" + p.token + "'" +
                                    rule.suffix});
          break;  // one diagnostic per (line, pattern) is enough
        }
      }
    }
  }

  scan_switches(stripped.text, rel_path, candidates);

  // Apply suppressions, then report annotations that excuse nothing.
  for (const Diagnostic& c : candidates) {
    bool suppressed = false;
    for (Annotation& a : annotations) {
      if (a.target_line == c.line && a.rule == c.rule) {
        a.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) diagnostics.push_back(c);
  }
  for (const Annotation& a : annotations) {
    if (a.used) continue;
    diagnostics.push_back(
        {rel_path, a.line, "stale-suppression",
         a.target_line == 0
             ? "allow(" + a.rule + ") has no following code line to suppress"
             : "allow(" + a.rule + ") suppresses nothing on line " +
                   std::to_string(a.target_line) +
                   "; remove the stale annotation"});
  }

  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.line, a.rule, a.message) <
                     std::tie(b.line, b.rule, b.message);
            });
  return diagnostics;
}

std::vector<Diagnostic> lint_tree(const std::filesystem::path& root) {
  return lint_files(root, srcmodel::list_ldlb_sources(root));
}

std::vector<Diagnostic> lint_files(const std::filesystem::path& root,
                                   const std::vector<std::string>& rel_paths) {
  std::vector<Diagnostic> all;
  for (const std::string& rel : rel_paths) {
    const std::vector<Diagnostic> diags =
        lint_file(rel, srcmodel::read_file(root / rel));
    all.insert(all.end(), diags.begin(), diags.end());
  }
  return all;
}

}  // namespace ldlb::lint
