// Certificate tool: generate, validate, convert, inspect, and render
// lower-bound certificates from the command line.
//
//   $ ./certificate_tool generate <delta> <seq|two|po> <out-file>
//   $ ./certificate_tool generate --log <delta> <seq|two|po> <out-log>
//   $ ./certificate_tool validate <delta> <seq|two|po> <in-file>
//   $ ./certificate_tool verify --stream <delta> <seq|two|po> <in-log>
//   $ ./certificate_tool convert <in> <out>      (format auto-detected)
//   $ ./certificate_tool inspect <in-log>        (checksum-chain dump)
//   $ ./certificate_tool dot <in-file> <level>   (DOT to stdout)
//
// `generate` runs the Section-4 adversary against the chosen algorithm and
// writes either the classic one-shot certificate text or (--log) the
// append-only streaming certificate log (recover/cert_log). `validate`
// reloads a classic certificate fully resident and re-verifies every level,
// (P2) loopiness included at every Δ; `verify --stream` does the same
// against a certificate log while holding O(one level) in memory — both
// report peak_rss_kb so the CI stage can pin the streaming validator's
// footprint below the resident one. `convert`
// translates between the two formats by sniffing the input's magic line;
// `inspect` dumps the log's per-record geometry and checksum chain and
// classifies any damage; `dot` renders one level's pair (G_i, H_i) as
// Graphviz source with the witness nodes highlighted.
//
// --inject <op>:<mode>:<nth> arms a one-shot environment fault (fail the
// nth write/fsync/rename/dir-fsync/truncate/read as eio/enospc/short-write)
// before the verb runs; an injected IoError exits 5 so CI can tell an
// injected fault from a real failure.
#include <sys/resource.h>

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/core/sim_ec_po.hpp"
#include "ldlb/fault/env_fault.hpp"
#include "ldlb/graph/dot_export.hpp"
#include "ldlb/matching/proposal_packing.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/util/checksum.hpp"

namespace {

using namespace ldlb;

struct Subject {
  std::unique_ptr<EcAlgorithm> alg;
  std::unique_ptr<PoAlgorithm> inner;
};

Subject make_subject(const std::string& kind, int delta) {
  Subject s;
  if (kind == "seq") {
    s.alg = std::make_unique<SeqColorPacking>(delta);
  } else if (kind == "two") {
    s.alg = std::make_unique<TwoPhasePacking>(delta);
  } else if (kind == "po") {
    auto po = std::make_unique<ProposalPacking>();
    s.alg = std::make_unique<EcFromPo>(*po);
    s.inner = std::move(po);
  }
  return s;
}

int usage() {
  std::cerr << "usage:\n"
               "  certificate_tool generate [--log] <delta> <seq|two|po> "
               "<out>\n"
               "  certificate_tool validate <delta> <seq|two|po> <in>\n"
               "  certificate_tool verify --stream <delta> <seq|two|po> "
               "<in-log>\n"
               "  certificate_tool convert <in> <out>\n"
               "  certificate_tool inspect <in-log>\n"
               "  certificate_tool dot <in> <level>\n"
               "options:\n"
               "  --inject <op>:<mode>:<nth>  arm a one-shot filesystem "
               "fault\n"
               "      op: write|fsync|rename|dir-fsync|truncate|read\n"
               "      mode: eio|enospc|short-write   (exit 5 when it "
               "fires)\n";
  return 2;
}

// ru_maxrss: peak resident set of this process, in KiB on Linux.
long peak_rss_kb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// First line of `path` ("" when unreadable) — enough to tell the two
// formats apart by their magic.
std::string sniff_first_line(const std::string& path) {
  std::ifstream in{path};
  std::string line;
  std::getline(in, line);
  return line;
}

// "<op>:<mode>:<nth>" -> armed plan; false on malformed spec.
bool arm_injection(EnvFaultPlan& plan, const std::string& spec) {
  const std::size_t c1 = spec.find(':');
  const std::size_t c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
  if (c2 == std::string::npos) return false;
  FsOp op{};
  EnvFaultMode mode{};
  if (!fs_op_from_string(spec.substr(0, c1), op)) return false;
  if (!env_fault_mode_from_string(spec.substr(c1 + 1, c2 - c1 - 1), mode)) {
    return false;
  }
  const int nth = std::atoi(spec.c_str() + c2 + 1);
  if (nth < 1) return false;
  plan.arm(op, mode, nth);
  return true;
}

int run_generate(int delta, const std::string& kind, const std::string& out,
                 bool as_log) {
  Subject s = make_subject(kind, delta);
  if (!s.alg || delta < 2 || delta > 24) return usage();
  AdversaryOptions opts;
  opts.max_rounds = 40000;
  LowerBoundCertificate cert = run_adversary(*s.alg, delta, opts);
  if (as_log) {
    // The log is built the way a resumable run would build it: record by
    // record through the audited append path.
    CertificateLog log{out};
    log.remove();
    log.checkpoint(cert);
    std::cout << "wrote certificate log: delta=" << delta << ", levels 0.."
              << cert.certified_radius() << ", algorithm '"
              << cert.algorithm_name << "'\n";
  } else {
    // Atomic replace: a crash (or full disk) mid-write cannot leave a
    // torn certificate behind.
    write_certificate_file(out, cert);
    std::cout << "wrote certificate: delta=" << delta << ", levels 0.."
              << cert.certified_radius() << ", algorithm '"
              << cert.algorithm_name << "'\n";
  }
  return 0;
}

int run_validate(int delta, const std::string& kind, const std::string& in) {
  Subject s = make_subject(kind, delta);
  if (!s.alg) return usage();
  LowerBoundCertificate cert = read_certificate_file(in);
  if (cert.delta != delta) {
    std::cerr << "certificate is for delta=" << cert.delta << "\n";
    return 1;
  }
  auto validations = validate_certificate(cert, *s.alg);
  bool all_ok = true;
  for (const auto& v : validations) {
    std::cout << "level " << v.level << ": " << (v.ok() ? "OK" : "INVALID")
              << "\n";
    all_ok = all_ok && v.ok();
  }
  std::cout << (all_ok ? "certificate VALID" : "certificate INVALID");
  if (all_ok) {
    std::cout << " — algorithm needs more than " << cert.certified_radius()
              << " rounds";
  }
  std::cout << "\n";
  std::cout << "peak_rss_kb=" << peak_rss_kb() << "\n";
  return all_ok ? 0 : 1;
}

int run_verify_stream(int delta, const std::string& kind,
                      const std::string& in) {
  Subject s = make_subject(kind, delta);
  if (!s.alg) return usage();
  const CertLogValidation v = validate_certificate_log(
      in, *s.alg, /*check_loopiness=*/true,
      [](const LevelValidation& lv) {
        std::cout << "level " << lv.level << ": "
                  << (lv.ok() ? "OK" : "INVALID") << "\n";
      });
  if (v.log.damage != LogDamage::kNone) {
    std::cerr << v.log.to_string() << "\n";
  }
  if (v.delta != 0 && v.delta != delta) {
    std::cerr << "certificate log is for delta=" << v.delta << "\n";
    return 1;
  }
  std::cout << (v.ok() ? "certificate VALID" : "certificate INVALID");
  if (v.ok()) {
    std::cout << " — algorithm needs more than " << v.levels_checked - 1
              << " rounds";
  }
  std::cout << "\n"
            << "levels_checked=" << v.levels_checked
            << " chain_complete=" << (v.chain_complete ? 1 : 0) << "\n";
  std::cout << "peak_rss_kb=" << peak_rss_kb() << "\n";
  return v.ok() ? 0 : 1;
}

int run_convert(const std::string& in, const std::string& out) {
  const std::string magic = sniff_first_line(in);
  if (magic == "ldlb-cert-log 1") {
    // log -> classic one-shot certificate.
    CertificateLog log{in};
    RecoveryReport report;
    LowerBoundCertificate cert = log.load(&report);
    if (!report.complete || cert.levels.empty()) {
      std::cerr << "cannot convert: " << report.to_string() << "\n";
      return 1;
    }
    write_certificate_file(out, cert);
    std::cout << "converted log -> certificate: delta=" << cert.delta
              << ", levels 0.." << cert.certified_radius() << "\n";
    return 0;
  }
  if (magic == "ldlb-certificate 1") {
    // classic -> append-only log, record by record.
    LowerBoundCertificate cert = read_certificate_file(in);
    CertificateLog log{out};
    log.remove();
    log.checkpoint(cert);
    std::cout << "converted certificate -> log: delta=" << cert.delta
              << ", levels 0.." << cert.certified_radius() << "\n";
    return 0;
  }
  std::cerr << "unrecognised input format (magic line '" << magic << "')\n";
  return 1;
}

int run_inspect(const std::string& in) {
  std::cout << "record  lines  bytes  offset  self  chain\n";
  const CertLogReport report = inspect_certificate_log(
      in, [](const CertLogRecordInfo& rec) {
        std::cout << rec.index << "  " << rec.payload_lines << "  "
                  << rec.payload_bytes << "  " << rec.offset << "  "
                  << checksum_to_hex(rec.self) << "  "
                  << checksum_to_hex(rec.chain) << "\n";
      });
  std::cout << report.to_string() << "\n";
  return report.damage == LogDamage::kNone ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Split flags from positionals so `--inject` works with every verb.
  std::vector<std::string> args;
  std::string inject_spec;
  bool as_log = false;
  bool stream = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--inject") {
      if (i + 1 >= argc) return usage();
      inject_spec = argv[++i];
    } else if (arg == "--log") {
      as_log = true;
    } else if (arg == "--stream") {
      stream = true;
    } else {
      args.push_back(arg);
    }
  }
  if (args.size() < 2) return usage();
  const std::string mode = args[0];

  EnvFaultPlan plan;
  if (!inject_spec.empty() && !arm_injection(plan, inject_spec)) {
    std::cerr << "malformed --inject '" << inject_spec << "'\n";
    return usage();
  }
  ScopedFsFaultInjection injection{inject_spec.empty() ? nullptr : &plan};

  try {
    if (mode == "generate" && args.size() == 4) {
      return run_generate(std::atoi(args[1].c_str()), args[2], args[3],
                          as_log);
    }
    if (mode == "validate" && args.size() == 4 && !stream) {
      return run_validate(std::atoi(args[1].c_str()), args[2], args[3]);
    }
    if (mode == "verify" && args.size() == 4 && stream) {
      return run_verify_stream(std::atoi(args[1].c_str()), args[2], args[3]);
    }
    if (mode == "convert" && args.size() == 3) {
      return run_convert(args[1], args[2]);
    }
    if (mode == "inspect" && args.size() == 2) {
      return run_inspect(args[1]);
    }
    if (mode == "dot" && args.size() == 3) {
      std::ifstream in{args[1]};
      LowerBoundCertificate cert = read_certificate(in);
      const int level = std::atoi(args[2].c_str());
      if (level < 0 || level >= static_cast<int>(cert.levels.size())) {
        std::cerr << "level out of range (0.." << cert.levels.size() - 1
                  << ")\n";
        return 1;
      }
      const auto& lv = cert.levels[static_cast<std::size_t>(level)];
      DotOptions g_opts;
      g_opts.name = "G" + std::to_string(level);
      g_opts.highlight = lv.g_node;
      DotOptions h_opts;
      h_opts.name = "H" + std::to_string(level);
      h_opts.highlight = lv.h_node;
      std::cout << to_dot(lv.g, g_opts) << "\n" << to_dot(lv.h, h_opts);
      return 0;
    }
  } catch (const IoError& e) {
    // Exit 5 distinguishes an (injected or real) environment fault from a
    // semantic failure — scripts/ci.sh pins the injected paths on it.
    std::cerr << "io error: " << e.what() << "\n";
    return 5;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
