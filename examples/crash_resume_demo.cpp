// Crash-safe checkpoint/resume, end to end.
//
//   $ ./crash_resume_demo [delta] [crash_level]
//
// 1. Runs the Section-4 adversary uninterrupted as the reference.
// 2. Runs it resumably with an injected crash-stop right after level
//    `crash_level` is checkpointed; the process "dies" with the
//    certificate log holding levels 0..crash_level.
// 3. Tears the log's tail on purpose and shows the load salvaging the
//    intact records before the torn one, with a RecoveryReport.
// 4. Resumes: the torn tail is truncated away, the loaded prefix is
//    re-validated against the algorithm, construction continues, and the
//    final certificate — and the repaired log — are byte-identical to the
//    uninterrupted reference.
//
// Exits non-zero if any of that fails, so CI can smoke-run it.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "ldlb/core/certificate_io.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/recover/resumable_adversary.hpp"
#include "ldlb/util/atomic_file.hpp"

int main(int argc, char** argv) {
  using namespace ldlb;
  const int delta = argc > 1 ? std::atoi(argv[1]) : 5;
  const int crash_level = argc > 2 ? std::atoi(argv[2]) : delta / 2;
  if (delta < 3 || crash_level < 0 || crash_level > delta - 2) {
    std::cerr << "usage: crash_resume_demo [delta>=3] [0<=crash_level<=delta-2]\n";
    return 2;
  }

  const std::string path =
      (std::filesystem::temp_directory_path() / "ldlb_crash_resume_demo.ldcl")
          .string();
  CertificateLog log{path};
  log.remove();

  try {
    std::cout << "== reference: uninterrupted run (delta " << delta << ") ==\n";
    SeqColorPacking reference_alg{delta};
    LowerBoundCertificate reference = run_adversary(reference_alg, delta);
    const std::string reference_text = certificate_to_string(reference);
    std::cout << "  certified levels 0.." << reference.certified_radius()
              << " (" << reference_text.size() << " bytes)\n";

    std::cout << "\n== run with injected crash after level " << crash_level
              << " ==\n";
    {
      SeqColorPacking alg{delta};
      ResumeOptions options;
      options.on_checkpoint = crash_at_level(crash_level);
      try {
        run_adversary_resumable(alg, delta, log, options);
        std::cerr << "  BUG: the injected crash never fired\n";
        return 1;
      } catch (const FaultInjected& e) {
        std::cout << "  process died: " << e.what() << "\n";
      }
    }
    {
      RecoveryReport report;
      (void)log.load(&report);
      std::cout << "  " << report.to_string() << "\n";
    }

    std::cout << "\n== tearing the log tail ==\n";
    {
      std::string bytes = read_file(path);
      // Chop into the last record's payload: strictly worse than the crash.
      write_file_atomic(path, bytes.substr(0, bytes.size() * 3 / 4));
      RecoveryReport report;
      (void)log.load(&report);
      std::cout << "  " << report.to_string() << "\n";
    }

    std::cout << "\n== resume ==\n";
    SeqColorPacking alg{delta};
    ResumeInfo info;
    LowerBoundCertificate resumed =
        run_adversary_resumable(alg, delta, log, {}, &info);
    std::cout << "  salvaged " << info.loaded_levels << " level(s), trusted "
              << info.trusted_levels << " after re-validation, recomputed "
              << info.computed_levels << "\n";

    const bool identical = certificate_to_string(resumed) == reference_text;
    std::cout << "  final certificate byte-identical to reference: "
              << (identical ? "yes" : "NO") << "\n";
    const bool repaired =
        read_file(path) == CertificateLog::serialize(reference);
    std::cout << "  repaired log byte-identical to a never-torn one: "
              << (repaired ? "yes" : "NO") << "\n";
    log.remove();
    return identical && repaired ? 0 : 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
