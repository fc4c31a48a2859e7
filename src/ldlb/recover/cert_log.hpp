// Append-only streaming certificate log ("LDCL"): the durable,
// tamper-evident on-disk form of a lower-bound certificate chain.
//
// The snapshot store (snapshot_store.hpp) rewrites the whole file on every
// checkpoint — O(chain) per level, O(chain) peak memory to read back. The
// certificates of the Δ=20 era are too big for that to stay free, and a
// certificate is inherently level-structured, so this store appends one
// *record* per certified level and never touches earlier bytes again:
//
//   ldlb-cert-log 1
//   delta <d>
//   algorithm <name>
//   record <index> <payload-lines> <payload-bytes> <self> <chain>
//   <payload: one certificate level in the certificate_io text format>
//   ...
//
// Every record is length-prefixed (line and byte counts) and carries two
// 128-bit FNV-1a checksums: `self` over its payload bytes, and `chain`
// linking it to its predecessor —
//
//   genesis  = fnv1a_128(the three header lines)
//   self_i   = fnv1a_128(payload_i)
//   chain_i  = fnv1a_128("<i> <self_i as hex>", chain_{i-1})   (chained)
//
// so a record cannot be duplicated, reordered, spliced in from another log
// or re-headered without breaking the chain, and a flipped header byte
// (even one that still parses, e.g. a delta digit) surfaces as a chain
// break at record 0. FNV-1a is tamper-*evidence*, not tamper-proofing —
// see util/checksum.hpp; resumed prefixes are additionally re-validated
// semantically by the engine.
//
// Durability: records are written with append_file_durable (append +
// fsync, util/atomic_file.hpp). A crash mid-append leaves a *torn tail*,
// never a damaged prefix. On open, damage lands in a typed taxonomy:
//
//   damage       evidence                                  policy
//   -----------  ----------------------------------------  --------------
//   kNone        every record verifies                     trust prefix
//   kTornTail    file ends mid-line or mid-record          truncate to the
//                                                          valid prefix,
//                                                          resume
//   kBitFlip     a complete record whose payload fails     reject, report
//                `self`, or a terminated-but-malformed     level index
//                record header mid-file
//   kChainBreak  record out of sequence, or `chain`        reject, report
//                disagrees with the running chain state    level index
//   kBadHeader   three complete header lines that do not   reject
//                parse
//   kBadRecord   checksum-valid payload the level parser   reject, report
//                rejects (written damaged, not flipped)    level index
//
// Readers are *streaming*: scan/load/validate hold O(one level) of payload
// (plus per-record geometry, 32 bytes a level) — never the whole chain —
// which is what lets a Δ=20 certificate be validated in a fraction of the
// resident footprint (examples/certificate_tool `verify --stream`).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ldlb/core/certificate.hpp"
#include "ldlb/recover/checkpoint.hpp"
#include "ldlb/util/checksum.hpp"

namespace ldlb {

/// The typed damage taxonomy of a certificate log (see header comment).
enum class LogDamage {
  kNone,        ///< intact (possibly empty or shorter than the full chain)
  kTornTail,    ///< incomplete tail — truncate to the valid prefix, resume
  kBitFlip,     ///< a complete record's content fails its self checksum
  kChainBreak,  ///< sequence or predecessor-chain checksum violation
  kBadHeader,   ///< complete-but-malformed file header
  kBadRecord,   ///< checksum-valid payload the level parser rejects
};

[[nodiscard]] const char* to_string(LogDamage damage);

/// What a scan of the log found: the longest verified prefix and, when the
/// taxonomy fired, which record and line are to blame.
struct CertLogReport {
  std::string path;
  bool file_found = false;
  LogDamage damage = LogDamage::kNone;
  int levels_intact = 0;   ///< records whose checksums and chain verify
  int defect_level = -1;   ///< record index of the first defect (-1: none)
  int defect_line = 0;     ///< 1-based line of the first defect (0: none)
  std::uint64_t valid_bytes = 0;  ///< byte length of the verified prefix
  std::string detail;      ///< human-readable defect description

  /// True when the log may serve as a resume source: intact, or damaged
  /// only at the tail (which checkpoint() truncates away). Mid-file damage
  /// (kBitFlip / kChainBreak / kBadRecord / kBadHeader) rejects the whole
  /// artefact instead — a log that fails tamper evidence is not repaired.
  [[nodiscard]] bool recoverable() const {
    return damage == LogDamage::kNone || damage == LogDamage::kTornTail;
  }

  /// One-line human-readable summary.
  [[nodiscard]] std::string to_string() const;
};

namespace detail {

/// Per-record geometry the incremental checkpoint path keeps in memory so
/// it can extend the file without re-reading it: where each verified
/// record ends and the chain state after it. 32 bytes a level — the
/// streaming readers stay O(one level) of *payload*.
struct CertLogRecordGeom {
  std::uint64_t end = 0;  ///< byte offset one past the record
  Checksum128 chain;      ///< running chain state after the record
};

/// Everything CertificateLog::checkpoint needs about the on-disk file.
struct CertLogGeometry {
  bool file_found = false;
  LogDamage damage = LogDamage::kNone;
  int delta = 0;
  std::string algorithm_name;
  std::uint64_t header_end = 0;  ///< bytes of the verified header
  Checksum128 genesis;           ///< chain state after the header
  std::vector<CertLogRecordGeom> records;
};

}  // namespace detail

/// Geometry of one verified record, as the streaming readers see it.
struct CertLogRecordInfo {
  int index = 0;                   ///< record (= level) index
  int payload_lines = 0;           ///< lines in the payload
  std::uint64_t payload_bytes = 0; ///< bytes in the payload
  std::uint64_t offset = 0;        ///< byte offset of the record header line
  Checksum128 self;                ///< fnv1a_128 of the payload
  Checksum128 chain;               ///< running chain state after this record
};

/// The append-only certificate log as a CheckpointStore: the durable home
/// of a resumable (or fleet) adversary run. checkpoint() appends only the
/// records the file is missing — O(one level) per certified level — after
/// truncating a torn tail or resetting an unrecoverable file.
class CertificateLog : public CheckpointStore {
 public:
  /// A log at `path`; the file need not exist yet.
  explicit CertificateLog(std::string path);

  [[nodiscard]] const std::string& path() const override { return path_; }
  [[nodiscard]] bool exists() const override;

  /// Classifies the log per the damage taxonomy, streaming — O(one level)
  /// of payload in memory. Throws only on environmental IO failure.
  [[nodiscard]] CertLogReport scan();

  /// Loads the verified prefix when the report is recoverable() — torn
  /// tails salvage their intact records — and an *empty* chain otherwise
  /// (mid-file damage rejects the artefact; the RecoveryReport carries the
  /// taxonomy verdict in drop_reason). Never throws on damage.
  [[nodiscard]] LowerBoundCertificate load(
      RecoveryReport* report = nullptr) override;

  /// Durably makes the log equal `chain` (see CheckpointStore for the
  /// prefix-stability contract): appends the missing records with
  /// append + fsync, truncating a torn tail or a rejected-on-revalidation
  /// suffix first, and falling back to a full atomic rewrite when the file
  /// is unrecoverable or names a different job.
  void checkpoint(const LowerBoundCertificate& chain) override;

  /// Deletes the log file if present.
  void remove() override;

  /// The exact byte content of a log holding `chain` (tests, conversion).
  [[nodiscard]] static std::string serialize(
      const LowerBoundCertificate& chain);

 private:
  /// Re-scans the file into geom_ unless it is already fresh.
  void refresh_geometry();

  std::string path_;
  bool geometry_fresh_ = false;
  detail::CertLogGeometry geom_;
};

/// Streaming per-record walk for tooling (`certificate_tool inspect`):
/// `on_record` fires once per verified record, in order. Returns the scan
/// report (damage classification included).
CertLogReport inspect_certificate_log(
    const std::string& path,
    const std::function<void(const CertLogRecordInfo&)>& on_record);

/// Outcome of a bounded-memory validation of a certificate log.
struct CertLogValidation {
  CertLogReport log;        ///< structural scan outcome
  int delta = 0;            ///< from the log header (0 when unsalvageable)
  std::string algorithm_name;  ///< from the log header
  int levels_checked = 0;
  int first_invalid_level = -1;  ///< -1 when every checked level validated
  bool chain_complete = false;   ///< levels 0..delta-2 all present

  /// True when the log is structurally intact, every level re-validated
  /// against the algorithm, and the chain is complete. Callers must also
  /// compare delta / algorithm_name against the job they expected.
  [[nodiscard]] bool ok() const {
    return log.damage == LogDamage::kNone && first_invalid_level < 0 &&
           chain_complete;
  }
};

/// Validates a certificate log level by level, holding O(one level) in
/// memory: each streamed record is re-validated against
/// `algorithm` with the independent certificate validator, exactly as the
/// fully-resident validate_certificate would. `on_level` (optional) fires
/// after each level's verdict. Throws only on environmental IO failure.
CertLogValidation validate_certificate_log(
    const std::string& path, EcAlgorithm& algorithm,
    bool check_loopiness = false,
    const std::function<void(const LevelValidation&)>& on_level = nullptr);

}  // namespace ldlb
