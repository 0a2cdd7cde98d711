//===- core/ArtifactIO.h - Persisting synthesized knowledge -----*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of synthesized knowledge bases. In the paper the GHC
/// plugin splices synthesized ind. sets into the compiled module, so the
/// one-time synthesis cost (§6.1) is paid at build time and never again.
/// This module gives the library the same deployment story: a session's
/// verified artifacts are exported to a text knowledge base, shipped with
/// the application, and loaded into a KnowledgeTracker at startup —
/// skipping synthesis entirely (loaders may re-verify: artifacts carry
/// everything the refinement checker needs).
///
/// The format is line-oriented and reuses the query DSL for schemas and
/// query bodies, so exported files are human-auditable:
///
/// \code
///   anosy-knowledge-base v1 domain powerset
///   secret UserLoc { x: int[0, 400], y: int[0, 400] }
///   query nearby200 = (abs(x - 200) + abs(y - 200)) <= 100
///   true include [142, 258] [158, 242] ; [182, 218] [118, 157]
///   true exclude
///   false include [251, 400] [0, 150]
///   false exclude
///   end
/// \endcode
///
/// Version 2 adds crash-safety (DESIGN.md §6): every record carries a
/// `record-checksum fnv1a64:<hex>` line covering its raw bytes, and the
/// file ends with a `trailer fnv1a64:<hex>` line covering everything
/// before it. Only v2 is written; v1 files still load. There is one
/// reader: recoverKnowledgeBase *salvages*, sorting records into intact /
/// damaged (query body readable, artifacts not — resynthesize) / lost,
/// and parseKnowledgeBase is a salvage read that accepts only a file with
/// nothing to salvage. Files are written atomically (temp + fsync +
/// rename), so an interrupted export leaves the previous file readable.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_CORE_ARTIFACTIO_H
#define ANOSY_CORE_ARTIFACTIO_H

#include "core/QueryInfo.h"
#include "expr/Module.h"
#include "support/Result.h"

#include <optional>
#include <string>
#include <vector>

namespace anosy {

/// A deserialized knowledge base: the schema and the registered queries.
template <AbstractDomain D> struct KnowledgeBase {
  Schema S;
  std::vector<QueryInfo<D>> Queries;
};

/// Renders \p Infos (all over schema \p S) to the v2 format: per-record
/// checksums plus a whole-file trailer. Pair with
/// writeKnowledgeBaseFileAtomic for crash-safe deployment.
template <AbstractDomain D>
std::string serializeKnowledgeBaseV2(const Schema &S,
                                     const std::vector<QueryInfo<D>> &Infos);

/// Parses a knowledge base (v1 or v2) strictly: a recoverKnowledgeBase
/// read that must find every record intact, no stray line and, for v2, a
/// valid trailer. Rejects malformed input, checksum mismatches, domain
/// mismatches (interval file loaded as powerset or vice versa), query
/// bodies outside the fragment, and boxes of the wrong arity, naming the
/// first defect. Never trusts its input: hostile bytes yield an Error,
/// not UB.
template <AbstractDomain D>
Result<KnowledgeBase<D>> parseKnowledgeBase(const std::string &Text);

/// Salvage outcome of a (possibly corrupt) knowledge base.
template <AbstractDomain D> struct RecoveredKnowledgeBase {
  Schema S;
  /// Records that parsed and passed every integrity check.
  std::vector<QueryInfo<D>> Intact;
  /// Records whose query body is readable but whose artifacts are not
  /// trustworthy (checksum mismatch, malformed boxes): resynthesize.
  std::vector<QueryDef> Damaged;
  /// Records too damaged to recover even the query; best-effort names.
  std::vector<std::string> Lost;
  /// Non-empty lines outside every record (the v2 trailer aside): nothing
  /// to salvage, but a strict read rejects them.
  size_t Stray = 0;
  int Version = 1;
  /// v2 only: the file trailer was present and matched. A false value
  /// with all records intact means the file was truncated after the last
  /// complete record.
  bool TrailerValid = true;
  /// The first damaged, lost or stray line in file order, else the
  /// trailer defect; unset when a strict read would accept the file.
  std::optional<Error> FirstDefect;
};

/// Best-effort recovery: fails only when the header or schema is
/// unreadable (nothing can be salvaged without them); everything else is
/// classified per record. AnosySession::createFromKnowledgeBase is the
/// intended caller.
template <AbstractDomain D>
Result<RecoveredKnowledgeBase<D>> recoverKnowledgeBase(const std::string &Text);

/// Reads a knowledge-base file into memory. Fault-injection site KbRead:
/// an injected fault deterministically flips one bit of the returned
/// bytes (simulating media corruption; the checksums downstream catch it).
Result<std::string> readKnowledgeBaseFile(const std::string &Path);

/// Atomically replaces \p Path with \p Text: write to a temp file in the
/// same directory, fsync, rename over the destination, then fsync the
/// parent directory so the rename itself is durable (without that last
/// step a crash shortly after a successful return can lose the new
/// directory entry and silently resurface the previous file). A crash (or
/// an injected KbWrite fault, which truncates the temp file and skips the
/// rename) leaves any previous file untouched and readable. A
/// directory-fsync failure (or an injected KbDirFsync fault) returns an
/// Error *after* the rename: the destination already holds the complete
/// new content — never torn — so callers retry the whole write
/// idempotently. \p TmpSuffix names the temp file (Path + TmpSuffix);
/// concurrent writers of the same path must pass process-unique suffixes
/// (the artifact cache does) or the temp file itself can tear.
Result<void> writeKnowledgeBaseFileAtomic(const std::string &Path,
                                          const std::string &Text,
                                          const std::string &TmpSuffix = ".tmp");

} // namespace anosy

#endif // ANOSY_CORE_ARTIFACTIO_H
