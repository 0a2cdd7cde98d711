//===- core/Degradation.h - Graceful-degradation reporting ------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The failure-domain vocabulary of DESIGN.md §6. When a session runs
/// under a node budget or wall-clock deadline, synthesis or verification
/// can run out of resources. Instead of failing session creation, the
/// session degrades per query along a fixed ladder:
///
///   retry (grown budget)  →  keep partial artifact  →  ⊥ fallback
///
/// Every rung is *sound*: a partial ITERSYNTH result is the k' < k boxes
/// already proved all-valid, and ⊥ is the vacuous under-approximation —
/// downgrades against it answer with maximally conservative posteriors
/// (or reject outright, for classifiers). What was degraded, why, and how
/// far down the ladder it fell is recorded here, per query, so callers
/// can resynthesize offline or alert.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_CORE_DEGRADATION_H
#define ANOSY_CORE_DEGRADATION_H


#include <cstdint>
#include <string>
#include <vector>

namespace anosy {

/// Why a query's artifacts were degraded.
enum class DegradationReason {
  /// Synthesis ran out of its node budget or deadline.
  SynthesisExhausted,
  /// Verification could not reach a verdict within budget (the artifact
  /// is *undecided*, never refuted — refutations stay hard errors).
  VerificationUndecided,
  /// The knowledge-base record for this query failed its checksum or
  /// could not be parsed; the artifact was resynthesized or dropped.
  KnowledgeBaseCorrupt,
  /// A loaded artifact failed re-verification against its query.
  LoadedArtifactInvalid,
  /// The static leakage analyzer proved every secret's answer would
  /// violate the session policy (both posterior over-approximations at or
  /// below the minimum size), so the query was rejected before synthesis
  /// — zero solver nodes spent (DESIGN.md §7).
  StaticallyRejected,
};

const char *degradationReasonName(DegradationReason R);

/// Machine-readable reason code attached to every ⊥/degraded answer, so
/// callers (CLI JSON, the anosyd daemon) can distinguish *why* they got a
/// conservative response without parsing prose. The codes are a stable
/// wire vocabulary: `deadline` and `budget` split the two halves of
/// SynthesisExhausted (the old enum conflated them), and `shed` is minted
/// by the service queue — it never appears on a session's own records.
enum class ReasonCode {
  None,               ///< not degraded: a full verified artifact
  Deadline,           ///< wall-clock deadline expired
  Budget,             ///< node budget exhausted before the deadline
  Shed,               ///< load-shed by a bounded service queue
  StaticallyRejected, ///< anosy-lint admission rejected before synthesis
  Undecided,          ///< verification undecided within budget
  KbCorrupt,          ///< knowledge-base record failed integrity checks
  ArtifactInvalid,    ///< loaded artifact failed re-verification
};

/// Stable kebab-case code ("deadline", "budget", "shed", ...).
const char *reasonCodeName(ReasonCode C);

/// One query's degradation record.
struct QueryDegradation {
  std::string Query;
  DegradationReason Reason;
  /// Synthesis attempts consumed (1 = no retry).
  unsigned Attempts = 1;
  /// true: the artifact fell all the way to ⊥ (vacuous certificates);
  /// false: a partial but machine-checked artifact was kept.
  bool FellBack = false;
  std::string Detail;
  /// Set when the session budget's wall-clock deadline — not the node
  /// cap — stopped this query. Splits SynthesisExhausted into the
  /// `deadline` vs `budget` reason codes.
  bool DeadlineExpired = false;

  /// The machine-readable code for this record.
  ReasonCode code() const;

  std::string str() const;
};

/// Everything that degraded during one session creation. Empty means the
/// session is exactly what a budget-free run would have produced.
struct DegradationReport {
  std::vector<QueryDegradation> Queries;

  bool degraded() const { return !Queries.empty(); }
  const QueryDegradation *find(const std::string &Name) const;
  std::string str() const;
};

/// Retry before degrading: each attempt multiplies the per-call solver
/// budget by 4. Attempts stop early once the session-wide budget or
/// deadline is spent (retrying against a dead session budget cannot
/// succeed).
struct RetryPolicy {
  /// Total synthesis attempts per query (1 = no retry).
  unsigned MaxAttempts = 1;
};

/// Cumulative cost of one session creation, across every query,
/// classifier, attempt, and verification pass.
struct SessionStats {
  uint64_t SolverNodes = 0;
  double SynthSeconds = 0;
  /// Synthesis attempts across all queries (>= number of queries).
  unsigned Attempts = 0;
  unsigned DegradedQueries = 0;
  /// Cross-process cache traffic (DESIGN.md §12). A cache-hit query runs
  /// zero synthesis — SolverNodes stays untouched; the (detached-budget)
  /// re-verify cost of hits is tracked honestly in CacheVerifyNodes.
  unsigned CacheHits = 0;
  unsigned CacheMisses = 0;
  /// Misses whose BnB was seeded from a cached parent posterior.
  unsigned CacheSeededQueries = 0;
  uint64_t CacheVerifyNodes = 0;
};

/// The SessionStats → MetricsRegistry bridge (DESIGN.md §8): publishes the
/// cumulative creation cost as anosy_session_* gauges. A no-op while the
/// obs runtime switch is off, so sessions stay observability-free by
/// default.
void publishSessionStats(const SessionStats &Stats);

} // namespace anosy

#endif // ANOSY_CORE_DEGRADATION_H
