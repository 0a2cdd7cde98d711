//===- gen/Oracle.h - Exhaustive ground-truth oracle ------------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md §9).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The corpus harness's ground truth. Scenario modules are small by
/// construction (ScenarioOptions::MaxDomainSize), so every claim the
/// system makes about them can be checked by brute force
/// (baselines/Exhaustive.h):
///
///  * computeGroundTruth — the exact True/False model counts per query,
///    over the full prior.
///  * scoreLint — anosy-lint verdicts against that ground truth. Static
///    rejection and constant-answer detection are *sound* (over-approx
///    sizes bound exact sizes), so both precisions must be 1.0 —
///    anything less is a bug the scorecard surfaces; recalls measure the
///    interval refiner's completeness and merely trend.
///  * replayWithOracle — replays a GeneratedTrace through a real
///    AnosySession<Box>, shadowing it with exact per-secret knowledge
///    (filtered point sets). Every admitted answer must equal the
///    concrete evaluation; by the soundness theorem (approx posterior ⊆
///    exact posterior + monotone policy), both exact posteriors must
///    pass the policy whenever the monitor admits; the tracked Box must
///    stay a subset of the exact knowledge; refusals must be
///    PolicyViolation (and never happen for boolean queries under the
///    permissive policy); and the exported knowledge base must round-trip
///    into a session that replays the boolean steps identically.
///
/// Conservative refusal is NOT a mismatch: the monitor checks the policy
/// on under-approximated posteriors, so it may refuse a downgrade the
/// exact posteriors would allow. The oracle checks one-sided soundness,
/// exactly what §3 proves.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_GEN_ORACLE_H
#define ANOSY_GEN_ORACLE_H

#include "core/AnosySession.h"
#include "gen/TraceGen.h"

#include <cstdint>
#include <string>
#include <vector>

namespace anosy {

/// Exact model counts for one query over the full prior.
struct QueryTruth {
  std::string Name;
  int64_t TrueCount = 0;
  int64_t FalseCount = 0;

  bool constantAnswer() const { return TrueCount == 0 || FalseCount == 0; }
  /// Would a `size > K` policy refuse this query for every secret?
  /// (Fig. 2 checks both posteriors, so one small branch suffices.)
  bool refusalForced(int64_t K) const {
    return K >= 0 && (TrueCount <= K || FalseCount <= K);
  }
};

/// Exact per-query counts for a whole module (boolean queries only;
/// classifiers are checked per-trace by replayWithOracle).
struct GroundTruth {
  int64_t DomainSize = 0;
  std::vector<QueryTruth> Queries;

  const QueryTruth *find(const std::string &Name) const;
};

/// Brute-force ground truth for \p M. The schema's totalSize must fit
/// int64 and be at most \p Limit (scenario modules guarantee this).
GroundTruth computeGroundTruth(const Module &M, int64_t Limit = 20'000'000);

/// anosy-lint scored against exhaustive ground truth, mirroring the
/// analyzer's verdict priority (ConstantAnswer before PolicyUnsatisfiable):
///  * Const* score SkipSynthesis claims against exact constant queries.
///  * Reject* score RejectStatically claims against refusalForced(K).
///    A lint-constant query that is also forced is NOT a reject-FN (lint
///    did flag it, under the higher-priority verdict).
/// Both FP counts must be 0 (static claims are sound); recalls trend.
struct LintScore {
  unsigned ConstTP = 0, ConstFP = 0, ConstFN = 0;
  unsigned RejectTP = 0, RejectFP = 0, RejectFN = 0;
  unsigned QueriesScored = 0;

  static double precision(unsigned TP, unsigned FP) {
    return TP + FP == 0 ? 1.0 : static_cast<double>(TP) / (TP + FP);
  }
  static double recall(unsigned TP, unsigned FN) {
    return TP + FN == 0 ? 1.0 : static_cast<double>(TP) / (TP + FN);
  }
  double constPrecision() const { return precision(ConstTP, ConstFP); }
  double constRecall() const { return recall(ConstTP, ConstFN); }
  double rejectPrecision() const { return precision(RejectTP, RejectFP); }
  double rejectRecall() const { return recall(RejectTP, RejectFN); }
  bool sound() const { return ConstFP == 0 && RejectFP == 0; }

  /// Merges another module's counts into this scorecard.
  void merge(const LintScore &O);
};

/// Scores analyzeModule's verdicts for \p M under threshold \p MinSize
/// against \p GT (must be \p M's ground truth). Precision must be 1.0.
LintScore scoreLint(const Module &M, int64_t MinSize, const GroundTruth &GT);

/// The KnowledgePolicy a TracePolicy denotes, for the Box domain.
KnowledgePolicy<Box> tracePolicyFor(const TracePolicy &P);

/// The exact `size > K` threshold of a TracePolicy; -1 for permissive
/// (never refuses). Matches the policy's published MinSize.
int64_t tracePolicyThreshold(const TracePolicy &P);

/// One trace step's observable outcome (for cross-replay comparison).
struct StepOutcome {
  unsigned Index = 0;
  /// True for boolean-query steps — the subset the KB round-trip replay
  /// compares (exported knowledge bases carry queries only).
  bool IsQuery = false;
  bool Admitted = false;
  int64_t Value = 0;             ///< Answer (bool as 0/1), when admitted.
  ErrorCode Code = ErrorCode::Other; ///< Refusal code, when not.
};

struct ReplayStats {
  unsigned Steps = 0;
  unsigned Admitted = 0;
  unsigned Refused = 0;
  unsigned UnknownName = 0;
};

/// The verdict of one oracle-shadowed replay.
struct ReplayResult {
  ReplayStats Stats;
  std::vector<StepOutcome> Outcomes;
  /// Human-readable oracle violations; empty = fully consistent.
  std::vector<std::string> Mismatches;

  bool ok() const { return Mismatches.empty(); }
};

/// Replays \p T through an AnosySession<Box> over \p M under the trace's
/// policy, cross-checking every step against exhaustive ground truth as
/// described in the file comment. \p CheckKbRoundTrip additionally
/// exports the final knowledge base, reloads it, and requires the boolean
/// steps to replay identically.
ReplayResult replayWithOracle(const Module &M, const GeneratedTrace &T,
                              const SessionOptions &Options = {},
                              bool CheckKbRoundTrip = true);

} // namespace anosy

#endif // ANOSY_GEN_ORACLE_H
