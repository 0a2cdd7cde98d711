//===- core/AnosySession.h - End-to-end ANOSY facade ------------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AnosySession: the role the paper's GHC plugin plays, as a library
/// facade. Creating a session from a parsed query Module performs, per
/// query, the four steps of §2.3:
///
///   I.   derive the refinement-type specification (IndSetSketch::spec),
///   II.  generate the sketch with typed holes,
///   III. fill the holes with SYNTH / ITERSYNTH,
///   IV.  machine-check the result with the refinement checker.
///
/// The session then owns a KnowledgeTracker preloaded with the verified
/// QueryInfos; `downgrade` is Fig. 2's bounded downgrade. Registration is
/// the one-time cost, downgrades are intersections — the Prob-comparison
/// economics of §6.1.
///
/// Failure domains (DESIGN.md §6): sessions optionally run under a
/// cumulative node budget (MaxSessionNodes) and a wall-clock deadline
/// (DeadlineMs). When a query's synthesis or verification exhausts its
/// resources the session *degrades* instead of failing, per query, along
/// the ladder retry → partial artifact → ⊥ fallback; every rung is sound
/// (a degraded query downgrades with maximally conservative posteriors).
/// Refuted obligations — actual counterexamples — remain hard errors at
/// every rung. The per-query outcome is recorded in degradation().
/// Queries and classifiers climb the same ladder (AnosySession.cpp); only
/// their passes and last rungs differ.
///
/// Registration is serial and deterministic: declarations build and
/// install in declaration order, and without a wall-clock deadline the
/// artifacts and solver node counts are identical run to run. With a
/// deadline, *which* rung a query lands on can depend on timing, but
/// never its soundness.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_CORE_ANOSYSESSION_H
#define ANOSY_CORE_ANOSYSESSION_H

#include "analysis/LeakageAnalyzer.h"
#include "core/Degradation.h"
#include "core/KnowledgeTracker.h"
#include "expr/Module.h"
#include "solver/Decide.h"
#include "synth/Synthesizer.h"
#include "verify/Certificate.h"

#include <map>
#include <memory>
#include <optional>
#include <string>

namespace anosy {

class ArtifactCache;

/// Per-query artifacts a session keeps for inspection.
template <AbstractDomain D> struct QueryArtifacts {
  IndSets<D> Ind;
  CertificateBundle Certificates;
  /// The completed sketch, rendered as source (what the plugin would
  /// splice into the program).
  std::string SynthesizedSource;
  SynthStats Stats;
  /// Synthesis passes consumed (retries + degraded pass).
  unsigned Attempts = 1;
  /// Set when this query's artifacts are degraded (DESIGN.md §6).
  std::optional<QueryDegradation> Degradation;
  /// Served from the cross-process cache (DESIGN.md §12): no synthesis
  /// ran and Stats.SolverNodes is zero for this query.
  bool FromCache = false;
  /// The cache was probed and had no usable exact entry.
  bool CacheMissed = false;
  /// BnB was seeded from a cached parent posterior (miss path).
  bool CacheSeeded = false;
  /// Solver nodes spent re-verifying a cache hit. Detached from the
  /// session budget and kept out of Stats.SolverNodes so warm sessions
  /// report zero *synthesis* nodes while the verify cost stays visible.
  uint64_t CacheVerifyNodes = 0;
};

/// Session options.
struct SessionOptions {
  /// Powerset size k for ITERSYNTH (ignored by the interval domain).
  unsigned PowersetSize = 3;
  SynthOptions Synth;
  /// Run the refinement checker on every synthesized artifact. Disable
  /// only for timing experiments that measure synthesis alone.
  bool Verify = true;
  /// Knowledge-representation cap (see KnowledgeTracker).
  size_t MaxKnowledgeBoxes = 256;
  /// Session-wide cumulative solver-node cap across every query,
  /// classifier, attempt, and verification pass. 0 = unlimited.
  uint64_t MaxSessionNodes = 0;
  /// Session-wide wall-clock deadline in milliseconds, armed when
  /// creation starts. 0 = none. Every solver charge reads the clock
  /// while it is armed, so a run stops at the first node past it.
  uint64_t DeadlineMs = 0;
  /// Retry-then-degrade policy (see RetryPolicy).
  RetryPolicy Retry;
  /// Static admission analysis (DESIGN.md §7): run the leakage analyzer
  /// over the module before synthesis. Queries whose posterior
  /// over-approximations already violate a minimum-size policy are
  /// rejected statically — ⊥ artifacts, a StaticallyRejected degradation
  /// record, and zero solver nodes — and constant-answer queries skip
  /// synthesis with exact (⊤, ⊥)-shaped artifacts. Off by default so
  /// existing sessions are byte-identical; the admission decisions only
  /// apply for policies that publish a MinSize threshold.
  bool StaticAdmission = false;
  /// Cross-process artifact cache (DESIGN.md §12); borrowed, may be
  /// shared by many sessions, threads, and processes over one directory.
  /// When set, registration probes the cache by canonical query identity
  /// before synthesizing: a hit is re-verified (when Verify) against a
  /// detached budget and installed with zero synthesis cost; a refuted or
  /// undecided hit is treated as a poisoned miss and resynthesized. On a
  /// miss whose family has a cached parent posterior, BnB is seeded from
  /// the parent's certain regions (SynthOptions region-seed contract).
  /// Fully verified artifacts are published back after synthesis. Null
  /// disables caching entirely (the default; sessions behave exactly as
  /// before).
  ArtifactCache *Cache = nullptr;
};

template <AbstractDomain D> class AnosySession {
public:
  /// Synthesizes and verifies ind. sets for every query in \p M, then
  /// builds the knowledge tracker. Fails with the first offending
  /// declaration's error if any step rejects. Budget/deadline exhaustion
  /// degrades per query instead of failing — inspect degradation()
  /// afterwards.
  static Result<AnosySession> create(Module M, KnowledgePolicy<D> Policy,
                                     SessionOptions Options = {});

  /// Builds a session from a previously exported knowledge base instead
  /// of synthesizing from scratch. Intact records are re-verified (when
  /// Options.Verify) and registered without synthesis; records whose
  /// checksums or artifacts are corrupt — and intact records that fail
  /// re-verification — are resynthesized per query through the normal
  /// ladder; records too damaged to recover even the query body are
  /// dropped and reported. Fails only when the file is unusable as a
  /// whole (bad header or schema) or a resynthesis hits a hard error.
  static Result<AnosySession>
  createFromKnowledgeBase(const std::string &Text, KnowledgePolicy<D> Policy,
                          SessionOptions Options = {});

  /// Fig. 2 bounded downgrade on a raw secret value.
  Result<bool> downgrade(const Point &Secret, const std::string &QueryName) {
    return Tracker->downgrade(Secret, QueryName);
  }

  /// Bounded downgrade of a multi-output classifier (§5.1 extension).
  Result<int64_t> downgradeClassifier(const Point &Secret,
                                      const std::string &Name) {
    return Tracker->downgradeClassifier(Secret, Name);
  }

  const Module &module() const { return M; }
  KnowledgeTracker<D> &tracker() { return *Tracker; }
  const KnowledgeTracker<D> &tracker() const { return *Tracker; }

  /// Artifacts for a registered query; nullptr when unknown.
  const QueryArtifacts<D> *artifacts(const std::string &Name) const {
    auto It = Artifacts.find(Name);
    return It == Artifacts.end() ? nullptr : &It->second;
  }

  /// What degraded during creation, per query (empty = nothing did).
  const DegradationReport &degradation() const { return Report; }

  /// The static leakage analysis of the module, populated when
  /// StaticAdmission is enabled (empty otherwise).
  const ModuleAnalysis &analysis() const { return Analysis; }

  /// Cumulative creation cost (nodes, seconds, attempts).
  const SessionStats &stats() const { return Stats; }

  /// The session-wide budget, when one is armed (nullptr otherwise).
  const SolverBudget *sessionBudget() const { return SessionBudget.get(); }

  /// Renders the session's query artifacts as a v2 (checksummed)
  /// knowledge base, in declaration order.
  std::string exportKnowledgeBase() const;

private:
  AnosySession(Module M, KnowledgePolicy<D> Policy, SessionOptions Options);

  /// Step IV, adding the solver nodes it spends to \p NodesOut.
  /// \p Chained checks against the session budget/deadline (normal path);
  /// detached checks get a fresh budget — used to certify *degraded*
  /// artifacts, whose verification must not be starved by the
  /// already-spent session budget (cost stays bounded by \p MaxNodes).
  /// \p MaxNodes is the *attempt's* budget, so retries grow verification
  /// headroom in lockstep with synthesis.
  CertificateBundle verifyArtifact(const ExprRef &Body, const IndSets<D> &Ind,
                                   uint64_t MaxNodes, bool Chained,
                                   uint64_t &NodesOut) const;

  /// Steps I–IV for one query with the full degradation ladder. No
  /// session mutation; installQuery applies the result.
  Result<QueryArtifacts<D>> buildQueryArtifacts(const QueryDef &Q) const;

  /// Renders, installs and accounts built artifacts, in declaration order.
  void installQuery(const QueryDef &Q, QueryArtifacts<D> Art);

  /// Builds, installs and accounts one classifier. A strict pass
  /// enumerates the outputs, synthesizes each output's under set and
  /// verifies each against "body == output". There is no partial rung:
  /// the fallback is an *empty* feasible-output list, and the tracker
  /// refuses to downgrade a degraded classifier (conservative rejection),
  /// because a partial output list could misattribute a secret's
  /// posterior.
  std::optional<Error> registerClassifier(const ClassifierDef &C);

  Module M;
  SessionOptions Options;
  ModuleAnalysis Analysis;
  std::unique_ptr<SolverBudget> SessionBudget;
  std::unique_ptr<KnowledgeTracker<D>> Tracker;
  std::map<std::string, QueryArtifacts<D>> Artifacts;
  DegradationReport Report;
  SessionStats Stats;
};

// Compiled once, in AnosySession.cpp, for the two shipped domains.
extern template class AnosySession<Box>;
extern template class AnosySession<PowerBox>;

} // namespace anosy

#endif // ANOSY_CORE_ANOSYSESSION_H
