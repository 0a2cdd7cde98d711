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
/// Queries and classifiers climb the same ladder (runLadder, in
/// AnosySession.cpp); only their passes and last rungs differ.
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
#include "cache/ArtifactCache.h"
#include "core/ArtifactIO.h"
#include "core/Degradation.h"
#include "core/KnowledgeTracker.h"
#include "expr/Module.h"
#include "obs/Instrument.h"
#include "support/Stats.h"
#include "synth/Sketch.h"
#include "verify/RefinementChecker.h"

#include <functional>
#include <map>
#include <memory>
#include <optional>

namespace anosy {

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
  /// creation starts. 0 = none. Checked inside the solver's budget
  /// charge at coarse granularity (SolverBudget::DeadlineCheckNodes).
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
  /// External budget chained *above* the session budget (borrowed, never
  /// owned; may outlive nothing — the caller keeps it alive for the whole
  /// creation). The anosyd watchdog points this at a per-request abort
  /// handle so a wedged registration can be expired from outside
  /// (SolverBudget::expireNow); expiry only forces the degradation
  /// ladder, never an unsound answer. Setting it arms a session budget
  /// even when MaxSessionNodes and DeadlineMs are 0.
  SolverBudget *WatchdogBudget = nullptr;
};

// The domain-independent half of registration (AnosySession.cpp).

/// The per-call node budget for strict attempt \p Attempt (0-based):
/// \p Base grown ×4 per retry, saturating at UINT64_MAX.
uint64_t attemptBudget(uint64_t Base, unsigned Attempt);

/// The session-wide budget every per-call budget chains to; null when
/// \p O asks for no node cap, deadline or watchdog, so capless sessions
/// skip the parent check in charge().
std::unique_ptr<SolverBudget> makeSessionBudget(const SessionOptions &O);

/// The certificates of the ⊥ fallback: both ind. sets are empty, so the
/// Fig. 4 under obligations hold vacuously — no solver involved, and
/// re-checkable offline by anyone who distrusts the label.
CertificateBundle bottomFallbackBundle();

/// The certificates of a statically-decided constant answer: the
/// analyzer proved one branch empty over the prior, so the exact ind.
/// sets are (⊤, ⊥) or (⊥, ⊤). The non-trivial obligation rests on the
/// interval refiner's soundness (DESIGN.md §7), not a solver run.
CertificateBundle constantAnswerBundle(bool Value);

/// Meets cache-derived region seeds into \p SOpt, intersecting any seed
/// the caller already set. Both are sound branch over-approximations, so
/// their intersection is too (and tighter than either).
void applyCacheSeeds(const CacheSeeds &Seeds, SynthOptions &SOpt);

/// What one pass of the ladder (synthesize, then verify) reported. No
/// error means verified. BudgetExhausted degrades, with Undecided set
/// when verification, not synthesis, ran out; any other error is hard.
struct PassOutcome {
  std::optional<Error> Err;
  bool Undecided = false;
};

/// What runLadder decided: the passes it ran, and the degradation record
/// when no strict pass verified.
struct LadderOutcome {
  unsigned Passes = 0;
  std::optional<QueryDegradation> Degradation;
};

/// The retry → partial → ⊥ ladder for one query or classifier \p Name.
/// Runs \p Strict at attemptBudget(O.Synth.MaxSolverNodes, i) for up to
/// O.Retry.MaxAttempts attempts, stopping early once \p SessionBudget is
/// spent (a retry against it cannot succeed). If none verified,
/// \p Partial (when set) runs once more at the last attempt's budget;
/// the caller falls back to ⊥ when there is no partial rung or it kept
/// nothing. A hard error from a strict pass, or a refutation on the
/// partial rung, ends the ladder.
Result<LadderOutcome>
runLadder(const std::string &Name, const SessionOptions &O,
          const SolverBudget *SessionBudget,
          const std::function<PassOutcome(uint64_t)> &Strict,
          const std::function<PassOutcome(uint64_t)> &Partial);

/// Adds one registered query or classifier's cost, attempts and
/// degradation record to the session's bookkeeping.
void accountRegistration(SessionStats &Stats, DegradationReport &Report,
                         const SynthStats &Cost, unsigned Attempts,
                         const std::optional<QueryDegradation> &Degradation);

template <AbstractDomain D> class AnosySession {
public:
  /// Synthesizes and verifies ind. sets for every query in \p M, then
  /// builds the knowledge tracker. Fails with the first offending
  /// declaration's error if any step rejects. Budget/deadline exhaustion
  /// degrades per query instead of failing — inspect degradation()
  /// afterwards.
  static Result<AnosySession> create(Module M, KnowledgePolicy<D> Policy,
                                     SessionOptions Options = {}) {
    ANOSY_OBS_SPAN(Span, "anosy.session.create");
    AnosySession Session(std::move(M), std::move(Policy), Options);
    const std::vector<QueryDef> &Queries = Session.M.queries();
    const std::vector<ClassifierDef> &Classifiers = Session.M.classifiers();
    ANOSY_OBS_SPAN_ARG(Span, "queries", Queries.size());
    ANOSY_OBS_SPAN_ARG(Span, "classifiers", Classifiers.size());

    for (const QueryDef &Q : Queries) {
      auto Art = Session.buildQueryArtifacts(Q);
      if (!Art)
        return Art.error();
      Session.installQuery(Q, Art.takeValue());
    }
    for (const ClassifierDef &C : Classifiers)
      if (auto E = Session.registerClassifier(C))
        return *E;
    publishSessionStats(Session.Stats);
    return Session;
  }

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
                          SessionOptions Options = {}) {
    ANOSY_OBS_SPAN(Span, "anosy.session.load_kb");
    auto Rec = recoverKnowledgeBase<D>(Text);
    if (!Rec)
      return Rec.error();
    ANOSY_OBS_SPAN_ARG(Span, "intact", Rec->Intact.size());
    ANOSY_OBS_SPAN_ARG(Span, "damaged", Rec->Damaged.size());
    ANOSY_OBS_SPAN_ARG(Span, "lost", Rec->Lost.size());

    std::vector<QueryDef> Defs;
    for (const QueryInfo<D> &Info : Rec->Intact)
      Defs.push_back({Info.Name, Info.QueryExpr});
    for (const QueryDef &Q : Rec->Damaged)
      Defs.push_back(Q);
    AnosySession Session(Module(Rec->S, std::move(Defs)), std::move(Policy),
                         Options);

    // A record that cannot be installed as loaded goes through the
    // normal ladder, and Cause starts its degradation detail.
    auto Resynthesize = [&](const QueryDef &Q, DegradationReason Reason,
                            const std::string &Cause) -> std::optional<Error> {
      auto Art = Session.buildQueryArtifacts(Q);
      if (!Art)
        return Art.error();
      if (!Art->Degradation)
        Art->Degradation = QueryDegradation{Q.Name, Reason, Art->Attempts,
                                            false, Cause + "; resynthesized"};
      else
        Art->Degradation->Detail = Cause + "; " + Art->Degradation->Detail;
      Art->Degradation->Reason = Reason;
      Session.installQuery(Q, Art.takeValue());
      return std::nullopt;
    };

    for (QueryInfo<D> &Info : Rec->Intact) {
      QueryDef Def{Info.Name, Info.QueryExpr};
      QueryArtifacts<D> Art;
      if (Session.Options.Verify) {
        Art.Certificates = Session.verifyArtifact(
            Def.Body, Info.Ind, Session.Options.Synth.MaxSolverNodes, true,
            Session.Stats.SolverNodes);
        if (!Art.Certificates.valid()) {
          const Certificate *Refuted = Art.Certificates.firstRefuted();
          if (auto E = Resynthesize(
                  Def, DegradationReason::LoadedArtifactInvalid,
                  Refuted ? "re-verification refuted: " + Refuted->Obligation
                          : "re-verification undecided"))
            return *E;
          continue;
        }
      }
      Art.Ind = std::move(Info.Ind);
      Session.installQuery(Def, std::move(Art));
    }
    for (const QueryDef &Q : Rec->Damaged)
      if (auto E = Resynthesize(Q, DegradationReason::KnowledgeBaseCorrupt,
                                "record failed integrity check"))
        return *E;

    for (const std::string &Name : Rec->Lost)
      Session.Report.Queries.push_back(
          {Name, DegradationReason::KnowledgeBaseCorrupt, 0, true,
           "record unrecoverable; query dropped"});
    publishSessionStats(Session.Stats);
    return Session;
  }

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
  std::string exportKnowledgeBase() const {
    std::vector<QueryInfo<D>> Infos;
    for (const QueryDef &Q : M.queries())
      if (const QueryInfo<D> *Info = Tracker->queryInfo(Q.Name))
        Infos.push_back(*Info);
    return serializeKnowledgeBaseV2(M.schema(), Infos);
  }

private:
  AnosySession(Module M, KnowledgePolicy<D> Policy, SessionOptions InOptions)
      : M(std::move(M)), Options(InOptions),
        SessionBudget(makeSessionBudget(Options)),
        Tracker(std::make_unique<KnowledgeTracker<D>>(
            this->M.schema(), std::move(Policy), Options.MaxKnowledgeBoxes)) {
    if (SessionBudget != nullptr)
      Options.Synth.SessionBudget = SessionBudget.get();
    // Static pre-synthesis analysis (DESIGN.md §7): pure interval
    // arithmetic over the prior — no solver, so it neither consumes nor
    // needs the session budget. The policy's published threshold (when
    // any) drives the admission verdicts.
    if (Options.StaticAdmission) {
      LintOptions LOpt;
      LOpt.MinSize = Tracker->policy().MinSize.value_or(-1);
      Analysis = analyzeModule(this->M, LOpt);
    }
  }

  /// Steps II+III once with \p Sy, a query or classifier synthesizer.
  template <typename SynthesizerT>
  auto synthesize(const SynthesizerT &Sy, SynthStats &Pass) const {
    if constexpr (std::is_same_v<D, Box>)
      return Sy.synthesizeInterval(ApproxKind::Under, &Pass);
    else
      return Sy.synthesizePowerset(ApproxKind::Under, Options.PowersetSize,
                                   &Pass);
  }

  /// Step IV, adding the solver nodes it spends to \p NodesOut.
  /// \p Chained checks against the session budget/deadline (normal path);
  /// detached checks get a fresh budget — used to certify *degraded*
  /// artifacts, whose verification must not be starved by the
  /// already-spent session budget (cost stays bounded by \p MaxNodes).
  /// \p MaxNodes is the *attempt's* budget, so retries grow verification
  /// headroom in lockstep with synthesis.
  CertificateBundle verifyArtifact(const ExprRef &Body, const IndSets<D> &Ind,
                                   uint64_t MaxNodes, bool Chained,
                                   uint64_t &NodesOut) const {
    RefinementChecker Checker(M.schema(), Body, MaxNodes,
                              Chained ? Options.Synth.SessionBudget : nullptr,
                              Chained ? Options.Synth.DeadlineMs : 0);
    CertificateBundle B = Checker.checkIndSets(Ind, ApproxKind::Under);
    NodesOut += Checker.solverNodesUsed();
    return B;
  }

  /// Steps I–IV for one query with the full degradation ladder. No
  /// session mutation; installQuery applies the result.
  Result<QueryArtifacts<D>> buildQueryArtifacts(const QueryDef &Q) const {
    const Schema &S = M.schema();
    const IndSets<D> Bottom{DomainTraits<D>::bottom(S),
                            DomainTraits<D>::bottom(S)};
    Stopwatch BuildTimer;
    ANOSY_OBS_SPAN(Span, "anosy.query.build");
    ANOSY_OBS_SPAN_ARG(Span, "query", Q.Name);

    // Static admission (DESIGN.md §7): a PolicyUnsatisfiable verdict
    // means *both* responses' exact posteriors sit at or below the
    // policy minimum — the monitor would refuse every downgrade of this
    // query no matter the secret — so reject it before spending a single
    // solver node. A ConstantAnswer verdict pins the exact ind. sets
    // without synthesis.
    const QueryAnalysis *QA = Analysis.find(Q.Name);
    if (QA != nullptr && Options.StaticAdmission) {
      if (QA->RejectStatically) {
        QueryArtifacts<D> Art;
        Art.Ind = Bottom;
        Art.Certificates = bottomFallbackBundle();
        Art.Attempts = 0;
        Art.Degradation = QueryDegradation{
            Q.Name, DegradationReason::StaticallyRejected, 0, true,
            "posterior over-approximations |T| <= " +
                QA->TruePosterior.volume().str() + ", |F| <= " +
                QA->FalsePosterior.volume().str() +
                " cannot satisfy the policy; rejected before synthesis"};
        ANOSY_OBS_SPAN_ARG(Span, "outcome", "statically-rejected");
        ANOSY_OBS_COUNT("anosy_queries_statically_rejected_total",
                        "Queries rejected by static admission", 1);
        return Art;
      }
      if (QA->SkipSynthesis && QA->ConstantValue) {
        const bool Value = *QA->ConstantValue;
        QueryArtifacts<D> Art;
        Art.Ind =
            Value ? IndSets<D>{DomainTraits<D>::top(S),
                               DomainTraits<D>::bottom(S)}
                  : IndSets<D>{DomainTraits<D>::bottom(S),
                               DomainTraits<D>::top(S)};
        Art.Certificates = constantAnswerBundle(Value);
        Art.Attempts = 0;
        ANOSY_OBS_SPAN_ARG(Span, "outcome", "constant-answer");
        ANOSY_OBS_COUNT("anosy_queries_constant_answer_total",
                        "Queries decided statically as constant-answer", 1);
        return Art;
      }
    }

    // Cross-process cache (DESIGN.md §12): probe by canonical identity
    // before spending any solver node. The cache is never an authority —
    // a hit is re-verified below (detached budget, so a warm registration
    // consumes no session budget); a refuted or undecided hit is a
    // poisoned miss and falls through to normal synthesis.
    std::optional<CanonicalQuery> CacheKey;
    std::optional<CacheSeeds> Seeds;
    if (Options.Cache != nullptr) {
      CacheKey = canonicalizeQuery(
          S, Q.Body, DomainTraits<D>::Name,
          std::is_same_v<D, PowerBox> ? Options.PowersetSize : 0u);
      if (auto Cached = Options.Cache->template lookup<D>(*CacheKey)) {
        QueryArtifacts<D> Hit;
        if (Options.Verify)
          Hit.Certificates =
              verifyArtifact(Q.Body, *Cached, Options.Synth.MaxSolverNodes,
                             /*Chained=*/false, Hit.CacheVerifyNodes);
        if (!Options.Verify || Hit.Certificates.valid()) {
          Hit.Ind = std::move(*Cached);
          Hit.Attempts = 0;
          Hit.FromCache = true;
          ANOSY_OBS_SPAN_ARG(Span, "outcome", "cache-hit");
          ANOSY_OBS_OBSERVE_SECONDS(
              "anosy_query_build_seconds",
              "Wall time to build one query's artifacts",
              BuildTimer.seconds());
          return Hit;
        }
        Options.Cache->notePoisoned();
      }
      // Miss: a cached *parent* posterior of the same family can still
      // seed BnB with sound branch over-approximations.
      Seeds = Options.Cache->template lookupSeeds<D>(*CacheKey);
    }

    QueryArtifacts<D> Art;
    Art.CacheMissed = CacheKey.has_value();
    Art.CacheSeeded = Seeds.has_value();
    SynthStats &Acc = Art.Stats;
    // One pass. The partial rung keeps whatever sound partial artifact the
    // budget allows (k' < k boxes, or ⊥); its synthesis stays chained to
    // the session budget — a spent session degrades to ⊥ immediately —
    // while its verification is detached, so the partial artifact is
    // certified even though the session budget is spent.
    auto Pass = [&](uint64_t MaxNodes, bool Partial) -> PassOutcome {
      SynthOptions SOpt = Options.Synth;
      SOpt.MaxSolverNodes = MaxNodes;
      SOpt.KeepPartialOnExhaustion |= Partial;
      if (Seeds)
        applyCacheSeeds(*Seeds, SOpt);
      auto Sy = Synthesizer::create(S, Q.Body, SOpt);
      if (!Sy)
        return {Sy.error()};
      SynthStats One;
      auto Ind = synthesize(*Sy, One);
      Acc.SolverNodes += One.SolverNodes;
      Acc.Seconds += One.Seconds;
      if (!Ind)
        return {Ind.error()};
      CertificateBundle B;
      if (Options.Verify) {
        B = verifyArtifact(Q.Body, *Ind, MaxNodes, !Partial, Acc.SolverNodes);
        if (const Certificate *Refuted = B.firstRefuted())
          return {Error(ErrorCode::VerificationFailure,
                        std::string(Partial ? "degraded" : "synthesized") +
                            " ind. sets for '" + Q.Name +
                            "' failed verification:\n" + Refuted->str())};
        // Undecided — no counterexample, just not enough budget for a
        // verdict. Degradable, never conflated with refutation.
        if (!B.valid())
          return {Error(ErrorCode::BudgetExhausted,
                        "verification undecided for '" + Q.Name + "':\n" +
                            B.firstFailure()->str()),
                  true};
      }
      Art.Ind = Ind.takeValue();
      Art.Certificates = std::move(B);
      Acc.BoxesSynthesized = One.BoxesSynthesized;
      return {};
    };
    auto Ladder = runLadder(
        Q.Name, Options, SessionBudget.get(),
        [&](uint64_t MaxNodes) { return Pass(MaxNodes, false); },
        [&](uint64_t MaxNodes) { return Pass(MaxNodes, true); });
    if (!Ladder)
      return Ladder.error();
    Art.Attempts = Ladder->Passes;
    Art.Degradation = std::move(Ladder->Degradation);
    if (Art.Degradation && Art.Degradation->FellBack) {
      // Last rung: ⊥ for both responses. Sound by construction; the
      // tracker's policy check rejects downgrades against it.
      Art.Ind = Bottom;
      Art.Certificates = bottomFallbackBundle();
      Acc.BoxesSynthesized = 0;
    }

    // Publish only fully synthesized, (when enabled) fully verified
    // artifacts; degraded rungs are session-local compromises, not
    // reusable truths. Store failures are non-fatal: the cache is an
    // accelerator, losing a write only costs a future hit.
    if (CacheKey && !Art.Degradation)
      (void)Options.Cache->template store<D>(*CacheKey, Art.Ind);

    ANOSY_OBS_SPAN_ARG(Span, "outcome",
                       Art.Degradation ? "degraded" : "verified");
    ANOSY_OBS_SPAN_ARG(Span, "attempts", Art.Attempts);
    ANOSY_OBS_SPAN_ARG(Span, "solver_nodes", Acc.SolverNodes);
    if (SessionBudget != nullptr)
      ANOSY_OBS_SPAN_ARG(Span, "budget_remaining",
                         SessionBudget->MaxNodes -
                             std::min(SessionBudget->used(),
                                      SessionBudget->MaxNodes));
    ANOSY_OBS_OBSERVE_SECONDS("anosy_query_build_seconds",
                              "Wall time to build one query's artifacts",
                              BuildTimer.seconds());
    return Art;
  }

  /// Renders, installs and accounts built artifacts, in declaration order.
  void installQuery(const QueryDef &Q, QueryArtifacts<D> Art) {
    IndSetSketch Sketch(Q.Name, M.schema(), ApproxKind::Under);
    Art.SynthesizedSource =
        Sketch.renderFilled(Art.Ind.TrueSet, Art.Ind.FalseSet);
    Tracker->registerQuery(
        QueryInfo<D>{Q.Name, Q.Body, Art.Ind, ApproxKind::Under});
    accountRegistration(Stats, Report, Art.Stats, Art.Attempts,
                        Art.Degradation);
    if (Art.FromCache) {
      ++Stats.CacheHits;
      Stats.CacheVerifyNodes += Art.CacheVerifyNodes;
    } else if (Art.CacheMissed) {
      ++Stats.CacheMisses;
    }
    if (Art.CacheSeeded)
      ++Stats.CacheSeededQueries;
    Artifacts.emplace(Q.Name, std::move(Art));
  }

  /// Builds, installs and accounts one classifier. A strict pass
  /// enumerates the outputs, synthesizes each output's under set and
  /// verifies each against "body == output". There is no partial rung:
  /// the fallback is an *empty* feasible-output list, and the tracker
  /// refuses to downgrade a degraded classifier (conservative rejection),
  /// because a partial output list could misattribute a secret's
  /// posterior.
  std::optional<Error> registerClassifier(const ClassifierDef &C) {
    const Schema &S = M.schema();
    ClassifierInfo<D> Info{C.Name, C.Body, {}, ApproxKind::Under};
    SynthStats Cost;
    auto Strict = [&](uint64_t MaxNodes) -> PassOutcome {
      SynthOptions SOpt = Options.Synth;
      SOpt.MaxSolverNodes = MaxNodes;
      auto Sy = ClassifierSynthesizer::create(S, C.Body, SOpt);
      if (!Sy)
        return {Sy.error()};
      SynthStats One;
      auto Sets = synthesize(*Sy, One);
      if (!Sets)
        return {Sets.error()};
      Cost.SolverNodes += One.SolverNodes;
      Cost.Seconds += One.Seconds;
      // Per-output obligation: every member of the set maps to O.Value.
      if (Options.Verify)
        for (const OutputIndSet<D> &O : *Sets) {
          std::string Output =
              "classifier '" + C.Name + "' output " + std::to_string(O.Value);
          CertificateBundle B = verifyArtifact(
              Sy->outputQuery(O.Value), {O.Set, DomainTraits<D>::bottom(S)},
              MaxNodes, true, Cost.SolverNodes);
          if (const Certificate *Refuted = B.firstRefuted())
            return {Error(ErrorCode::VerificationFailure,
                          Output + " failed verification:\n" + Refuted->str())};
          if (!B.valid())
            return {Error(ErrorCode::BudgetExhausted,
                          "verification undecided for " + Output),
                    true};
        }
      Info.Ind = Sets.takeValue();
      return {};
    };
    auto Ladder =
        runLadder(C.Name, Options, SessionBudget.get(), Strict, nullptr);
    if (!Ladder)
      return Ladder.error();
    accountRegistration(Stats, Report, Cost, Ladder->Passes,
                        Ladder->Degradation);
    Tracker->registerClassifier(std::move(Info));
    return std::nullopt;
  }

  Module M;
  SessionOptions Options;
  ModuleAnalysis Analysis;
  std::unique_ptr<SolverBudget> SessionBudget;
  std::unique_ptr<KnowledgeTracker<D>> Tracker;
  std::map<std::string, QueryArtifacts<D>> Artifacts;
  DegradationReport Report;
  SessionStats Stats;
};

} // namespace anosy

#endif // ANOSY_CORE_ANOSYSESSION_H
