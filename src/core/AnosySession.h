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
#include "analysis/SolverSeeds.h"
#include "cache/ArtifactCache.h"
#include "compile/CompiledEval.h"
#include "core/ArtifactIO.h"
#include "core/Degradation.h"
#include "core/KnowledgeTracker.h"
#include "expr/Module.h"
#include "obs/Instrument.h"
#include "support/Stats.h"
#include "synth/Sketch.h"
#include "verify/RefinementChecker.h"

#include <cmath>
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
  /// Degrade instead of failing when budgets run out. Disabled, the
  /// session keeps the legacy strict contract: exhaustion (after
  /// retries) fails creation with BudgetExhausted.
  bool GracefulDegradation = true;
  /// Static admission analysis (DESIGN.md §7): run the leakage analyzer
  /// over the module before synthesis. Queries whose posterior
  /// over-approximations already violate a minimum-size policy are
  /// rejected statically — ⊥ artifacts, a StaticallyRejected degradation
  /// record, and zero solver nodes — and constant-answer queries skip
  /// synthesis with exact (⊤, ⊥)-shaped artifacts. Off by default so
  /// existing sessions are byte-identical; the admission decisions only
  /// apply for policies that publish a MinSize threshold.
  bool StaticAdmission = false;
  /// Seed each query's synthesis search with the analyzer's posterior
  /// over-approximations (SynthOptions::TrueRegionSeed/FalseRegionSeed).
  /// Sound — every valid artifact lies inside its branch's region — and
  /// typically shrinks the branch-and-bound trees (see
  /// bench/lint_admission). Off by default: unseeded runs stay
  /// bit-identical to previous releases.
  bool UseAnalysisSeeds = false;
  /// Escalation policy of the admission analyzer's relational (octagon)
  /// tier (LintOptions::Relational). Auto escalates only queries whose
  /// NNF couples ≥ 2 secret fields in one atom; Off reproduces the
  /// box-only admission exactly.
  RelationalTier LintRelational = RelationalTier::Auto;
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

template <AbstractDomain D> class AnosySession {
public:
  /// Synthesizes and verifies ind. sets for every query in \p M, then
  /// builds the knowledge tracker. Fails with the first offending
  /// declaration's error if any step rejects. Under
  /// GracefulDegradation, budget/deadline exhaustion degrades per query
  /// instead of failing — inspect degradation() afterwards.
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
    for (const ClassifierDef &C : Classifiers) {
      auto Info = Session.buildClassifierInfo(C);
      if (!Info)
        return Info.error();
      Session.installClassifier(Info.takeValue());
    }
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

    for (QueryInfo<D> &Info : Rec->Intact) {
      QueryDef Def{Info.Name, Info.QueryExpr};
      std::string Reverify;
      if (Session.Options.Verify) {
        uint64_t Nodes = 0;
        CertificateBundle B = Session.verifyArtifact(
            Info.QueryExpr, Info.Ind, Session.Options.Synth.MaxSolverNodes,
            true, Nodes);
        Session.Stats.SolverNodes += Nodes;
        if (const Certificate *Refuted = B.firstRefuted())
          Reverify = "re-verification refuted: " + Refuted->Obligation;
        else if (!B.valid())
          Reverify = "re-verification undecided";
        if (Reverify.empty()) {
          QueryArtifacts<D> Art;
          Art.Ind = std::move(Info.Ind);
          Art.Certificates = std::move(B);
          IndSetSketch Sketch(Def.Name, Session.M.schema(),
                              ApproxKind::Under);
          Art.SynthesizedSource =
              Sketch.renderFilled(Art.Ind.TrueSet, Art.Ind.FalseSet);
          Session.installQuery(Def, std::move(Art));
          continue;
        }
      } else {
        QueryArtifacts<D> Art;
        Art.Ind = std::move(Info.Ind);
        Session.installQuery(Def, std::move(Art));
        continue;
      }
      // Loaded artifact did not check out: resynthesize this query.
      auto Art = Session.buildQueryArtifacts(Def);
      if (!Art)
        return Art.error();
      if (!Art->Degradation) {
        Art->Degradation = QueryDegradation{
            Def.Name, DegradationReason::LoadedArtifactInvalid,
            Art->Attempts, false, Reverify + "; resynthesized"};
      } else {
        Art->Degradation->Reason = DegradationReason::LoadedArtifactInvalid;
        Art->Degradation->Detail = Reverify + "; " + Art->Degradation->Detail;
      }
      Session.installQuery(Def, Art.takeValue());
    }

    for (const QueryDef &Q : Rec->Damaged) {
      auto Art = Session.buildQueryArtifacts(Q);
      if (!Art)
        return Art.error();
      if (!Art->Degradation) {
        Art->Degradation = QueryDegradation{
            Q.Name, DegradationReason::KnowledgeBaseCorrupt, Art->Attempts,
            false, "record failed integrity check; resynthesized"};
      } else {
        Art->Degradation->Reason = DegradationReason::KnowledgeBaseCorrupt;
      }
      Session.installQuery(Q, Art.takeValue());
    }

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
  /// StaticAdmission or UseAnalysisSeeds is enabled (empty otherwise).
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
  /// A classifier build plus its bookkeeping (mirrors QueryArtifacts).
  struct ClassifierBuild {
    ClassifierInfo<D> Info;
    SynthStats Stats;
    unsigned Attempts = 1;
    std::optional<QueryDegradation> Degradation;
  };

  AnosySession(Module M, KnowledgePolicy<D> Policy, SessionOptions InOptions)
      : M(std::move(M)), Options(InOptions),
        Tracker(std::make_unique<KnowledgeTracker<D>>(
            this->M.schema(), std::move(Policy), Options.MaxKnowledgeBoxes)) {
    // The session-wide budget every per-call budget chains to. Created
    // only when a cap is requested: the parent check in charge() is not
    // free, and capless sessions must behave exactly as before.
    if (Options.MaxSessionNodes != 0 || Options.DeadlineMs != 0 ||
        Options.WatchdogBudget != nullptr) {
      SessionBudget = std::make_unique<SolverBudget>(
          Options.MaxSessionNodes != 0 ? Options.MaxSessionNodes
                                       : UINT64_MAX);
      if (Options.DeadlineMs != 0)
        SessionBudget->setDeadlineAfterMs(Options.DeadlineMs);
      SessionBudget->Parent = Options.WatchdogBudget;
      Options.Synth.SessionBudget = SessionBudget.get();
    }
    // Static pre-synthesis analysis (DESIGN.md §7): pure interval
    // arithmetic over the prior — no solver, so it neither consumes nor
    // needs the session budget. The policy's published threshold (when
    // any) drives the admission verdicts.
    if (Options.StaticAdmission || Options.UseAnalysisSeeds) {
      LintOptions LOpt;
      LOpt.MinSize = Tracker->policy().MinSize.value_or(-1);
      LOpt.Relational = Options.LintRelational;
      Analysis = analyzeModule(this->M, LOpt);
    }
  }

  /// True once the session-wide cap or deadline is spent: further strict
  /// retries cannot succeed, only degrade.
  bool sessionSpent() const {
    return SessionBudget != nullptr && SessionBudget->exhausted();
  }

  /// The per-call node budget for strict attempt \p Attempt (0-based),
  /// grown by Retry.BudgetGrowth each time, saturating at UINT64_MAX.
  uint64_t attemptBudget(unsigned Attempt) const {
    double Grown = static_cast<double>(Options.Synth.MaxSolverNodes) *
                   std::pow(std::max(1.0, Options.Retry.BudgetGrowth),
                            static_cast<double>(Attempt));
    if (Grown >= 9.0e18)
      return UINT64_MAX;
    return static_cast<uint64_t>(Grown);
  }

  /// Steps II+III once, into \p Ind / \p Stats. No session mutation.
  std::optional<Error> synthPass(const ExprRef &Body,
                                 const SynthOptions &SOpt, IndSets<D> &Ind,
                                 SynthStats &Stats) const {
    auto Synth = Synthesizer::create(M.schema(), Body, SOpt);
    if (!Synth)
      return Synth.error();
    if constexpr (std::is_same_v<D, Box>) {
      auto Sets = Synth->synthesizeInterval(ApproxKind::Under, &Stats);
      if (!Sets)
        return Sets.error();
      Ind = Sets.takeValue();
    } else {
      auto Sets = Synth->synthesizePowerset(ApproxKind::Under,
                                            Options.PowersetSize, &Stats);
      if (!Sets)
        return Sets.error();
      Ind = Sets.takeValue();
    }
    return std::nullopt;
  }

  /// Step IV. \p Chained checks against the session budget/deadline
  /// (normal path); detached checks get a fresh budget — used to certify
  /// *degraded* artifacts, whose verification must not be starved by the
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

  /// Meets cache-derived region seeds into \p SOpt. Both the analyzer's
  /// and the cache's regions are sound branch over-approximations, so
  /// their intersection is too (and tighter than either).
  static void applyCacheSeeds(const CacheSeeds &Seeds, SynthOptions &SOpt) {
    SOpt.TrueRegionSeed = SOpt.TrueRegionSeed
                              ? SOpt.TrueRegionSeed->intersect(Seeds.TrueRegion)
                              : Seeds.TrueRegion;
    SOpt.FalseRegionSeed =
        SOpt.FalseRegionSeed
            ? SOpt.FalseRegionSeed->intersect(Seeds.FalseRegion)
            : Seeds.FalseRegion;
  }

  /// The certificates of the ⊥ fallback: both ind. sets are empty, so the
  /// Fig. 4 under obligations hold vacuously — no solver involved, and
  /// re-checkable offline by anyone who distrusts the label.
  static CertificateBundle bottomFallbackBundle() {
    CertificateBundle B;
    Certificate T;
    T.Obligation = "forall x. x in dT => query x   "
                   "(bottom fallback: dT = empty, vacuously valid)";
    T.Valid = true;
    Certificate F;
    F.Obligation = "forall x. x in dF => not (query x)   "
                   "(bottom fallback: dF = empty, vacuously valid)";
    F.Valid = true;
    B.Parts.push_back(std::move(T));
    B.Parts.push_back(std::move(F));
    return B;
  }

  /// The certificates of a statically-decided constant answer: the
  /// analyzer proved one branch empty over the prior, so the exact ind.
  /// sets are (⊤, ⊥) or (⊥, ⊤). The non-trivial obligation rests on the
  /// interval refiner's soundness (DESIGN.md §7), not a solver run.
  static CertificateBundle constantAnswerBundle(bool Value) {
    CertificateBundle B;
    Certificate T;
    T.Obligation =
        std::string("forall x. x in dT => query x   (static analysis: ") +
        (Value ? "every secret answers True over the prior)"
               : "dT = empty, vacuously valid)");
    T.Valid = true;
    Certificate F;
    F.Obligation =
        std::string("forall x. x in dF => not (query x)   (static analysis: ") +
        (Value ? "dF = empty, vacuously valid)"
               : "every secret answers False over the prior)");
    F.Valid = true;
    B.Parts.push_back(std::move(T));
    B.Parts.push_back(std::move(F));
    return B;
  }

  /// Steps I–IV for one query with the full degradation ladder. No
  /// session mutation; installQuery applies the result.
  Result<QueryArtifacts<D>> buildQueryArtifacts(const QueryDef &Q) const {
    const Schema &S = M.schema();
    const unsigned MaxAttempts = std::max(1u, Options.Retry.MaxAttempts);
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
        Art.Ind = IndSets<D>{DomainTraits<D>::bottom(S),
                             DomainTraits<D>::bottom(S)};
        Art.Certificates = bottomFallbackBundle();
        Art.Attempts = 0;
        Art.Degradation = QueryDegradation{
            Q.Name, DegradationReason::StaticallyRejected, 0, true,
            "posterior over-approximations |T| <= " +
                QA->TruePosterior.volume().str() + ", |F| <= " +
                QA->FalsePosterior.volume().str() +
                " cannot satisfy the policy; rejected before synthesis"};
        IndSetSketch Sketch(Q.Name, S, ApproxKind::Under);
        Art.SynthesizedSource =
            Sketch.renderFilled(Art.Ind.TrueSet, Art.Ind.FalseSet);
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
        IndSetSketch Sketch(Q.Name, S, ApproxKind::Under);
        Art.SynthesizedSource =
            Sketch.renderFilled(Art.Ind.TrueSet, Art.Ind.FalseSet);
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
        CertificateBundle B;
        uint64_t VerifyNodes = 0;
        bool Usable = true;
        if (Options.Verify) {
          B = verifyArtifact(Q.Body, *Cached, Options.Synth.MaxSolverNodes,
                             /*Chained=*/false, VerifyNodes);
          Usable = B.valid();
        }
        if (Usable) {
          QueryArtifacts<D> Hit;
          Hit.Ind = std::move(*Cached);
          if (Options.Verify)
            Hit.Certificates = std::move(B);
          Hit.Attempts = 0;
          Hit.FromCache = true;
          Hit.CacheVerifyNodes = VerifyNodes;
          IndSetSketch Sketch(Q.Name, S, ApproxKind::Under);
          Hit.SynthesizedSource =
              Sketch.renderFilled(Hit.Ind.TrueSet, Hit.Ind.FalseSet);
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
    SynthStats Acc;
    unsigned Passes = 0;
    std::optional<Error> LastErr;
    bool Undecided = false;
    bool Succeeded = false;

    for (unsigned Attempt = 0; Attempt != MaxAttempts; ++Attempt) {
      SynthOptions SOpt = Options.Synth;
      SOpt.MaxSolverNodes = attemptBudget(Attempt);
      if (QA != nullptr && Options.UseAnalysisSeeds)
        applyAnalysisSeeds(*QA, S, SOpt);
      if (Seeds)
        applyCacheSeeds(*Seeds, SOpt);
      IndSets<D> Ind;
      SynthStats Pass;
      ++Passes;
      auto E = synthPass(Q.Body, SOpt, Ind, Pass);
      Acc.SolverNodes += Pass.SolverNodes;
      Acc.Seconds += Pass.Seconds;
      if (E) {
        if (E->code() != ErrorCode::BudgetExhausted)
          return *E; // Hard error: unsupported query, etc.
        LastErr = std::move(E);
        Undecided = false;
        if (sessionSpent())
          break; // Retrying against a spent session budget is futile.
        continue;
      }
      if (Options.Verify) {
        uint64_t VerifyNodes = 0;
        CertificateBundle B =
            verifyArtifact(Q.Body, Ind, SOpt.MaxSolverNodes, true, VerifyNodes);
        Acc.SolverNodes += VerifyNodes;
        if (const Certificate *Refuted = B.firstRefuted())
          return Error(ErrorCode::VerificationFailure,
                       "synthesized ind. sets for '" + Q.Name +
                           "' failed verification:\n" + Refuted->str());
        if (!B.valid()) {
          // Undecided — no counterexample, just not enough budget for a
          // verdict. Degradable, never conflated with refutation.
          LastErr = Error(ErrorCode::BudgetExhausted,
                          "verification undecided for '" + Q.Name + "':\n" +
                              B.firstFailure()->str());
          Undecided = true;
          if (sessionSpent())
            break;
          continue;
        }
        Art.Certificates = std::move(B);
      }
      Art.Ind = std::move(Ind);
      Acc.BoxesSynthesized = Pass.BoxesSynthesized;
      Succeeded = true;
      break;
    }

    if (!Succeeded) {
      if (!Options.GracefulDegradation)
        return *LastErr; // Legacy strict contract.

      // Degraded rung: rerun keeping whatever sound partial artifact the
      // budget allows (k' < k boxes, or ⊥). The pass stays chained to the
      // session budget — a spent session degrades to ⊥ immediately.
      SynthOptions SOpt = Options.Synth;
      SOpt.MaxSolverNodes = attemptBudget(MaxAttempts - 1);
      SOpt.KeepPartialOnExhaustion = true;
      if (QA != nullptr && Options.UseAnalysisSeeds)
        applyAnalysisSeeds(*QA, S, SOpt);
      if (Seeds)
        applyCacheSeeds(*Seeds, SOpt);
      IndSets<D> Ind;
      SynthStats Pass;
      ++Passes;
      auto E = synthPass(Q.Body, SOpt, Ind, Pass);
      Acc.SolverNodes += Pass.SolverNodes;
      Acc.Seconds += Pass.Seconds;

      bool FellBack = true;
      if (!E) {
        uint64_t VerifyNodes = 0;
        CertificateBundle B;
        bool PartialOk = true;
        if (Options.Verify) {
          // Detached: certify the partial artifact even though the
          // session budget is spent (bounded by the attempt budget).
          B = verifyArtifact(Q.Body, Ind, SOpt.MaxSolverNodes, false,
                             VerifyNodes);
          Acc.SolverNodes += VerifyNodes;
          if (const Certificate *Refuted = B.firstRefuted())
            return Error(ErrorCode::VerificationFailure,
                         "degraded ind. sets for '" + Q.Name +
                             "' failed verification:\n" + Refuted->str());
          PartialOk = B.valid();
        }
        if (PartialOk) {
          Art.Ind = std::move(Ind);
          Art.Certificates = std::move(B);
          Acc.BoxesSynthesized = Pass.BoxesSynthesized;
          FellBack = false;
        }
      }
      if (FellBack) {
        // Last rung: ⊥ for both responses. Sound by construction; the
        // tracker's policy check rejects downgrades against it.
        Art.Ind = IndSets<D>{DomainTraits<D>::bottom(S),
                             DomainTraits<D>::bottom(S)};
        Art.Certificates = bottomFallbackBundle();
        Acc.BoxesSynthesized = 0;
      }
      Art.Degradation = QueryDegradation{
          Q.Name,
          Undecided ? DegradationReason::VerificationUndecided
                    : DegradationReason::SynthesisExhausted,
          Passes, FellBack,
          LastErr ? LastErr->message() : std::string()};
      // Split the machine-readable code: only a wall-clock (or watchdog)
      // expiry maps to the deadline code — node caps and injected faults
      // stay "budget".
      Art.Degradation->DeadlineExpired =
          SessionBudget != nullptr && SessionBudget->deadlineExpired();
    }

    // Publish only fully synthesized, (when enabled) fully verified
    // artifacts; degraded rungs are session-local compromises, not
    // reusable truths. Store failures are non-fatal: the cache is an
    // accelerator, losing a write only costs a future hit.
    if (Succeeded && CacheKey && !Art.Degradation)
      (void)Options.Cache->template store<D>(*CacheKey, Art.Ind);

    Art.Stats = Acc;
    Art.Attempts = Passes;
    IndSetSketch Sketch(Q.Name, S, ApproxKind::Under);
    Art.SynthesizedSource =
        Sketch.renderFilled(Art.Ind.TrueSet, Art.Ind.FalseSet);
    ANOSY_OBS_SPAN_ARG(Span, "outcome",
                       Art.Degradation ? "degraded" : "verified");
    ANOSY_OBS_SPAN_ARG(Span, "attempts", Passes);
    ANOSY_OBS_SPAN_ARG(Span, "solver_nodes", Acc.SolverNodes);
    if (SessionBudget != nullptr)
      ANOSY_OBS_SPAN_ARG(Span, "budget_remaining",
                         SessionBudget->used() >= SessionBudget->MaxNodes
                             ? uint64_t(0)
                             : SessionBudget->MaxNodes -
                                   SessionBudget->used());
    ANOSY_OBS_OBSERVE_SECONDS("anosy_query_build_seconds",
                              "Wall time to build one query's artifacts",
                              BuildTimer.seconds());
    return Art;
  }

  /// Installs built artifacts into the tracker and merges bookkeeping, in
  /// declaration order.
  void installQuery(const QueryDef &Q, QueryArtifacts<D> Art) {
    QueryInfo<D> Info;
    Info.Name = Q.Name;
    Info.QueryExpr = Q.Body;
    Info.Ind = Art.Ind;
    Info.Kind = ApproxKind::Under;
    // Compile once at registration; synthesis/verification already
    // populated the process-wide tape cache, so this is a cache hit.
    Info.CompiledQuery = getOrCompileTape(Info.QueryExpr);
    Tracker->registerQuery(std::move(Info));
    Stats.SolverNodes += Art.Stats.SolverNodes;
    Stats.SynthSeconds += Art.Stats.Seconds;
    Stats.Attempts += Art.Attempts;
    if (Art.FromCache) {
      ++Stats.CacheHits;
      Stats.CacheVerifyNodes += Art.CacheVerifyNodes;
    } else if (Art.CacheMissed) {
      ++Stats.CacheMisses;
    }
    if (Art.CacheSeeded)
      ++Stats.CacheSeededQueries;
    ANOSY_OBS_COUNT("anosy_queries_registered_total",
                    "Queries registered into a session tracker", 1);
    if (Art.Degradation) {
      ++Stats.DegradedQueries;
      ANOSY_OBS_COUNT("anosy_queries_degraded_total",
                      "Queries whose artifacts were degraded", 1);
      Report.Queries.push_back(*Art.Degradation);
    }
    Artifacts.emplace(Q.Name, std::move(Art));
  }

  void installClassifier(ClassifierBuild Build) {
    Stats.SolverNodes += Build.Stats.SolverNodes;
    Stats.SynthSeconds += Build.Stats.Seconds;
    Stats.Attempts += Build.Attempts;
    ANOSY_OBS_COUNT("anosy_queries_registered_total",
                    "Queries registered into a session tracker", 1);
    if (Build.Degradation) {
      ++Stats.DegradedQueries;
      ANOSY_OBS_COUNT("anosy_queries_degraded_total",
                      "Queries whose artifacts were degraded", 1);
      Report.Queries.push_back(*Build.Degradation);
    }
    Tracker->registerClassifier(std::move(Build.Info));
  }

  /// One strict classifier pass: enumerate outputs, synthesize each
  /// output's under set, verify every obligation (chained). Returns the
  /// bundle-style outcome through \p Build; an unverified/undecided
  /// outcome is signalled via the returned error (BudgetExhausted).
  std::optional<Error> classifierPass(const ClassifierDef &C,
                                      const SynthOptions &SOpt,
                                      bool ChainedVerify,
                                      ClassifierBuild &Build) const {
    const Schema &S = M.schema();
    auto Synth = ClassifierSynthesizer::create(S, C.Body, SOpt);
    if (!Synth)
      return Synth.error();

    ClassifierInfo<D> Info;
    Info.Name = C.Name;
    Info.Body = C.Body;
    Info.Kind = ApproxKind::Under;
    SynthStats Pass;
    if constexpr (std::is_same_v<D, Box>) {
      auto Sets = Synth->synthesizeInterval(ApproxKind::Under, &Pass);
      if (!Sets)
        return Sets.error();
      Info.Ind = Sets.takeValue();
    } else {
      auto Sets = Synth->synthesizePowerset(ApproxKind::Under,
                                            Options.PowersetSize, &Pass);
      if (!Sets)
        return Sets.error();
      Info.Ind = Sets.takeValue();
    }
    Build.Stats.SolverNodes += Pass.SolverNodes;
    Build.Stats.Seconds += Pass.Seconds;

    if (Options.Verify) {
      for (const OutputIndSet<D> &O : Info.Ind) {
        RefinementChecker Checker(
            S, Synth->outputQuery(O.Value), SOpt.MaxSolverNodes,
            ChainedVerify ? Options.Synth.SessionBudget : nullptr,
            ChainedVerify ? Options.Synth.DeadlineMs : 0);
        // Per-output obligation: every member of the set maps to O.Value.
        IndSets<D> AsPair{O.Set, DomainTraits<D>::bottom(S)};
        CertificateBundle B = Checker.checkIndSets(AsPair, ApproxKind::Under);
        Build.Stats.SolverNodes += Checker.solverNodesUsed();
        if (const Certificate *Refuted = B.firstRefuted())
          return Error(ErrorCode::VerificationFailure,
                       "classifier '" + C.Name + "' output " +
                           std::to_string(O.Value) +
                           " failed verification:\n" + Refuted->str());
        if (!B.valid())
          return Error(ErrorCode::BudgetExhausted,
                       "verification undecided for classifier '" + C.Name +
                           "' output " + std::to_string(O.Value));
      }
    }
    Build.Info = std::move(Info);
    return std::nullopt;
  }

  /// Classifier ladder: retry strictly, then degrade. The classifier
  /// fallback is an *empty* feasible-output list — the tracker refuses to
  /// downgrade a degraded classifier (conservative rejection), because a
  /// partial output list could misattribute a secret's posterior.
  Result<ClassifierBuild> buildClassifierInfo(const ClassifierDef &C) const {
    const unsigned MaxAttempts = std::max(1u, Options.Retry.MaxAttempts);
    ClassifierBuild Build;
    std::optional<Error> LastErr;
    bool Undecided = false;
    unsigned Passes = 0;

    for (unsigned Attempt = 0; Attempt != MaxAttempts; ++Attempt) {
      SynthOptions SOpt = Options.Synth;
      SOpt.MaxSolverNodes = attemptBudget(Attempt);
      ++Passes;
      auto E = classifierPass(C, SOpt, true, Build);
      if (!E) {
        Build.Attempts = Passes;
        return Build;
      }
      if (E->code() == ErrorCode::BudgetExhausted) {
        Undecided = E->message().rfind("verification undecided", 0) == 0;
        LastErr = std::move(E);
        if (sessionSpent())
          break;
        continue;
      }
      return *E; // Refutation or unsupported classifier: hard error.
    }

    if (!Options.GracefulDegradation)
      return *LastErr;
    Build.Info.Name = C.Name;
    Build.Info.Body = C.Body;
    Build.Info.Kind = ApproxKind::Under;
    Build.Info.Ind.clear();
    Build.Attempts = Passes;
    Build.Degradation = QueryDegradation{
        C.Name,
        Undecided ? DegradationReason::VerificationUndecided
                  : DegradationReason::SynthesisExhausted,
        Passes, true, LastErr ? LastErr->message() : std::string()};
    Build.Degradation->DeadlineExpired =
        SessionBudget != nullptr && SessionBudget->deadlineExpired();
    return Build;
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
