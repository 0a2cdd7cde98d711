//===- core/AnosySession.cpp - Registration pipeline ----------------------===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
//
// Session creation: steps I–IV of §2.3 for every declaration, the retry →
// partial → ⊥ ladder both queries and classifiers climb, the budgets it
// runs under, the solver-free certificate bundles, the cache probe and
// publish, and the bookkeeping of what each registration cost. The
// libraries form a DAG (kb ← cache ← core), so the whole pipeline is
// compiled here once, for the two shipped domains, and the header keeps
// only declarations and trivial forwarders.
//
//===----------------------------------------------------------------------===//

#include "core/AnosySession.h"

#include "cache/ArtifactCache.h"
#include "core/ArtifactIO.h"
#include "obs/Instrument.h"
#include "support/Stats.h"
#include "synth/Sketch.h"
#include "verify/RefinementChecker.h"

#include <cmath>
#include <functional>

using namespace anosy;

namespace {

/// The per-call node budget for strict attempt \p Attempt (0-based):
/// \p Base grown ×4 per retry, saturating at UINT64_MAX.
uint64_t attemptBudget(uint64_t Base, unsigned Attempt) {
  double Grown = static_cast<double>(Base) *
                 std::pow(4.0, static_cast<double>(Attempt));
  if (Grown >= 9.0e18)
    return UINT64_MAX;
  return static_cast<uint64_t>(Grown);
}

/// The session-wide budget every per-call budget chains to; null when
/// \p O asks for no node cap or deadline, so capless sessions skip the
/// parent check in charge().
std::unique_ptr<SolverBudget> makeSessionBudget(const SessionOptions &O) {
  if (O.MaxSessionNodes == 0 && O.DeadlineMs == 0)
    return nullptr;
  auto B = std::make_unique<SolverBudget>(
      O.MaxSessionNodes != 0 ? O.MaxSessionNodes : UINT64_MAX);
  if (O.DeadlineMs != 0)
    B->setDeadlineAfterMs(O.DeadlineMs);
  return B;
}

/// A two-part bundle of obligations that hold without a solver run.
CertificateBundle vacuousBundle(std::string TrueWhy, std::string FalseWhy) {
  CertificateBundle B;
  Certificate T;
  T.Obligation = "forall x. x in dT => query x   " + std::move(TrueWhy);
  T.Valid = true;
  Certificate F;
  F.Obligation = "forall x. x in dF => not (query x)   " + std::move(FalseWhy);
  F.Valid = true;
  B.Parts.push_back(std::move(T));
  B.Parts.push_back(std::move(F));
  return B;
}

/// The certificates of the ⊥ fallback: both ind. sets are empty, so the
/// Fig. 4 under obligations hold vacuously — no solver involved, and
/// re-checkable offline by anyone who distrusts the label.
CertificateBundle bottomFallbackBundle() {
  return vacuousBundle("(bottom fallback: dT = empty, vacuously valid)",
                       "(bottom fallback: dF = empty, vacuously valid)");
}

/// The certificates of a statically-decided constant answer: the
/// analyzer proved one branch empty over the prior, so the exact ind.
/// sets are (⊤, ⊥) or (⊥, ⊤). The non-trivial obligation rests on the
/// interval refiner's soundness (DESIGN.md §7), not a solver run.
CertificateBundle constantAnswerBundle(bool Value) {
  const std::string Why = "(static analysis: ";
  return vacuousBundle(
      Why + (Value ? "every secret answers True over the prior)"
                   : "dT = empty, vacuously valid)"),
      Why + (Value ? "dF = empty, vacuously valid)"
                   : "every secret answers False over the prior)"));
}

/// Meets cache-derived region seeds into \p SOpt, intersecting any seed
/// the caller already set. Both are sound branch over-approximations, so
/// their intersection is too (and tighter than either).
void applyCacheSeeds(const CacheSeeds &Seeds, SynthOptions &SOpt) {
  SOpt.TrueRegionSeed = SOpt.TrueRegionSeed
                            ? SOpt.TrueRegionSeed->intersect(Seeds.TrueRegion)
                            : Seeds.TrueRegion;
  SOpt.FalseRegionSeed =
      SOpt.FalseRegionSeed
          ? SOpt.FalseRegionSeed->intersect(Seeds.FalseRegion)
          : Seeds.FalseRegion;
}

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
          const std::function<PassOutcome(uint64_t)> &Partial) {
  const unsigned MaxAttempts = std::max(1u, O.Retry.MaxAttempts);
  const uint64_t BaseNodes = O.Synth.MaxSolverNodes;
  LadderOutcome Out;
  PassOutcome Last;
  for (unsigned Attempt = 0; Attempt != MaxAttempts; ++Attempt) {
    ++Out.Passes;
    Last = Strict(attemptBudget(BaseNodes, Attempt));
    if (!Last.Err)
      return Out;
    if (Last.Err->code() != ErrorCode::BudgetExhausted)
      return *Last.Err; // Hard error: refutation, unsupported query, etc.
    if (SessionBudget != nullptr && SessionBudget->exhausted())
      break; // Retrying against a spent session budget is futile.
  }

  bool FellBack = true;
  if (Partial) {
    ++Out.Passes;
    PassOutcome Kept = Partial(attemptBudget(BaseNodes, MaxAttempts - 1));
    // Only a counterexample is hard here; a partial pass that runs out
    // of anything falls back to ⊥.
    if (Kept.Err && Kept.Err->code() == ErrorCode::VerificationFailure)
      return *Kept.Err;
    FellBack = Kept.Err.has_value();
  }
  Out.Degradation = QueryDegradation{
      Name,
      Last.Undecided ? DegradationReason::VerificationUndecided
                     : DegradationReason::SynthesisExhausted,
      Out.Passes, FellBack, Last.Err->message()};
  // Split the machine-readable code: only a wall-clock expiry maps to
  // the deadline code — node caps and injected faults stay "budget".
  Out.Degradation->DeadlineExpired =
      SessionBudget != nullptr && SessionBudget->deadlineExpired();
  return Out;
}

/// Adds one registered query or classifier's cost, attempts and
/// degradation record to the session's bookkeeping.
void accountRegistration(SessionStats &Stats, DegradationReport &Report,
                         const SynthStats &Cost, unsigned Attempts,
                         const std::optional<QueryDegradation> &Degradation) {
  Stats.SolverNodes += Cost.SolverNodes;
  Stats.SynthSeconds += Cost.Seconds;
  Stats.Attempts += Attempts;
  ANOSY_OBS_COUNT("anosy_queries_registered_total",
                  "Queries registered into a session tracker", 1);
  if (!Degradation)
    return;
  ++Stats.DegradedQueries;
  ANOSY_OBS_COUNT("anosy_queries_degraded_total",
                  "Queries whose artifacts were degraded", 1);
  Report.Queries.push_back(*Degradation);
}

/// Steps II+III once with \p Sy, a query or classifier synthesizer.
template <AbstractDomain D, typename SynthesizerT>
auto synthesize(const SynthesizerT &Sy, unsigned PowersetSize,
                SynthStats &Pass) {
  if constexpr (std::is_same_v<D, Box>)
    return Sy.synthesizeInterval(ApproxKind::Under, &Pass);
  else
    return Sy.synthesizePowerset(ApproxKind::Under, PowersetSize, &Pass);
}

} // namespace

template <AbstractDomain D>
Result<AnosySession<D>> AnosySession<D>::create(Module M,
                                                KnowledgePolicy<D> Policy,
                                                SessionOptions Options) {
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

template <AbstractDomain D>
Result<AnosySession<D>>
AnosySession<D>::createFromKnowledgeBase(const std::string &Text,
                                         KnowledgePolicy<D> Policy,
                                         SessionOptions Options) {
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

template <AbstractDomain D>
std::string AnosySession<D>::exportKnowledgeBase() const {
  std::vector<QueryInfo<D>> Infos;
  for (const QueryDef &Q : M.queries())
    if (const QueryInfo<D> *Info = Tracker->queryInfo(Q.Name))
      Infos.push_back(*Info);
  return serializeKnowledgeBaseV2(M.schema(), Infos);
}

template <AbstractDomain D>
AnosySession<D>::AnosySession(Module M, KnowledgePolicy<D> Policy,
                              SessionOptions InOptions)
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

template <AbstractDomain D>
CertificateBundle AnosySession<D>::verifyArtifact(const ExprRef &Body,
                                                  const IndSets<D> &Ind,
                                                  uint64_t MaxNodes,
                                                  bool Chained,
                                                  uint64_t &NodesOut) const {
  RefinementChecker Checker(M.schema(), Body, MaxNodes,
                            Chained ? Options.Synth.SessionBudget : nullptr);
  CertificateBundle B = Checker.checkIndSets(Ind, ApproxKind::Under);
  NodesOut += Checker.solverNodesUsed();
  return B;
}

template <AbstractDomain D>
Result<QueryArtifacts<D>>
AnosySession<D>::buildQueryArtifacts(const QueryDef &Q) const {
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
      Art.Ind = Value ? IndSets<D>{DomainTraits<D>::top(S),
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
        ANOSY_OBS_OBSERVE_SECONDS("anosy_query_build_seconds",
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
    auto Ind = synthesize<D>(*Sy, Options.PowersetSize, One);
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

  ANOSY_OBS_SPAN_ARG(Span, "outcome", Art.Degradation ? "degraded" : "verified");
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

template <AbstractDomain D>
void AnosySession<D>::installQuery(const QueryDef &Q, QueryArtifacts<D> Art) {
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

template <AbstractDomain D>
std::optional<Error>
AnosySession<D>::registerClassifier(const ClassifierDef &C) {
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
    auto Sets = synthesize<D>(*Sy, Options.PowersetSize, One);
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

template class anosy::AnosySession<Box>;
template class anosy::AnosySession<PowerBox>;
