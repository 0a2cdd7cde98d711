//===- synth/Synthesizer.cpp - SYNTH and ITERSYNTH -------------------------===//

#include "synth/Synthesizer.h"

#include "expr/Analysis.h"
#include "expr/Simplify.h"
#include "obs/Instrument.h"
#include "support/Stats.h"

using namespace anosy;

namespace {

/// Per-call budget wired to the failure-domain options: node cap, parent
/// session budget, and wall-clock deadline (DESIGN.md §6).
void initBudget(SolverBudget &B, const SynthOptions &Options) {
  B.MaxNodes = Options.MaxSolverNodes;
  B.Parent = Options.SessionBudget;
  if (Options.DeadlineMs != 0)
    B.setDeadlineAfterMs(Options.DeadlineMs);
}

} // namespace

Synthesizer::Synthesizer(const Schema &InS, ExprRef InQuery,
                         SynthOptions InOptions)
    : S(InS), Query(std::move(InQuery)), Options(InOptions),
      Bounds(Box::top(InS)), QueryPred(exprPredicate(Query)) {}

Result<Synthesizer> Synthesizer::create(const Schema &S, ExprRef Query,
                                        SynthOptions Options) {
  if (!Query)
    return Error(ErrorCode::UnsupportedQuery, "null query");
  if (auto R = admitQuery(*Query, S.arity()); !R)
    return R.error();
  if ((Options.TrueRegionSeed &&
       Options.TrueRegionSeed->arity() != S.arity()) ||
      (Options.FalseRegionSeed &&
       Options.FalseRegionSeed->arity() != S.arity()))
    return Error(ErrorCode::UnsupportedQuery,
                 "analysis region seed arity does not match the schema");
  // Normalize before synthesis: folding and local rewrites shrink the
  // constraint the solver evaluates at every box (semantics-preserving,
  // see expr/Simplify.h).
  return Synthesizer(S, simplify(Query), Options);
}

static Error exhaustedError() {
  return Error(ErrorCode::BudgetExhausted,
               "solver budget or deadline exhausted during synthesis");
}

static void markExhausted(SynthStats *Stats) {
  if (Stats)
    Stats->Exhausted = true;
}

Synthesizer::ResponseSearch
Synthesizer::makeSearch(PredicateRef Base,
                        const std::optional<Box> &Seed) const {
  if (!Seed)
    return {std::move(Base), Bounds, false};
  Box Region = Bounds.intersect(*Seed);
  if (Region.isEmpty())
    // The analyzer proved the branch empty over the prior; the only
    // sound artifact is ⊥ and no search is needed.
    return {std::move(Base), Region, true};
  // Confine the search and let the region's faces guide splitting: the
  // inBoxPredicate conjunct publishes them as hints. Inside the region
  // the conjunct is identically True, so predicate semantics on the
  // search space are unchanged.
  PredicateRef Confined =
      andPredicate(std::move(Base), inBoxPredicate(Region));
  return {std::move(Confined), Region, false};
}

Result<Box> Synthesizer::synthUnderBox(const ResponseSearch &Search,
                                       SolverBudget &Budget,
                                       SynthStats *Stats) const {
  if (Search.EmptyBranch)
    return Box::bottom(S.arity());
  GrowerConfig Config;
  Config.Objective = Options.Objective;
  Config.Restarts = Options.Restarts;
  Config.Seed = Options.Seed;
  GrowResult R =
      growMaximalBox(*Search.P, *Search.P, Search.Region, Config, Budget);
  if (R.Exhausted) {
    if (!Options.KeepPartialOnExhaustion)
      return exhaustedError();
    // Degraded mode: any box the grower completed is valid-by-construction
    // (every growth step was a proved ∀); with none, ⊥ is the always-sound
    // under-approximation.
    markExhausted(Stats);
    if (!R.Best)
      return Box::bottom(S.arity());
    if (Stats)
      ++Stats->BoxesSynthesized;
    return *R.Best;
  }
  if (Stats && R.Best)
    ++Stats->BoxesSynthesized;
  // No satisfying point: the empty domain is the (only) correct
  // under-approximation — the paper's ⊥_I.
  if (!R.Best)
    return Box::bottom(S.arity());
  return *R.Best;
}

Result<IndSets<Box>>
Synthesizer::synthesizeInterval(ApproxKind Kind, SynthStats *Stats) const {
  Stopwatch Timer;
  ANOSY_OBS_SPAN(Span, "anosy.synth.interval");
  ANOSY_OBS_SPAN_ARG(Span, "kind",
                     Kind == ApproxKind::Under ? "under" : "over");
  SolverBudget Budget;
  initBudget(Budget, Options);

  ResponseSearch ST = makeSearch(QueryPred, Options.TrueRegionSeed);
  ResponseSearch SF =
      makeSearch(notPredicate(QueryPred), Options.FalseRegionSeed);

  IndSets<Box> Sets{Box::bottom(S.arity()), Box::bottom(S.arity())};
  if (Kind == ApproxKind::Under) {
    auto T = synthUnderBox(ST, Budget, Stats);
    if (!T)
      return T.error();
    auto F = synthUnderBox(SF, Budget, Stats);
    if (!F)
      return F.error();
    Sets.TrueSet = T.takeValue();
    Sets.FalseSet = F.takeValue();
  } else {
    // A seeded-empty branch's exact bounding box is ⊥; no solver call.
    BoundResult T{Box::bottom(S.arity()), false};
    if (!ST.EmptyBranch)
      T = tightBoundingBox(*ST.P, ST.Region, Budget);
    BoundResult F{Box::bottom(S.arity()), false};
    if (!T.Exhausted && !SF.EmptyBranch)
      F = tightBoundingBox(*SF.P, SF.Region, Budget);
    if (T.Exhausted || F.Exhausted) {
      if (!Options.KeepPartialOnExhaustion) {
        if (Stats) {
          Stats->SolverNodes += Budget.used();
          Stats->Seconds += Timer.seconds();
        }
        return exhaustedError();
      }
      // Degraded mode: ⊤ is the always-sound over-approximation for
      // whichever side the solver could not finish.
      markExhausted(Stats);
      Sets.TrueSet = T.Exhausted ? Bounds : T.Bounding;
      Sets.FalseSet = F.Exhausted || T.Exhausted ? Bounds : F.Bounding;
    } else {
      Sets.TrueSet = T.Bounding;
      Sets.FalseSet = F.Bounding;
    }
    if (Stats)
      Stats->BoxesSynthesized += 2;
  }
  if (Stats) {
    Stats->SolverNodes += Budget.used();
    Stats->Seconds += Timer.seconds();
  }
  ANOSY_OBS_SPAN_ARG(Span, "solver_nodes", Budget.used());
  ANOSY_OBS_SPAN_ARG(Span, "boxes",
                     Stats != nullptr ? Stats->BoxesSynthesized : 0u);
  ANOSY_OBS_COUNT("anosy_synth_passes_total",
                  "Completed synthesis passes (interval + powerset)", 1);
  ANOSY_OBS_COUNT("anosy_solver_nodes_total",
                  "Solver nodes charged (synthesis + verification)",
                  Budget.used());
  ANOSY_OBS_OBSERVE_SECONDS("anosy_synth_seconds",
                            "Wall time of one synthesis pass", Timer.seconds());
  return Sets;
}

Result<PowerBox> Synthesizer::synthUnderPowerset(const ResponseSearch &Search,
                                                 unsigned K,
                                                 SolverBudget &Budget,
                                                 SynthStats *Stats) const {
  if (Search.EmptyBranch)
    return PowerBox(S.arity());
  // Algorithm 1, under arm: each iteration grows a fresh maximal valid box
  // *inside the still-uncovered region* (valid and not yet in dom_i). This
  // keeps the includes pairwise disjoint, guarantees strictly growing
  // coverage (re-growing an earlier maximal box is impossible), and makes
  // the paper's Σ-based size estimate exact on synthesized ind. sets.
  const PredicateRef &Valid = Search.P;
  std::vector<Box> DomI;
  for (unsigned I = 0; I != K; ++I) {
    PredicateRef Grow =
        DomI.empty()
            ? Valid
            : andPredicate(Valid, notPredicate(inUnionPredicate(DomI)));
    GrowerConfig Config;
    Config.Objective = Options.Objective;
    Config.Restarts = Options.Restarts;
    Config.Seed = Options.Seed + I * 7919;
    GrowResult R = growMaximalBox(*Grow, *Grow, Search.Region, Config, Budget);
    if (R.Exhausted) {
      if (!Options.KeepPartialOnExhaustion)
        return exhaustedError();
      // Degraded ITERSYNTH: the k' < k boxes already grown form a sound
      // (just less precise) under-approximation; keep them.
      markExhausted(Stats);
      break;
    }
    if (!R.Best)
      break; // The satisfying region is fully covered (or empty).
    DomI.push_back(*R.Best);
    if (Stats)
      ++Stats->BoxesSynthesized;
  }
  return PowerBox(S.arity(), std::move(DomI), {});
}

Result<PowerBox> Synthesizer::synthOverPowerset(const ResponseSearch &Search,
                                                unsigned K,
                                                SolverBudget &Budget,
                                                SynthStats *Stats) const {
  if (Search.EmptyBranch)
    return PowerBox(S.arity()); // Nothing satisfies: over-approx is ⊥.
  const PredicateRef &SatSet = Search.P;
  // Algorithm 1, over arm: start from the exact bounding box, then carve
  // out maximal all-invalid boxes to sharpen the over-approximation.
  BoundResult First = tightBoundingBox(*SatSet, Search.Region, Budget);
  if (First.Exhausted) {
    if (!Options.KeepPartialOnExhaustion)
      return exhaustedError();
    // Degraded mode: without an exact bounding box, ⊤ (the full secret
    // space) is the always-sound over-approximation.
    markExhausted(Stats);
    return PowerBox(S.arity(), {Bounds}, {});
  }
  if (First.Bounding.isEmpty())
    return PowerBox(S.arity()); // Nothing satisfies: over-approx is ⊥.
  if (Stats)
    ++Stats->BoxesSynthesized;

  std::vector<Box> DomO;
  PredicateRef Invalid = notPredicate(SatSet);
  for (unsigned I = 1; I < K; ++I) {
    // As in the under arm, grow inside the not-yet-excluded region so the
    // exclusion boxes stay disjoint and carving progresses every round.
    PredicateRef Grow =
        DomO.empty()
            ? Invalid
            : andPredicate(Invalid, notPredicate(inUnionPredicate(DomO)));
    GrowerConfig Config;
    // Exclusions want maximal carved cardinality.
    Config.Objective = GrowObjective::Volume;
    Config.Restarts = Options.Restarts;
    Config.Seed = Options.Seed + I * 104729;
    GrowResult R =
        growMaximalBox(*Grow, *Grow, First.Bounding, Config, Budget);
    if (R.Exhausted) {
      if (!Options.KeepPartialOnExhaustion)
        return exhaustedError();
      // Degraded carving: the exclusions found so far are each proved
      // all-invalid, so stopping early only loses precision.
      markExhausted(Stats);
      break;
    }
    if (!R.Best)
      break; // No invalid region left inside the bounding box.
    DomO.push_back(*R.Best);
    if (Stats)
      ++Stats->BoxesSynthesized;
  }
  return PowerBox(S.arity(), {First.Bounding}, std::move(DomO));
}

Result<IndSets<PowerBox>>
Synthesizer::synthesizePowerset(ApproxKind Kind, unsigned K,
                                SynthStats *Stats) const {
  if (K == 0)
    return Error(ErrorCode::SynthesisFailure,
                 "powerset synthesis requires k >= 1");
  Stopwatch Timer;
  ANOSY_OBS_SPAN(Span, "anosy.synth.powerset");
  ANOSY_OBS_SPAN_ARG(Span, "kind",
                     Kind == ApproxKind::Under ? "under" : "over");
  ANOSY_OBS_SPAN_ARG(Span, "k", K);
  SolverBudget Budget;
  initBudget(Budget, Options);

  ResponseSearch ST = makeSearch(QueryPred, Options.TrueRegionSeed);
  ResponseSearch SF =
      makeSearch(notPredicate(QueryPred), Options.FalseRegionSeed);

  IndSets<PowerBox> Sets{PowerBox(S.arity()), PowerBox(S.arity())};
  if (Kind == ApproxKind::Under) {
    auto T = synthUnderPowerset(ST, K, Budget, Stats);
    if (!T)
      return T.error();
    auto F = synthUnderPowerset(SF, K, Budget, Stats);
    if (!F)
      return F.error();
    Sets.TrueSet = T.takeValue();
    Sets.FalseSet = F.takeValue();
  } else {
    auto T = synthOverPowerset(ST, K, Budget, Stats);
    if (!T)
      return T.error();
    auto F = synthOverPowerset(SF, K, Budget, Stats);
    if (!F)
      return F.error();
    Sets.TrueSet = T.takeValue();
    Sets.FalseSet = F.takeValue();
  }
  if (Stats) {
    Stats->SolverNodes += Budget.used();
    Stats->Seconds += Timer.seconds();
  }
  ANOSY_OBS_SPAN_ARG(Span, "solver_nodes", Budget.used());
  ANOSY_OBS_COUNT("anosy_synth_passes_total",
                  "Completed synthesis passes (interval + powerset)", 1);
  ANOSY_OBS_COUNT("anosy_solver_nodes_total",
                  "Solver nodes charged (synthesis + verification)",
                  Budget.used());
  ANOSY_OBS_OBSERVE_SECONDS("anosy_synth_seconds",
                            "Wall time of one synthesis pass", Timer.seconds());
  return Sets;
}
