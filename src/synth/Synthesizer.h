//===- synth/Synthesizer.h - SYNTH and ITERSYNTH ----------------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthesis of optimal indistinguishability-set approximations (§5):
///
/// * SYNTH (§5.3): fill one typed hole with an interval domain. For
///   under-approximations an inclusion-maximal all-valid box is grown; for
///   over-approximations the exact bounding box of the satisfying set is
///   computed (the per-dimension-optimal single box).
/// * ITERSYNTH (Algorithm 1): iterate SYNTH to build powersets of size k —
///   appending include boxes seeded outside the current cover for
///   under-approximations, or carving exclude boxes out of the bounding
///   box for over-approximations.
///
/// Both return the pair of domains for the True and the False response,
/// mirroring Fig. 4's `(A<...>, A<...>)` tuples. Synthesized domains are
/// *candidates*: callers are expected to pass them to anosy/verify (the
/// Liquid Haskell stand-in), as AnosySession::registerQuery does.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_SYNTH_SYNTHESIZER_H
#define ANOSY_SYNTH_SYNTHESIZER_H

#include "solver/ModelCounter.h"
#include "solver/Optimize.h"
#include "support/Result.h"
#include "synth/Sketch.h"

#include <optional>

namespace anosy {

/// Tuning for synthesis runs.
struct SynthOptions {
  /// Volume maximizes the number of represented secrets, which is what
  /// minimum-size policies reward; see bench/ablation_objectives for the
  /// comparison with the paper's Pareto preference.
  GrowObjective Objective = GrowObjective::Volume;
  unsigned Restarts = 6;
  uint64_t Seed = 0xA905;
  /// Solver node budget per synthesis call.
  uint64_t MaxSolverNodes = 200'000'000;
  /// Session-wide cumulative budget (node cap and/or wall-clock deadline)
  /// every per-call budget chains to. Borrowed, never owned; nullptr
  /// means the per-call budget stands alone.
  SolverBudget *SessionBudget = nullptr;
  /// Graceful degradation: when the budget or deadline runs out, return
  /// the sound partial artifact instead of a BudgetExhausted error —
  /// ITERSYNTH keeps the k' < k boxes already grown (under), or the
  /// not-yet-sharpened bounding box / full space ⊤ (over), and SYNTH's
  /// interval falls to ⊥ (under) / ⊤ (over). Stats->Exhausted reports
  /// that degradation happened. Off by default (the strict contract);
  /// AnosySession turns it on only for the partial rung of its
  /// degradation ladder, after its strict retries (DESIGN.md §6).
  bool KeepPartialOnExhaustion = false;
  /// Static-analysis search-region seeds (analysis/SolverSeeds.h,
  /// DESIGN.md §7): sound over-approximations of the True/False answer
  /// branches over the schema prior. When set, the matching response's
  /// search is confined to Bounds ∩ region — every valid artifact for a
  /// response lies inside its region, so nothing is lost — and the
  /// region's faces are published as split hints through an
  /// inBoxPredicate conjunct. An empty region proves the branch empty:
  /// that response synthesizes to ⊥ without any solver call. Unset
  /// (default) keeps synthesis bit-identical to unseeded runs.
  std::optional<Box> TrueRegionSeed;
  std::optional<Box> FalseRegionSeed;
};

/// Instrumentation of one synthesis call.
struct SynthStats {
  uint64_t SolverNodes = 0;
  unsigned BoxesSynthesized = 0;
  /// Wall-clock seconds the call took.
  double Seconds = 0;
  /// The call ran out of budget/deadline and (under
  /// KeepPartialOnExhaustion) returned a degraded-but-sound artifact.
  bool Exhausted = false;
};

/// The pair of ind. sets for the two query responses (§2.2): first element
/// abstracts the secrets answering True, second those answering False.
template <typename D> struct IndSets {
  D TrueSet;
  D FalseSet;
};

/// Synthesizer for one query over one secret schema.
class Synthesizer {
public:
  /// Rejects queries outside the §5.1 fragment (UnsupportedQuery).
  static Result<Synthesizer> create(const Schema &S, ExprRef Query,
                                    SynthOptions Options = {});

  const Schema &schema() const { return S; }
  const ExprRef &query() const { return Query; }

  /// SYNTH at the interval domain: one box per response.
  Result<IndSets<Box>> synthesizeInterval(ApproxKind Kind,
                                          SynthStats *Stats = nullptr) const;

  /// ITERSYNTH at the powerset domain with up to \p K boxes per response.
  /// K == 1 degenerates to a single-interval powerset (§5.4).
  Result<IndSets<PowerBox>>
  synthesizePowerset(ApproxKind Kind, unsigned K,
                     SynthStats *Stats = nullptr) const;

private:
  Synthesizer(const Schema &S, ExprRef Query, SynthOptions Options);

  /// One response's search setup: the (possibly region-confined)
  /// predicate and the box the search runs in. Empty when an analysis
  /// seed proves the response's branch empty.
  struct ResponseSearch {
    PredicateRef P;
    Box Region;
    bool EmptyBranch = false;
  };

  /// Applies \p Seed (when set) to the response predicate \p Base:
  /// confines the search region and publishes the region faces as split
  /// hints. Without a seed this is the identity — unseeded synthesis
  /// stays bit-identical.
  ResponseSearch makeSearch(PredicateRef Base,
                            const std::optional<Box> &Seed) const;

  /// One response's interval under-approximation (maximal valid box).
  Result<Box> synthUnderBox(const ResponseSearch &Search, SolverBudget &B,
                            SynthStats *Stats) const;

  /// One response's powerset under-approximation (Algorithm 1, under arm).
  Result<PowerBox> synthUnderPowerset(const ResponseSearch &Search,
                                      unsigned K, SolverBudget &B,
                                      SynthStats *Stats) const;

  /// One response's powerset over-approximation (Algorithm 1, over arm).
  Result<PowerBox> synthOverPowerset(const ResponseSearch &Search,
                                     unsigned K, SolverBudget &B,
                                     SynthStats *Stats) const;

  Schema S;
  ExprRef Query;
  SynthOptions Options;
  Box Bounds; ///< The schema's full box.
  /// The query as a solver predicate, built once at construction (with a
  /// tape when the query reaches MinCompileTreeSize). Every synthesis arm
  /// reuses it, so one Synthesizer compiles the query exactly once.
  PredicateRef QueryPred;
};

} // namespace anosy

#endif // ANOSY_SYNTH_SYNTHESIZER_H
