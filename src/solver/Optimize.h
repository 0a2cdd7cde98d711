//===- solver/Optimize.h - Box optimization procedures ----------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimization layer replacing Z3's νZ objectives (§5.3):
///
/// * growMaximalBox — find an inclusion-maximal box inside Bounds all of
///   whose points satisfy a validity predicate. This solves SYNTH's
///   under-approximation constraint  ∀x∈dom ⇒ query x  while "preferring
///   the tightest bounds": the result cannot be extended by one step in
///   any direction. Multi-restart with diverse seeds plays the role of
///   the Pareto search; the objective mode picks which maximal box wins.
///
/// * tightBoundingBox — the exact bounding box of the satisfying set,
///   solving SYNTH's over-approximation constraint  ∀x. query x ⇒ x∈dom
///   with minimal per-dimension widths (which is the unique optimum for
///   single-box over-approximation, so here we are *provably* at least as
///   precise as any solution Z3 could return).
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_SOLVER_OPTIMIZE_H
#define ANOSY_SOLVER_OPTIMIZE_H

#include "solver/Decide.h"

#include <vector>

namespace anosy {

/// How the grower chooses among maximal boxes (the scalarization of the
/// paper's multi-objective "maximize u_i - l_i for every i").
enum class GrowObjective {
  /// Maximize the number of represented secrets.
  Volume,
  /// Prefer boxes whose smallest dimension is widest (then volume) — the
  /// "prefer 20x20 over 400x1" preference of §5.3.
  Balanced,
  /// Keep the width-vector Pareto front across restarts and return the
  /// front member with the largest volume (closest to Z3's Pareto mode).
  ParetoWidth,
};

const char *growObjectiveName(GrowObjective Obj);

/// Tuning for growMaximalBox.
struct GrowerConfig {
  GrowObjective Objective = GrowObjective::Balanced;
  /// Independent seed searches; more restarts explore more maximal boxes.
  unsigned Restarts = 6;
  uint64_t Seed = 0xA905;
};

/// Result of a grow run.
struct GrowResult {
  /// The selected maximal box; empty optional when no seed point satisfies
  /// the seed predicate (the region is empty).
  std::optional<Box> Best;
  /// Width-vector non-dominated maximal boxes found across restarts.
  std::vector<Box> ParetoFront;
  bool Exhausted = false;
};

/// Grows an inclusion-maximal box within \p Bounds such that every point
/// satisfies \p Valid. Seed points are searched with \p Seed (pass the same
/// predicate as \p Valid for plain synthesis; ITERSYNTH passes "valid and
/// not yet covered" to force progress).
GrowResult growMaximalBox(const Predicate &Valid, const Predicate &Seed,
                          const Box &Bounds, const GrowerConfig &Config,
                          SolverBudget &Budget);

/// The exact bounding box of {x ∈ Bounds : P(x)}; the empty box when the
/// set is empty.
struct BoundResult {
  Box Bounding;
  bool Exhausted = false;
};
BoundResult tightBoundingBox(const Predicate &P, const Box &Bounds,
                             SolverBudget &Budget);

} // namespace anosy

#endif // ANOSY_SOLVER_OPTIMIZE_H
