//===- compile/CompiledEval.h - Which queries compile to tapes --*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Which queries the solver evaluates through a compiled tape. The rule
/// depends on the input only: a query compiles when it is large enough
/// (MinCompileTreeSize AST nodes) that the tape's per-probe savings beat
/// its one-shot compile cost; trivial queries (a lone comparison) stay on
/// the tree walk, which also remains the fallback and the differential
/// oracle.
///
/// Nothing is cached: each predicate owner (a Synthesizer, a
/// RefinementChecker) compiles its query once and reuses the tape for
/// every probe it makes. A tape is a deterministic function of its
/// expression, so structurally equal queries compile to identical tapes.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_COMPILE_COMPILEDEVAL_H
#define ANOSY_COMPILE_COMPILEDEVAL_H

#include "compile/Tape.h"
#include "expr/Expr.h"

#include <cstddef>

namespace anosy {

/// Queries with fewer AST nodes than this stay on the tree walk: it is
/// already a handful of inlined calls and the tape buys nothing.
inline constexpr size_t MinCompileTreeSize = 4;

/// A freshly compiled tape for \p E, or nullptr when \p E is below
/// MinCompileTreeSize (or exceeds the tape's register file). Every call
/// compiles and is counted in anosy_tape_compiles_total. (The name dates
/// from a removed tape cache; the benchmark's registration replay still
/// calls it.)
TapeRef getOrCompileTape(const ExprRef &E);

} // namespace anosy

#endif // ANOSY_COMPILE_COMPILEDEVAL_H
