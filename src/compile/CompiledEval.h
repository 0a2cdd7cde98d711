//===- compile/CompiledEval.h - Query compilation & tape cache --*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Which queries the solver evaluates through a compiled tape, and the
/// process-wide tape cache behind them. The rule depends on the input
/// only: a query compiles when it is large enough (MinCompileTreeSize
/// AST nodes) that the tape's per-probe savings beat its one-shot compile
/// cost; trivial queries (a lone comparison) stay on the tree walk, which
/// also remains the fallback and the differential oracle.
///
/// The cache keys tapes by structural hash + structural equality, so a
/// query registered once and re-elaborated many times (sessions, refine
/// chains, the corpus soak) compiles exactly once per distinct shape:
/// racing compiles of the same shape (anosyd workers share the cache)
/// re-probe under the insert lock and converge on a single tape. The
/// cache is bounded; overflow runs a second-chance sweep (probe hits mark
/// entries referenced; sweeps evict the unreferenced and demote the
/// rest), so hot shapes survive a stream of cold one-shot shapes instead
/// of being recompiled on every wrap.
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

/// The tape for \p E: a cached or freshly compiled tape, or nullptr when
/// \p E is below MinCompileTreeSize (or exceeds the tape's register
/// file). Thread-safe.
TapeRef getOrCompileTape(const ExprRef &E);

/// Test-only introspection of the process-wide tape cache: live entry
/// count, full reset, and a side-effect-free membership probe (does not
/// touch the second-chance referenced bits).
size_t tapeCacheSizeForTest();
void tapeCacheClearForTest();
bool tapeCacheContainsForTest(const ExprRef &E);

} // namespace anosy

#endif // ANOSY_COMPILE_COMPILEDEVAL_H
