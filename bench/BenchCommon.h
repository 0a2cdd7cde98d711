//===- bench/BenchCommon.h - Shared harness helpers -------------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure harnesses: exact ind. set sizes,
/// the paper's %-difference metric, and repeat-run timing in the paper's
/// median ± semi-interquartile protocol.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_BENCHCOMMON_H
#define ANOSY_BENCHCOMMON_H

#include "benchlib/Problems.h"
#include "solver/ModelCounter.h"
#include "support/ParseNum.h"
#include "support/Stats.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

namespace anosy {

/// Exact ind. set sizes (True/False) of a problem, via model counting.
struct ExactSizes {
  BigCount TrueSize;
  BigCount FalseSize;
};

inline ExactSizes exactIndSetSizes(const BenchmarkProblem &P) {
  Box Top = Box::top(P.M.schema());
  PredicateRef Q = exprPredicate(P.query().Body);
  SolverBudget BT, BF;
  CountResult T = countSat(*Q, Top, BT);
  CountResult F = countSat(*notPredicate(Q), Top, BF);
  if (T.Exhausted || F.Exhausted) {
    std::fprintf(stderr, "exact counting exhausted its budget on %s\n",
                 P.Id.c_str());
    std::exit(1);
  }
  return {T.Count, F.Count};
}

/// The paper's "% diff." column: percentage difference between the
/// approximated and the exact ind. set size (lower is better; 0 = exact).
inline std::string percentDiff(const BigCount &Approx,
                               const BigCount &Exact) {
  if (Exact.isZero())
    return Approx.isZero() ? "0" : "inf";
  double D = (Approx.toDouble() - Exact.toDouble()) / Exact.toDouble();
  if (D < 0)
    D = -D;
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.0f", D * 100.0);
  return Buf;
}

/// "x / y" cell in the paper's scientific notation.
inline std::string sizePair(const BigCount &T, const BigCount &F) {
  return T.sci() + " / " + F.sci();
}

/// Runs \p Body \p Runs times and reports median ± SIQR seconds.
inline std::string timeRepeated(unsigned Runs,
                                const std::function<void()> &Body) {
  std::vector<double> Samples;
  for (unsigned I = 0; I != Runs; ++I) {
    Stopwatch W;
    Body();
    Samples.push_back(W.seconds());
  }
  return medianPlusMinus(Samples, 3);
}

/// Runs \p Body \p Runs times and reports the median in seconds.
inline double medianSeconds(unsigned Runs, const std::function<void()> &Body) {
  std::vector<double> Samples;
  for (unsigned I = 0; I != Runs; ++I) {
    Stopwatch W;
    Body();
    Samples.push_back(W.seconds());
  }
  std::sort(Samples.begin(), Samples.end());
  return Samples[Samples.size() / 2];
}

/// Strict harness-flag value parsing (support/ParseNum.h): a mistyped
/// `--runs 1O` aborts the harness instead of silently benchmarking one
/// run and publishing it as the median of eleven. Zero is rejected too:
/// every flag parsed this way counts something a run needs at least one
/// of (repetitions, boxes, instances, queries).
inline unsigned parseBenchUnsigned(const char *Flag, const char *Value) {
  auto V = parseUnsigned(Value);
  if (!V || *V == 0) {
    std::fprintf(stderr, "error: invalid value for %s: '%s'\n", Flag, Value);
    std::exit(2);
  }
  return *V;
}

/// Parses a "--runs N" override (the paper uses 11; smaller values make
/// quick local runs cheaper).
inline unsigned parseRuns(int Argc, char **Argv, unsigned Default) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], "--runs") == 0)
      return parseBenchUnsigned("--runs", Argv[I + 1]);
  return Default;
}

} // namespace anosy

#endif // ANOSY_BENCHCOMMON_H
