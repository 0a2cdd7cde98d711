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

#ifndef ANOSY_BENCH_BENCHCOMMON_H
#define ANOSY_BENCH_BENCHCOMMON_H

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

/// \p NodesOut, when non-null, receives the solver nodes the two counts
/// charged — the numerator of the shared nodes/sec throughput fields.
inline ExactSizes exactIndSetSizes(const BenchmarkProblem &P,
                                   uint64_t *NodesOut = nullptr) {
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
  if (NodesOut != nullptr)
    *NodesOut = BT.used() + BF.used();
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

/// Runs \p Body \p Runs times and reports median ± SIQR seconds. The
/// numeric median lands in \p MedianOut (when non-null) so harnesses can
/// derive throughput fields from the same timing pass they display.
inline std::string timeRepeated(unsigned Runs,
                                const std::function<void()> &Body,
                                double *MedianOut = nullptr) {
  std::vector<double> Samples;
  for (unsigned I = 0; I != Runs; ++I) {
    Stopwatch W;
    Body();
    Samples.push_back(W.seconds());
  }
  if (MedianOut != nullptr) {
    std::vector<double> Sorted = Samples;
    std::sort(Sorted.begin(), Sorted.end());
    *MedianOut = Sorted[Sorted.size() / 2];
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
/// run and publishing it as the median of eleven.
inline unsigned parseBenchUnsigned(const char *Flag, const char *Value) {
  auto V = parseUnsigned(Value);
  if (!V) {
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

/// One throughput measurement in the shared vocabulary every harness
/// emits: solver nodes per second for search-shaped work, predicate
/// evaluations per second for probe-shaped work. Zero means "not
/// measured for this sample" and renders as null, never as a fake 0.
struct ThroughputSample {
  std::string Name;     ///< Benchmark or workload name.
  std::string Variant;  ///< e.g. "tree_walk", "tape".
  double Seconds = 0;   ///< Median wall seconds for the sample.
  uint64_t Nodes = 0;   ///< Solver nodes charged during the sample.
  uint64_t Evals = 0;   ///< Predicate box-evaluations performed.

  double nodesPerSec() const { return Seconds > 0 ? Nodes / Seconds : 0; }
  double evalsPerSec() const { return Seconds > 0 ? Evals / Seconds : 0; }
};

/// Appends one sample as a JSON object line (comma-separated by the
/// caller). Shared by BENCH_compiled and the fig5a/fig5b/table1
/// throughput sections so the fields stay comparable across files.
inline void fprintThroughputJson(std::FILE *F, const ThroughputSample &S,
                                 bool Last) {
  std::fprintf(F,
               "    {\"name\": \"%s\", \"variant\": \"%s\", "
               "\"seconds\": %.6f, ",
               S.Name.c_str(), S.Variant.c_str(), S.Seconds);
  if (S.Nodes != 0)
    std::fprintf(F, "\"nodes\": %llu, \"nodes_per_sec\": %.0f, ",
                 static_cast<unsigned long long>(S.Nodes), S.nodesPerSec());
  else
    std::fprintf(F, "\"nodes\": null, \"nodes_per_sec\": null, ");
  if (S.Evals != 0)
    std::fprintf(F, "\"evals\": %llu, \"evals_per_sec\": %.0f}%s\n",
                 static_cast<unsigned long long>(S.Evals), S.evalsPerSec(),
                 Last ? "" : ",");
  else
    std::fprintf(F, "\"evals\": null, \"evals_per_sec\": null}%s\n",
                 Last ? "" : ",");
}

/// Writes a whole throughput report: {"samples": [...]}  with an
/// optional free-form preamble of extra top-level fields.
inline void writeThroughputJson(const std::string &Path,
                                const std::vector<ThroughputSample> &Samples,
                                const std::string &ExtraTopLevel = "") {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (F == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return;
  }
  std::fprintf(F, "{\n");
  if (!ExtraTopLevel.empty())
    std::fprintf(F, "%s", ExtraTopLevel.c_str());
  std::fprintf(F, "  \"samples\": [\n");
  for (size_t I = 0; I != Samples.size(); ++I)
    fprintThroughputJson(F, Samples[I], I + 1 == Samples.size());
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
}

} // namespace anosy

#endif // ANOSY_BENCH_BENCHCOMMON_H
