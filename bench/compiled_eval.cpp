//===- bench/compiled_eval.cpp - Tape vs tree-walk throughput -------------===//
//
// Pins the compiled solver hot path (src/compile, DESIGN.md) against the
// tree-walking evaluator it replaces, on the paper's own workloads:
//
//   * fig5a: interval synthesis (under + over), tape nodes/sec,
//   * fig5b: powerset synthesis at k = 3, tape nodes/sec,
//   * table1: exact ind. set counting, solver nodes/sec, tree walk vs
//     tape,
//   * probe: raw per-box query evaluation, evals/sec, tree walk vs tape.
//
// The table1 and probe workloads are also identity checks: the tape is
// bit-identical to the tree walk, so both evaluators must produce equal
// counts, equal node counts and equal Tribool answers, and this harness
// exits nonzero if they do not. Synthesis always runs on the evaluator
// the solver picks (compile/CompiledEval.h); its tape/tree-walk identity
// is pinned by the decider differential in tests/fuzz/RandomQueryTest.cpp.
// ctest runs it with `--runs 1` as bench_compiled_eval.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "compile/Tape.h"
#include "solver/RangeEval.h"
#include "support/Rng.h"
#include "synth/Synthesizer.h"

using namespace anosy;

namespace {

/// Runs both interval synthesis arms; returns the solver nodes charged.
uint64_t runInterval(const Synthesizer &Sy) {
  SynthStats SU, SO;
  auto U = Sy.synthesizeInterval(ApproxKind::Under, &SU);
  auto O = Sy.synthesizeInterval(ApproxKind::Over, &SO);
  if (!U || !O) {
    std::fprintf(stderr, "interval synthesis failed\n");
    std::exit(1);
  }
  return SU.SolverNodes + SO.SolverNodes;
}

/// Runs both powerset synthesis arms; returns the solver nodes charged.
uint64_t runPowerset(const Synthesizer &Sy, unsigned K) {
  SynthStats SU, SO;
  auto U = Sy.synthesizePowerset(ApproxKind::Under, K, &SU);
  auto O = Sy.synthesizePowerset(ApproxKind::Over, K, &SO);
  if (!U || !O) {
    std::fprintf(stderr, "powerset synthesis failed\n");
    std::exit(1);
  }
  return SU.SolverNodes + SO.SolverNodes;
}

struct CountRun {
  BigCount TrueSize, FalseSize;
  uint64_t Nodes = 0;
};

/// Counts both responses of \p P's query with \p Tape (null = tree walk).
CountRun runCount(const BenchmarkProblem &P, const TapeRef &Tape) {
  CountRun R;
  Box Top = Box::top(P.M.schema());
  PredicateRef Q = exprPredicate(P.query().Body, Tape);
  SolverBudget BT, BF;
  CountResult T = countSat(*Q, Top, BT);
  CountResult F = countSat(*notPredicate(Q), Top, BF);
  if (T.Exhausted || F.Exhausted) {
    std::fprintf(stderr, "counting exhausted its budget on %s\n",
                 P.Id.c_str());
    std::exit(1);
  }
  R.TrueSize = T.Count;
  R.FalseSize = F.Count;
  R.Nodes = BT.used() + BF.used();
  return R;
}

/// Random subboxes of the schema's space: the probe workload. Mixes full
/// dimensions with narrow slices so the query's Tribool answer varies.
std::vector<Box> probeBoxes(const Schema &S, size_t N) {
  Box Top = Box::top(S);
  Rng R(/*Seed=*/0xC0FFEEull);
  std::vector<Box> Boxes;
  Boxes.reserve(N);
  for (size_t I = 0; I != N; ++I) {
    std::vector<Interval> Dims;
    Dims.reserve(Top.arity());
    for (unsigned D = 0; D != Top.arity(); ++D) {
      Interval Full = Top.dim(D);
      if (R.range(0, 3) == 0) {
        Dims.push_back(Full);
        continue;
      }
      int64_t A = R.range(Full.Lo, Full.Hi), B = R.range(Full.Lo, Full.Hi);
      Dims.push_back({std::min(A, B), std::max(A, B)});
    }
    Boxes.emplace_back(std::move(Dims));
  }
  return Boxes;
}

/// \p N events over \p Seconds as a rate; 0 when the clock read nothing.
double perSec(uint64_t N, double Seconds) {
  return Seconds > 0 ? static_cast<double>(N) / Seconds : 0;
}

void dieOnMismatch(const char *What, const std::string &Id, bool Equal) {
  if (!Equal) {
    std::fprintf(stderr, "TAPE/TREE-WALK MISMATCH (%s) on %s\n", What,
                 Id.c_str());
    std::exit(1);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Runs = parseRuns(Argc, Argv, 5);
  std::printf("Compiled evaluator throughput: tape vs tree walk (%u runs)\n\n",
              Runs);

  // -- Search workloads: fig5a / fig5b on the tape, table1 both ways. ---
  std::printf("== solver nodes/sec (fig5a interval, fig5b powerset k=3, "
              "table1 counting) ==\n");
  for (const BenchmarkProblem &P : mardzielBenchmarks()) {
    auto Sy = Synthesizer::create(P.M.schema(), P.query().Body);
    TapeRef T = Tape::compile(*P.query().Body);
    if (!Sy || !T)
      continue;

    // fig5a / fig5b. The nodes are deterministic, so they come from one
    // reference run.
    uint64_t Fig5aNodes = runInterval(*Sy);
    double Fig5aSeconds = medianSeconds(Runs, [&] { runInterval(*Sy); });
    uint64_t Fig5bNodes = runPowerset(*Sy, 3);
    double Fig5bSeconds = medianSeconds(Runs, [&] { runPowerset(*Sy, 3); });
    std::printf("  %s fig5a: tape %.0f nodes/s; fig5b: tape %.0f nodes/s\n",
                P.Id.c_str(), perSec(Fig5aNodes, Fig5aSeconds),
                perSec(Fig5bNodes, Fig5bSeconds));

    // table1 exact counting, once per evaluator.
    CountRun WantC = runCount(P, nullptr);
    CountRun GotC = runCount(P, T);
    dieOnMismatch("table1 counts", P.Id,
                  WantC.TrueSize == GotC.TrueSize &&
                      WantC.FalseSize == GotC.FalseSize &&
                      WantC.Nodes == GotC.Nodes);
    double WalkSeconds = medianSeconds(Runs, [&] { runCount(P, nullptr); });
    double TapeSeconds = medianSeconds(Runs, [&] { runCount(P, T); });
    std::printf("  %s table1: tree walk %.0f nodes/s, tape %.0f nodes/s "
                "(%.2fx)\n",
                P.Id.c_str(), perSec(WantC.Nodes, WalkSeconds),
                perSec(GotC.Nodes, TapeSeconds),
                TapeSeconds > 0 ? WalkSeconds / TapeSeconds : 0.0);
  }

  // -- Probe workload: raw per-box evaluation, evals/sec. ---------------
  std::printf("\n== probe evals/sec (tree walk vs tape) ==\n");
  const size_t ProbeBoxes = 4096;
  const size_t ProbeIters = 32;
  for (const BenchmarkProblem &P : mardzielBenchmarks()) {
    ExprRef Q = P.query().Body;
    TapeRef T = Tape::compile(*Q);
    if (!T) {
      std::fprintf(stderr, "query failed to compile on %s\n", P.Id.c_str());
      return 1;
    }
    std::vector<Box> Boxes = probeBoxes(P.M.schema(), ProbeBoxes);
    TapeScratch Scratch;
    const uint64_t Evals = ProbeBoxes * ProbeIters;

    // The evaluators must agree before their clocks matter.
    for (const Box &B : Boxes)
      dieOnMismatch("probe", P.Id, T->run(B, Scratch) == evalTribool(*Q, B));

    auto WalkAll = [&] {
      for (size_t It = 0; It != ProbeIters; ++It)
        for (const Box &B : Boxes)
          (void)evalTribool(*Q, B);
    };
    auto TapeAll = [&] {
      for (size_t It = 0; It != ProbeIters; ++It)
        for (const Box &B : Boxes)
          (void)T->run(B, Scratch);
    };
    double WalkSeconds = medianSeconds(Runs, WalkAll);
    double TapeSeconds = medianSeconds(Runs, TapeAll);
    std::printf("  %s: tree walk %.2fM/s, tape %.2fM/s (%.2fx)\n",
                P.Id.c_str(), perSec(Evals, WalkSeconds) / 1e6,
                perSec(Evals, TapeSeconds) / 1e6,
                TapeSeconds > 0 ? WalkSeconds / TapeSeconds : 0.0);
  }
  return 0;
}
