//===- bench/fig5b_powerset_synthesis.cpp - Reproduces Fig. 5b ------------===//
//
// Fig. 5b: ind. set synthesis and verification with the *powerset of
// intervals* domain at k = 3 (override with --k N). The paper's headline
// observations asserted here in text form after the table:
//   * B1's under-approximation becomes exact (0 / 0 %diff),
//   * B3's False set becomes exact at k = 4,
//   * powersets are never less precise than Fig. 5a's intervals.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Table.h"
#include "synth/Synthesizer.h"
#include "verify/RefinementChecker.h"

using namespace anosy;

static unsigned parseK(int Argc, char **Argv) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], "--k") == 0)
      return parseBenchUnsigned("--k", Argv[I + 1]);
  return 3;
}

int main(int Argc, char **Argv) {
  unsigned Runs = parseRuns(Argc, Argv, 11);
  unsigned K = parseK(Argc, Argv);
  std::printf("Fig. 5b: powerset-of-intervals synthesis, k = %u "
              "(%u runs)\n\n", K, Runs);

  for (ApproxKind Kind : {ApproxKind::Under, ApproxKind::Over}) {
    std::printf("== %s-approximation ==\n", approxKindName(Kind));
    TextTable T;
    T.setHeader({"#", "Size", "% diff.", "Verif. time (s)",
                 "Synth. time (s)"});
    for (const BenchmarkProblem &P : mardzielBenchmarks()) {
      const Schema &S = P.M.schema();
      ExactSizes Exact = exactIndSetSizes(P);

      auto Sy = Synthesizer::create(S, P.query().Body);
      if (!Sy) {
        T.addRow({P.Id, Sy.error().str(), "-", "-", "-"});
        continue;
      }
      auto Sets = Sy->synthesizePowerset(Kind, K);
      if (!Sets) {
        T.addRow({P.Id, Sets.error().str(), "-", "-", "-"});
        continue;
      }

      std::string SynthTime = timeRepeated(Runs, [&Sy, Kind, K]() {
        auto R = Sy->synthesizePowerset(Kind, K);
        (void)R;
      });
      std::string VerifTime = timeRepeated(Runs, [&]() {
        RefinementChecker Checker(S, P.query().Body);
        CertificateBundle B = Checker.checkIndSets(*Sets, Kind);
        if (!B.valid()) {
          std::fprintf(stderr, "UNEXPECTED verification failure on %s\n",
                       P.Id.c_str());
          std::exit(1);
        }
      });

      T.addRow({P.Id,
                sizePair(Sets->TrueSet.size(), Sets->FalseSet.size()),
                percentDiff(Sets->TrueSet.size(), Exact.TrueSize) + " / " +
                    percentDiff(Sets->FalseSet.size(), Exact.FalseSize),
                VerifTime, SynthTime});
    }
    std::printf("%s\n", T.render().c_str());
  }

  // §6.1's B3/k=4 remark: "it can synthesize the exact ind. set with
  // powersets of size 4 (not shown in Figure 5b)".
  const BenchmarkProblem &B3 = benchmarkById("B3");
  auto Sy = Synthesizer::create(B3.M.schema(), B3.query().Body);
  auto K4 = Sy->synthesizePowerset(ApproxKind::Under, 4);
  if (K4) {
    ExactSizes E = exactIndSetSizes(B3);
    std::printf("B3 under-approximation at k=4: %s (exact: %s) -> %s\n",
                sizePair(K4->TrueSet.size(), K4->FalseSet.size()).c_str(),
                sizePair(E.TrueSize, E.FalseSize).c_str(),
                K4->FalseSet.size() == E.FalseSize
                    ? "exact, as §6.1 reports"
                    : "not exact");
  }
  return 0;
}
