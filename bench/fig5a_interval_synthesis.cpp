//===- bench/fig5a_interval_synthesis.cpp - Reproduces Fig. 5a ------------===//
//
// Fig. 5a: ind. set synthesis and posterior verification with the
// *interval* abstract domain. For every benchmark and both approximation
// kinds it reports the synthesized sizes (True/False), the % difference
// from the exact ind. sets (Table 1), and verification/synthesis times as
// median ± semi-interquartile over repeated runs (11 by default, like the
// paper; override with --runs N).
//
// Expected divergences from the paper's absolute numbers are discussed in
// EXPERIMENTS.md: our synthesis engine is exact and deterministic, so the
// under sizes are >= and the over sizes <= the paper's Z3-with-timeout
// results; the orderings (under <= exact <= over, B2 relational slowest)
// are the reproduced shape.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Table.h"
#include "synth/Synthesizer.h"
#include "verify/RefinementChecker.h"

#include <map>

using namespace anosy;

int main(int Argc, char **Argv) {
  unsigned Runs = parseRuns(Argc, Argv, 11);
  std::printf("Fig. 5a: interval-domain synthesis and verification "
              "(%u runs)\n\n", Runs);

  // Shared throughput fields (BenchCommon.h): per-benchmark synthesis
  // nodes/sec, summed over both approximation kinds, comparable with
  // BENCH_compiled.json's tape rows.
  std::map<std::string, ThroughputSample> Throughput;

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
      // One reference synthesis for the sizes (and the node count).
      SynthStats Stats;
      auto Sets = Sy->synthesizeInterval(Kind, &Stats);
      if (!Sets) {
        T.addRow({P.Id, Sets.error().str(), "-", "-", "-"});
        continue;
      }

      double SynthSeconds = 0;
      std::string SynthTime = timeRepeated(Runs, [&Sy, Kind]() {
        auto R = Sy->synthesizeInterval(Kind);
        (void)R;
      }, &SynthSeconds);
      ThroughputSample &TS = Throughput[P.Id];
      TS.Name = P.Id;
      TS.Variant = "tape";
      TS.Seconds += SynthSeconds;
      TS.Nodes += Stats.SolverNodes;
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
                sizePair(Sets->TrueSet.volume(), Sets->FalseSet.volume()),
                percentDiff(Sets->TrueSet.volume(), Exact.TrueSize) + " / " +
                    percentDiff(Sets->FalseSet.volume(), Exact.FalseSize),
                VerifTime, SynthTime});
    }
    std::printf("%s\n", T.render().c_str());
  }

  {
    std::vector<ThroughputSample> Samples;
    for (const auto &KV : Throughput)
      Samples.push_back(KV.second);
    writeThroughputJson("BENCH_throughput_fig5a.json", Samples);
    std::printf("wrote BENCH_throughput_fig5a.json\n");
  }
  return 0;
}
