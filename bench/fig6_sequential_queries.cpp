//===- bench/fig6_sequential_queries.cpp - Reproduces Fig. 6 --------------===//
//
// Fig. 6: the secure advertising system (§6.2). For each powerset size
// k ∈ {1, 3, 5, 7, 10}, 20 experiment instances run a sequence of 50
// nearby queries (random restaurant origins in the 400x400 space, random
// secret per instance) under qpolicy "size > 100"; an instance stops at
// its first policy violation. The table prints, per query index, how many
// instances were still running — the Y values of Fig. 6's survival
// curves — plus the per-k maximum and mean.
//
// Shape targets (asserted in the epilogue): k = 1 dies first; the
// maximum answered grows with k; large k sustains the longest sequences
// (the paper reaches 7 queries at k=1-ish interval precision and 14 at
// k = 10).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "benchlib/Advertising.h"
#include "support/Table.h"

using namespace anosy;

int main(int Argc, char **Argv) {
  AdvertisingConfig Base;
  for (int I = 1; I + 1 < Argc; ++I) {
    if (std::strcmp(Argv[I], "--instances") == 0)
      Base.NumInstances = parseBenchUnsigned("--instances", Argv[I + 1]);
    if (std::strcmp(Argv[I], "--restaurants") == 0)
      Base.NumRestaurants = parseBenchUnsigned("--restaurants", Argv[I + 1]);
  }

  const unsigned Ks[] = {1, 3, 5, 7, 10};
  std::printf("Fig. 6: instances still running after the i-th "
              "declassification query\n(%u instances, %u restaurant "
              "queries, qpolicy: size > %lld)\n\n",
              Base.NumInstances, Base.NumRestaurants,
              static_cast<long long>(Base.PolicyMinSize));

  std::vector<AdvertisingResult> Results;
  unsigned MaxShown = 0;
  for (unsigned K : Ks) {
    AdvertisingConfig Config = Base;
    Config.PowersetSize = K;
    Stopwatch W;
    Results.push_back(runAdvertisingExperiment(Config));
    std::fprintf(stderr, "[k=%u done in %.2fs]\n", K, W.seconds());
    MaxShown = std::max(MaxShown, Results.back().maxAnswered());
  }

  TextTable T;
  T.setHeader({"query #", "k=1", "k=3", "k=5", "k=7", "k=10"});
  for (unsigned Q = 0; Q != MaxShown + 1 && Q != Base.NumRestaurants; ++Q) {
    std::vector<std::string> Row{std::to_string(Q + 1)};
    for (const AdvertisingResult &R : Results)
      Row.push_back(std::to_string(R.Survivors[Q]));
    T.addRow(std::move(Row));
  }
  std::printf("%s\n", T.render().c_str());

  TextTable Summary;
  Summary.setHeader({"k", "max queries answered", "mean"});
  for (size_t I = 0; I != Results.size(); ++I) {
    char Mean[32];
    std::snprintf(Mean, sizeof(Mean), "%.1f", Results[I].meanAnswered());
    Summary.addRow({std::to_string(Ks[I]),
                    std::to_string(Results[I].maxAnswered()), Mean});
  }
  std::printf("%s\n", Summary.render().c_str());

  // Shape assertions.
  bool K1Least =
      Results.front().maxAnswered() <= Results.back().maxAnswered();
  std::printf("shape check: k=1 max (%u) <= k=10 max (%u): %s\n",
              Results.front().maxAnswered(), Results.back().maxAnswered(),
              K1Least ? "ok" : "VIOLATED");
  std::printf("paper reference: max 7 queries at interval precision, 14 at "
              "k=10.\n");
  return K1Least ? 0 : 1;
}
