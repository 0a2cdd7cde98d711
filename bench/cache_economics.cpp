//===- bench/cache_economics.cpp - Cold vs warm registration economics ----===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the cross-process synthesis cache (DESIGN.md §12) on the
/// fig5a suite (Mardziel B1–B5): cold registration (empty cache, full
/// synthesis, then publish) against warm registration (a *fresh*
/// ArtifactCache instance over the primed directory, modeling a new
/// process attaching to a shared cache dir). Prints one row per problem
/// and the suite verdict; the CI cache-coherence job runs it.
///
/// Hard bar (enforced with exit 1):
///   - every warm registration performs zero solver nodes — all the
///     work is the refinement re-verify, which is counted separately in
///     CacheVerifyNodes and never touches the BnB solver;
///   - every warm registration hits the cache on every query;
///   - the suite-median warm latency is under 20% of the suite-median
///     cold latency.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "cache/ArtifactCache.h"
#include "core/AnosySession.h"
#include "support/Stats.h"

#include <dirent.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace anosy;

namespace {

/// Removes every sharded entry under \p Root (two levels deep) and the
/// directory itself, so a "cold" run truly starts from nothing.
void scrubCacheDir(const std::string &Root) {
  if (DIR *D = ::opendir(Root.c_str())) {
    while (struct dirent *E = ::readdir(D)) {
      if (E->d_name[0] == '.')
        continue;
      std::string Shard = Root + "/" + E->d_name;
      if (DIR *SD = ::opendir(Shard.c_str())) {
        while (struct dirent *F = ::readdir(SD))
          if (F->d_name[0] != '.')
            std::remove((Shard + "/" + F->d_name).c_str());
        ::closedir(SD);
      }
      ::rmdir(Shard.c_str());
    }
    ::closedir(D);
    ::rmdir(Root.c_str());
  }
}

/// One timed registration of \p P against \p Cache.
struct Registration {
  bool Created = false;
  double WallSeconds = 0;
  uint64_t SolverNodes = 0;
  uint64_t VerifyNodes = 0;
  uint64_t CacheHits = 0;
};

Registration registerOnce(const BenchmarkProblem &P, ArtifactCache &Cache) {
  Registration R;
  SessionOptions Opt;
  Opt.Cache = &Cache;
  Stopwatch W;
  auto S = AnosySession<Box>::create(P.M, permissivePolicy<Box>(), Opt);
  R.WallSeconds = W.seconds();
  if (!S.ok())
    return R;
  R.Created = true;
  R.SolverNodes = S->stats().SolverNodes;
  R.VerifyNodes = S->stats().CacheVerifyNodes;
  R.CacheHits = S->stats().CacheHits;
  return R;
}

double medianOf(std::vector<double> Xs) {
  std::sort(Xs.begin(), Xs.end());
  return Xs[Xs.size() / 2];
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Runs = parseRuns(Argc, Argv, 5);
  const std::string Root = "anosy_cache_bench.tmp";

  std::vector<double> Colds, Warms;
  bool AllOk = true;
  std::printf("%-16s %8s %12s %12s %8s %14s %14s\n", "problem", "queries",
              "cold_s", "warm_s", "ratio", "cold_nodes", "warm_verify");
  for (const BenchmarkProblem &P : mardzielBenchmarks()) {
    std::string Problem = P.Id + " " + P.Name;
    unsigned Queries = static_cast<unsigned>(P.M.queries().size());

    // Cold: scrub the directory before every run so each one pays full
    // synthesis and the publish path. The last run leaves the directory
    // primed for the warm phase.
    std::vector<double> ColdWalls;
    Registration Cold;
    for (unsigned R = 0; R != Runs; ++R) {
      scrubCacheDir(Root);
      ArtifactCache Cache(Root);
      Cold = registerOnce(P, Cache);
      ColdWalls.push_back(Cold.WallSeconds);
    }
    double ColdSeconds = medianOf(ColdWalls);

    // Warm: a fresh ArtifactCache per run over the primed directory —
    // exactly what a new process sharing the cache dir would see.
    std::vector<double> WarmWalls;
    Registration Warm;
    for (unsigned R = 0; R != Runs; ++R) {
      ArtifactCache Cache(Root);
      Warm = registerOnce(P, Cache);
      WarmWalls.push_back(Warm.WallSeconds);
    }
    double WarmSeconds = medianOf(WarmWalls);
    if (!Cold.Created || !Warm.Created || Warm.SolverNodes != 0 ||
        Warm.CacheHits != Queries) {
      AllOk = false;
      std::fprintf(stderr,
                   "FAIL %s: warm registration must hit on every query with "
                   "zero solver nodes (hits %llu/%u, solver nodes %llu)\n",
                   Problem.c_str(),
                   static_cast<unsigned long long>(Warm.CacheHits), Queries,
                   static_cast<unsigned long long>(Warm.SolverNodes));
    }
    std::printf("%-16s %8u %12.6f %12.6f %8.4f %14llu %14llu\n",
                Problem.c_str(), Queries, ColdSeconds, WarmSeconds,
                ColdSeconds > 0 ? WarmSeconds / ColdSeconds : 0,
                static_cast<unsigned long long>(Cold.SolverNodes),
                static_cast<unsigned long long>(Warm.VerifyNodes));
    Colds.push_back(ColdSeconds);
    Warms.push_back(WarmSeconds);
  }
  scrubCacheDir(Root);

  double SuiteCold = medianOf(Colds);
  double SuiteWarm = medianOf(Warms);
  bool BarPassed = AllOk && SuiteCold > 0 && SuiteWarm < 0.20 * SuiteCold;
  std::printf("suite: cold %.6f s, warm %.6f s, ratio %.4f (bar < 0.20)\n",
              SuiteCold, SuiteWarm,
              SuiteCold > 0 ? SuiteWarm / SuiteCold : 0);
  if (!BarPassed) {
    std::fprintf(stderr, "FAIL: warm registration bar not met\n");
    return 1;
  }
  return 0;
}
