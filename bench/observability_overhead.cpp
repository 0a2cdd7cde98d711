//===- bench/observability_overhead.cpp - Obs disabled-path cost ----------===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the observability cost contract (DESIGN.md §8, obs/Obs.h): with
/// the runtime switch off — the default — instrumentation must cost at
/// most 1% of fig5a-style interval synthesis. The pin is computed from
/// the mechanism, not from run-to-run wall-clock deltas (which drown a
/// sub-1% effect in scheduler noise):
///
///   1. The disabled-path cost of one instrumentation site (a relaxed
///      atomic load and a branch) is measured directly, in a tight loop.
///   2. The number of site activations per synthesis run is bounded from
///      an *enabled* run's span count: sites are phase-grained, and every
///      phase activates well under 10 sites (one span, a few arguments, a
///      couple of counters, one histogram).
///   3. disabled overhead <= activations x site cost / synthesis time.
///
/// Also reports the measured enabled/disabled medians per problem (for
/// reference; tracing itself is phase-grained and cheap). Exits 1 when
/// any problem breaks the bound or its on/off node counts differ; ctest
/// runs it with `--runs 3` as bench_observability_overhead.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "obs/Instrument.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Trace.h"
#include "synth/Synthesizer.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace anosy;

namespace {

/// One fig5a-style pass: interval under-synthesis of the problem's query.
uint64_t synthOnce(const BenchmarkProblem &P) {
  SynthOptions SOpt;
  auto Sy = Synthesizer::create(P.M.schema(), P.query().Body, SOpt);
  if (!Sy) {
    std::fprintf(stderr, "%s: %s\n", P.Id.c_str(), Sy.error().str().c_str());
    return 0;
  }
  SynthStats Stats;
  if (auto R = Sy->synthesizeInterval(ApproxKind::Under, &Stats); !R)
    std::fprintf(stderr, "%s: %s\n", P.Id.c_str(), R.error().str().c_str());
  return Stats.SolverNodes;
}

/// Nanoseconds one disabled instrumentation site costs: the relaxed
/// enabled() load plus its branch, measured over a long loop.
double disabledSiteCostNs() {
  obs::ScopedEnable Off(false);
  constexpr uint64_t Iters = 8'000'000;
  Stopwatch W;
  for (uint64_t I = 0; I != Iters; ++I)
    ANOSY_OBS_COUNT("anosy_bench_disabled_probe_total",
                    "Disabled-path cost probe (never incremented)", 1);
  return W.seconds() * 1e9 / static_cast<double>(Iters);
}

struct Sample {
  std::string Id;
  double OffSeconds = 0;  ///< median, runtime switch off (the default)
  double OnSeconds = 0;   ///< median, tracing + metrics live
  uint64_t SolverNodesOff = 0;
  uint64_t SolverNodesOn = 0;
  size_t SpansPerRun = 0;
  double OverheadFraction = 0; ///< bounded disabled-path overhead
};

} // namespace

int main(int Argc, char **Argv) {
  unsigned Runs = parseRuns(Argc, Argv, 5);

  std::vector<const BenchmarkProblem *> Problems;
  Problems.push_back(&nearbyProblem());
  for (const BenchmarkProblem &P : mardzielBenchmarks())
    Problems.push_back(&P);

  double SiteNs = disabledSiteCostNs();
  std::printf("disabled site cost: %.2f ns\n", SiteNs);

  bool AllWithinBound = true;
  bool AllDeterministic = true;
  for (const BenchmarkProblem *P : Problems) {
    Sample S;
    S.Id = P->Id.empty() ? std::string("nearby") : P->Id;

    {
      obs::ScopedEnable Off(false);
      S.SolverNodesOff = synthOnce(*P);
      S.OffSeconds = medianSeconds(Runs, [&] { synthOnce(*P); });
    }
    {
      obs::ScopedEnable On(true);
      obs::TraceRecorder::global().clear();
      S.SolverNodesOn = synthOnce(*P);
      S.SpansPerRun = obs::TraceRecorder::global().eventCount();
      S.OnSeconds = medianSeconds(Runs, [&] { synthOnce(*P); });
      obs::TraceRecorder::global().clear();
      obs::MetricsRegistry::global().reset();
    }

    // Mechanism bound: <= 10 site activations per recorded span (one
    // span + its arguments + a couple of counters + one histogram), each
    // costing the disabled check.
    double Activations = 10.0 * static_cast<double>(
                                    S.SpansPerRun == 0 ? 1 : S.SpansPerRun);
    S.OverheadFraction =
        S.OffSeconds > 0 ? Activations * SiteNs * 1e-9 / S.OffSeconds : 0;
    AllWithinBound = AllWithinBound && S.OverheadFraction <= 0.01;
    AllDeterministic =
        AllDeterministic && S.SolverNodesOff == S.SolverNodesOn;

    std::printf("%-8s off %.6fs  on %.6fs  spans/run %zu  "
                "disabled overhead %.5f%%  nodes %llu/%llu\n",
                S.Id.c_str(), S.OffSeconds, S.OnSeconds, S.SpansPerRun,
                S.OverheadFraction * 100.0,
                static_cast<unsigned long long>(S.SolverNodesOff),
                static_cast<unsigned long long>(S.SolverNodesOn));
  }

  std::printf("all within the 1%% bound: %s; node counts identical on/off: "
              "%s\n",
              AllWithinBound ? "yes" : "NO", AllDeterministic ? "yes" : "NO");
  return AllWithinBound && AllDeterministic ? 0 : 1;
}
