//===- tests/obs/ObsPipelineTest.cpp - Observability cost contract --------===//
//
// The §8 cost contract (obs/Obs.h): instrumentation only *reads* what the
// pipeline already computes. Synthesized artifacts, node counts, and
// verification verdicts must be bit-identical with tracing off, with
// tracing on, and from one traced run to the next — and with the runtime
// switch off (the default) a full pipeline run must leave the global
// recorder and registry completely untouched, which is the mechanism
// behind the ≤1% disabled-overhead bound that bench/observability_overhead
// pins.
//
//===----------------------------------------------------------------------===//

#include "benchlib/Problems.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Trace.h"
#include "synth/Synthesizer.h"
#include "verify/RefinementChecker.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

/// Everything one pipeline run produces that the contract pins.
struct RunResult {
  std::string TrueSet;
  std::string FalseSet;
  uint64_t SolverNodes = 0;
  unsigned Boxes = 0;
  bool Valid = false;
};

/// Synthesize + verify one problem's query at the interval domain.
RunResult runPipeline(const BenchmarkProblem &P) {
  auto Sy = Synthesizer::create(P.M.schema(), P.query().Body);
  EXPECT_TRUE(Sy.ok()) << Sy.error().str();
  SynthStats Stats;
  auto Sets = Sy->synthesizeInterval(ApproxKind::Under, &Stats);
  EXPECT_TRUE(Sets.ok()) << Sets.error().str();
  RunResult R;
  R.TrueSet = Sets->TrueSet.str();
  R.FalseSet = Sets->FalseSet.str();
  R.SolverNodes = Stats.SolverNodes;
  R.Boxes = Stats.BoxesSynthesized;
  R.Valid = RefinementChecker(P.M.schema(), P.query().Body)
                .checkIndSets(*Sets, ApproxKind::Under)
                .valid();
  return R;
}

void expectSameResult(const RunResult &A, const RunResult &B) {
  EXPECT_EQ(A.TrueSet, B.TrueSet);
  EXPECT_EQ(A.FalseSet, B.FalseSet);
  EXPECT_EQ(A.SolverNodes, B.SolverNodes);
  EXPECT_EQ(A.Boxes, B.Boxes);
  EXPECT_EQ(A.Valid, B.Valid);
}

} // namespace

TEST(ObsPipeline, DisabledRunTouchesNoGlobalState) {
  obs::ScopedEnable Off(false);
  obs::TraceRecorder::global().clear();
  std::string MetricsBefore = obs::MetricsRegistry::global().renderPrometheus();

  RunResult R = runPipeline(nearbyProblem());
  EXPECT_TRUE(R.Valid);

  EXPECT_EQ(obs::TraceRecorder::global().eventCount(), 0u);
  EXPECT_EQ(obs::MetricsRegistry::global().renderPrometheus(), MetricsBefore);
}

TEST(ObsPipeline, ArtifactsBitIdenticalTracingOnAndOff) {
  for (const char *Id : {"nearby", "B1"}) {
    const BenchmarkProblem &P =
        std::string(Id) == "nearby" ? nearbyProblem() : benchmarkById(Id);

    RunResult Off;
    {
      obs::ScopedEnable Disable(false);
      Off = runPipeline(P);
    }
    RunResult On;
    {
      obs::ScopedEnable Enable(true);
      obs::TraceRecorder::global().clear();
      On = runPipeline(P);
      // Tracing observed the run: spans exist — and did not perturb it.
      EXPECT_GT(obs::TraceRecorder::global().eventCount(), 0u);
    }
    expectSameResult(Off, On);
  }
  obs::TraceRecorder::global().clear();
  obs::MetricsRegistry::global().reset();
}

TEST(ObsPipeline, TracedRunReproducesExactly) {
  // The serial engine is deterministic: two traced runs agree on the
  // artifacts and on every count, solver nodes included.
  const BenchmarkProblem &P = nearbyProblem();
  obs::ScopedEnable Enable(true);
  obs::TraceRecorder::global().clear();

  RunResult First = runPipeline(P);
  RunResult Again = runPipeline(P);
  expectSameResult(First, Again);
  EXPECT_GT(First.SolverNodes, 0u);

  obs::TraceRecorder::global().clear();
  obs::MetricsRegistry::global().reset();
}

TEST(ObsPipeline, TracedRunRecordsSynthAndVerifySpans) {
  obs::ScopedEnable Enable(true);
  obs::TraceRecorder::global().clear();
  RunResult R = runPipeline(nearbyProblem());
  EXPECT_TRUE(R.Valid);

  bool SawSynth = false, SawVerify = false;
  for (const obs::TraceEvent &E : obs::TraceRecorder::global().snapshot()) {
    SawSynth |= E.Name == "anosy.synth.interval";
    SawVerify |= E.Name == "anosy.verify.indsets";
  }
  EXPECT_TRUE(SawSynth);
  EXPECT_TRUE(SawVerify);

  obs::TraceRecorder::global().clear();
  obs::MetricsRegistry::global().reset();
}
