//===- perfbench/tests/HarnessTest.cpp - Tests of the benchmark helpers ---===//
//
// Tail selection, failure accounting, self time, and each output check
// failing when its reference is deliberately broken. Run with
// `python3 perfbench/run.py --self-test`.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Harness.h"

#include "expr/Parser.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace perfbench;
using anosy::Box;
using anosy::Interval;
using anosy::PowerBox;
using anosy::ReasonCode;
using anosy::service::ResponseStatus;
using anosy::service::ServiceResponse;

namespace {

std::vector<double> ramp(size_t N) {
  std::vector<double> V(N);
  std::iota(V.begin(), V.end(), 1.0);
  return V;
}

ServiceResponse response(ResponseStatus S, ReasonCode RC = ReasonCode::None) {
  ServiceResponse R;
  R.Status = S;
  R.Reason = RC;
  return R;
}

ServiceResponse boolAnswer(bool V) {
  ServiceResponse R = response(ResponseStatus::Ok);
  R.HasBool = true;
  R.BoolValue = V;
  return R;
}

anosy::Module module2d(const std::string &Query) {
  auto M = anosy::parseModule(
      "secret S { x: int[0, 9], y: int[0, 9] }\nquery q = " + Query + "\n");
  EXPECT_TRUE(static_cast<bool>(M));
  return M.takeValue();
}

Box box(int64_t XLo, int64_t XHi, int64_t YLo, int64_t YHi) {
  return Box({Interval{XLo, XHi}, Interval{YLo, YHi}});
}

SpanRec span(uint64_t Id, uint64_t Parent, const char *Name, uint64_t Ts,
             uint64_t Dur, uint32_t Tid = 1) {
  SpanRec S;
  S.Id = Id;
  S.Parent = Parent;
  S.Req = 1;
  S.Name = Name;
  S.TsNs = Ts;
  S.DurNs = Dur;
  S.Tid = Tid;
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Tail selection
//===----------------------------------------------------------------------===//

TEST(TailSelection, PicksHighestPercentileWithTenBeyond) {
  auto T = selectTail(ramp(1000));
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->Percentile, 99.0);
  EXPECT_EQ(T->Value, 990.0);
  EXPECT_EQ(T->Samples, 1000u);
  EXPECT_EQ(T->Beyond, 10u);
}

TEST(TailSelection, FallsBackWhenTooFewBeyond) {
  // 999 samples leave only 9 beyond p99, so p90 is the highest eligible.
  auto T = selectTail(ramp(999));
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->Percentile, 90.0);
  EXPECT_EQ(T->Samples, 999u);
  EXPECT_GE(T->Beyond, 10u);
  // 10,000 samples reach p99.9 (exactly 10 beyond it).
  auto Big = selectTail(ramp(10'000));
  ASSERT_TRUE(Big.has_value());
  EXPECT_EQ(Big->Percentile, 99.9);
  EXPECT_EQ(Big->Beyond, 10u);
}

TEST(TailSelection, NoTailForTinySamples) {
  EXPECT_FALSE(selectTail(ramp(5)).has_value());
  EXPECT_FALSE(selectTail({}).has_value());
  auto Median = selectTail(ramp(20));
  ASSERT_TRUE(Median.has_value());
  EXPECT_EQ(Median->Percentile, 50.0);
}

TEST(TailSelection, UnsortedInputAndNearestRank) {
  std::vector<double> V = {5, 1, 4, 2, 3};
  auto T = selectTail(V, 2);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->Percentile, 50.0);
  EXPECT_EQ(T->Value, 3.0);
  EXPECT_EQ(samplesBeyond(100, 90), 10u);
  EXPECT_EQ(samplesBeyond(0, 50), 0u);
}

TEST(WindowedSamples, FasterHalfDropsSlowWindows) {
  Clock::time_point Start = Clock::now();
  WindowedSamples W(Start);
  auto At = [&](double S) {
    return Start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(S));
  };
  // Windows 0 and 2 complete 4 ops at 10 us; window 1 completes 2 at 50 us;
  // window 3 is incomplete and ignored.
  for (double T : {0.1, 0.2, 0.3, 0.4, 2.1, 2.2, 2.3, 2.4})
    W.add(At(T), 10);
  for (double T : {1.1, 1.5})
    W.add(At(T), 50);
  W.add(At(3.5), 99);
  WindowedSamples::Summary S = W.fasterHalf(90);
  EXPECT_EQ(S.WindowsTotal, 3u);
  EXPECT_EQ(S.WindowsUsed, 2u);
  EXPECT_EQ(S.Latency.count(), 8u);
  EXPECT_NEAR(S.P50, 10.0, 10.0 * 0.03);
  EXPECT_NEAR(S.Tail, 10.0, 10.0 * 0.03);
  EXPECT_DOUBLE_EQ(S.OpsPerS, 4.0);
}

TEST(WindowedSamples, HistogramPercentilesStayWithinABucket) {
  LatencyHistogram H;
  for (double V = 1; V <= 1000; ++V)
    H.add(V);
  EXPECT_EQ(H.count(), 1000u);
  EXPECT_NEAR(H.percentile(50), 500, 500 * 0.025);
  EXPECT_NEAR(H.percentile(99), 990, 990 * 0.025);
  LatencyHistogram Empty;
  EXPECT_EQ(Empty.percentile(50), 0.0);
  Empty.merge(H);
  EXPECT_EQ(Empty.count(), 1000u);
}

//===----------------------------------------------------------------------===//
// Failure accounting
//===----------------------------------------------------------------------===//

TEST(FailureAccounting, RefusalsAndStaticRejectionsAreCorrect) {
  ServiceResponse Refused = response(ResponseStatus::Refused);
  ServiceResponse Static =
      response(ResponseStatus::Bottom, ReasonCode::StaticallyRejected);
  EXPECT_EQ(judgeResponse(&Refused, 1), Verdict::Refused);
  EXPECT_EQ(judgeResponse(&Refused, std::nullopt), Verdict::Refused);
  EXPECT_EQ(judgeResponse(&Static, 0), Verdict::StaticallyRejected);
  EXPECT_FALSE(isFailure(Verdict::Refused));
  EXPECT_FALSE(isFailure(Verdict::StaticallyRejected));
  ServiceResponse True = boolAnswer(true);
  EXPECT_EQ(judgeResponse(&True, 1), Verdict::Admitted);
  EXPECT_FALSE(isFailure(Verdict::Admitted));
}

TEST(FailureAccounting, EverythingElseFails) {
  ServiceResponse Uncoded = response(ResponseStatus::Bottom);
  ServiceResponse Deadline =
      response(ResponseStatus::Bottom, ReasonCode::Deadline);
  ServiceResponse Budget = response(ResponseStatus::Bottom, ReasonCode::Budget);
  ServiceResponse Shed =
      response(ResponseStatus::Overloaded, ReasonCode::Shed);
  ServiceResponse Error = response(ResponseStatus::Error);
  ServiceResponse NoValue = response(ResponseStatus::Ok);
  ServiceResponse True = boolAnswer(true);
  EXPECT_EQ(judgeResponse(&Uncoded, 1), Verdict::UncodedBottom);
  EXPECT_EQ(judgeResponse(&Deadline, 1), Verdict::DeadlineBottom);
  EXPECT_EQ(judgeResponse(&Budget, 1), Verdict::OtherBottom);
  EXPECT_EQ(judgeResponse(&Shed, 1), Verdict::Shed);
  EXPECT_EQ(judgeResponse(&Error, 1), Verdict::Error);
  EXPECT_EQ(judgeResponse(&NoValue, 1), Verdict::Mismatch);
  EXPECT_EQ(judgeResponse(&True, std::nullopt), Verdict::Mismatch);
  EXPECT_EQ(judgeResponse(nullptr, 1), Verdict::Unresolved);
  for (Verdict V :
       {Verdict::UncodedBottom, Verdict::DeadlineBottom, Verdict::OtherBottom,
        Verdict::Shed, Verdict::Error, Verdict::Mismatch, Verdict::Unresolved})
    EXPECT_TRUE(isFailure(V)) << verdictName(V);
}

TEST(FailureAccounting, BrokenReferenceIsAMismatch) {
  // The judge's reference is the exact evaluator; flipping it must fail.
  ServiceResponse True = boolAnswer(true);
  EXPECT_EQ(judgeResponse(&True, 0), Verdict::Mismatch);
  ServiceResponse Int = response(ResponseStatus::Ok);
  Int.HasInt = true;
  Int.IntValue = 3;
  EXPECT_EQ(judgeResponse(&Int, 3), Verdict::Admitted);
  EXPECT_EQ(judgeResponse(&Int, 4), Verdict::Mismatch);
}

TEST(FailureAccounting, TallyCountsFailuresAgainstAttempts) {
  Tally T;
  T.add(Verdict::Admitted);
  T.add(Verdict::Refused);
  T.add(Verdict::StaticallyRejected);
  T.add(Verdict::Shed);
  T.add(Verdict::Unresolved);
  EXPECT_EQ(T.attempted(), 5u);
  EXPECT_EQ(T.failed(), 2u);
  EXPECT_EQ(T.of(Verdict::Refused), 1u);
}

//===----------------------------------------------------------------------===//
// Self time
//===----------------------------------------------------------------------===//

TEST(SelfTime, DurationMinusCoveredChildren) {
  // Root [0,100) with overlapping children [10,30) and [20,50) and a child
  // that runs past the root's end, [90,120): they cover 40 + 10 ns.
  std::vector<SpanRec> S = {span(1, 0, "req.x", 0, 100),
                            span(2, 1, "a", 10, 20), span(3, 1, "b", 20, 30),
                            span(4, 1, "c", 90, 30),
                            // A grandchild only reduces its own parent.
                            span(5, 2, "g", 12, 5)};
  std::vector<uint64_t> Self = selfTimes(S);
  EXPECT_EQ(Self[0], 50u);
  EXPECT_EQ(Self[1], 15u);
  EXPECT_EQ(Self[2], 30u);
  EXPECT_EQ(Self[3], 30u);
  EXPECT_EQ(Self[4], 5u);
}

TEST(SelfTime, CoveredUnionClipsToWindow) {
  EXPECT_EQ(coveredNs({{0, 10}, {5, 10}, {30, 5}}, 0, 100), 20u);
  EXPECT_EQ(coveredNs({{0, 10}, {5, 10}, {30, 5}}, 8, 32), 9u);
  EXPECT_EQ(coveredNs({}, 0, 10), 0u);
}

TEST(SelfTime, AggregateKeysByRootAndMeasuresDriver) {
  std::vector<SpanRec> S = {span(1, 0, "req.x", 0, 100),
                            span(2, 1, "layer", 10, 60),
                            span(3, 0, "attr.x", 200, 50),
                            span(4, 3, "layer", 210, 20)};
  LayerTimes L = aggregateSpans(S, 1, {{0, 100}});
  EXPECT_DOUBLE_EQ(L.selfUs("req.x/layer"), 0.06);
  EXPECT_DOUBLE_EQ(L.selfUs("attr.x/layer"), 0.02);
  EXPECT_EQ(L.count("req.x/req.x"), 1u);
  EXPECT_DOUBLE_EQ(L.UncoveredFrac, 0.4);
  EXPECT_DOUBLE_EQ(L.DriverBusyFrac, 0.4);
}

TEST(SelfTime, SpanLogRoundTripsThroughTheRecorder) {
  SpanLog Log(10);
  uint64_t Req = Log.newRequest();
  {
    Span Root(&Log, "req.x", Req);
    Span Child(&Log, "layer", Req, Root.id());
  }
  std::vector<SpanRec> S = Log.spans();
  ASSERT_EQ(S.size(), 2u);
  EXPECT_EQ(S[0].Name, "layer");
  EXPECT_EQ(S[0].Parent, S[1].Id);
  EXPECT_EQ(S[1].Parent, 0u);
  EXPECT_EQ(S[0].Req, Req);
  EXPECT_LE(S[0].DurNs, S[1].DurNs);
  RunResult R;
  writeValidatedTrace(Log, ::testing::TempDir() + "/perfbench-trace.json", R);
  EXPECT_TRUE(R.Correct);
}

//===----------------------------------------------------------------------===//
// Output checks fail on broken references
//===----------------------------------------------------------------------===//

TEST(OutputChecks, UnderSizesAgainstExpectedFloor) {
  auto E = parseExpectedSizes("# c\nB1 interval 259 9620\nB1 k3 259 13246\n");
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(checkUnderSizes(*E, "B1_interval", 259, 9620), "");
  EXPECT_EQ(checkUnderSizes(*E, "B1_k3", 259, 13300), "");
  EXPECT_NE(checkUnderSizes(*E, "B1_k3", 259, 13000), "");
  EXPECT_NE(checkUnderSizes(*E, "B2_k3", 1, 1), "");
  // A broken reference (a floor above what synthesis reaches) fails.
  auto Broken = parseExpectedSizes("B1 interval 260 9620\n");
  ASSERT_TRUE(static_cast<bool>(Broken));
  EXPECT_NE(checkUnderSizes(*Broken, "B1_interval", 259, 9620), "");
  EXPECT_FALSE(static_cast<bool>(parseExpectedSizes("B1 interval 1\n")));
  EXPECT_FALSE(static_cast<bool>(parseExpectedSizes("B1 k9 1 2\n")));
}

TEST(OutputChecks, ShippedExpectedFileCoversEveryPair) {
  const char *Text =
#include "ExpectedSizes.inc"
      ;
  auto E = parseExpectedSizes(Text);
  ASSERT_TRUE(static_cast<bool>(E));
  for (const std::string &K : suitePairKeys())
    EXPECT_TRUE(E->count(K)) << K;
}

TEST(OutputChecks, SampledBoxesUseTheTreeWalk) {
  anosy::Module M = module2d("x >= 5");
  const anosy::Expr &Q = *M.queries().front().Body;
  anosy::Rng R(7);
  EXPECT_EQ(boxSampleViolations(Q, {box(5, 9, 0, 9)}, {}, true, R), 0u);
  EXPECT_EQ(boxSampleViolations(Q, {box(0, 4, 0, 9)}, {}, false, R), 0u);
  // Broken: a box that straddles the boundary, or the wrong expected answer.
  EXPECT_GT(boxSampleViolations(Q, {box(3, 9, 0, 9)}, {}, true, R), 0u);
  EXPECT_GT(boxSampleViolations(Q, {box(5, 9, 0, 9)}, {}, false, R), 0u);
  // Excluded points are not probed.
  EXPECT_EQ(boxSampleViolations(Q, {box(3, 9, 0, 9)}, {box(3, 4, 0, 9)}, true,
                                R),
            0u);
}

TEST(OutputChecks, PosteriorMustStayInsideExactKnowledge) {
  anosy::Module M = module2d("x >= 5");
  const anosy::Expr &Q = *M.queries().front().Body;
  ExactKnowledge K(M.schema());
  EXPECT_EQ(K.size(), 100);
  EXPECT_EQ(K.split(Q), std::make_pair(int64_t(50), int64_t(50)));
  ExactKnowledge Broken = K;
  K.refine(Q, true);
  EXPECT_EQ(K.size(), 50);
  PowerBox Inside(2, {box(6, 9, 2, 7)}, {});
  EXPECT_EQ(K.outsideCount(Inside), 0u);
  PowerBox Straddling(2, {box(4, 9, 0, 0)}, {});
  EXPECT_EQ(K.outsideCount(Straddling), 1u);
  // Broken reference: knowledge refined with the wrong answer rejects a
  // sound posterior.
  Broken.refine(Q, false);
  EXPECT_GT(Broken.outsideCount(Inside), 0u);
}
