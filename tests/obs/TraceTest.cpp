//===- tests/obs/TraceTest.cpp - TraceRecorder / TraceSpan tests ----------===//

#include "obs/Trace.h"
#include "obs/TraceValidate.h"

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

using namespace anosy;
using namespace anosy::obs;

namespace {

/// The checked-in golden file, byte for byte.
std::string readGolden(const std::string &Name) {
  std::ifstream In(std::string(ANOSY_OBS_GOLDEN_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << "missing golden file " << Name;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Preloads \p R with two fixed events (timestamps pinned by hand, so
/// rendering is fully deterministic).
void fillFixedEvents(TraceRecorder &R) {
  TraceEvent E1;
  E1.Name = "anosy.parse.module";
  E1.TsMicros = 10;
  E1.DurMicros = 5;
  E1.Tid = 1;
  E1.Args = {{"bytes", "155"}};
  R.record(E1);
  TraceEvent E2;
  E2.Name = "anosy.synth.interval";
  E2.TsMicros = 20;
  E2.DurMicros = 30;
  E2.Tid = 2;
  E2.Args = {{"kind", jsonQuote("under")}, {"solver_nodes", "2816"}};
  R.record(E2);
}

} // namespace

TEST(Trace, JsonQuoteEscapes) {
  EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(jsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(jsonQuote("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(jsonQuote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(jsonQuote(std::string("ctl\x01", 4)), "\"ctl\\u0001\"");
  // The lint and service renderers quote through it too.
  EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(jsonQuote("x\ny"), "\"x\\ny\"");
  EXPECT_EQ(jsonQuote("cr\rlf"), "\"cr\\rlf\"");
  EXPECT_EQ(jsonQuote("tab\there"), "\"tab\\there\"");
}

TEST(Trace, SpanRecordsOnDestruction) {
  TraceRecorder R;
  {
    TraceSpan S(&R, "anosy.test.span");
    S.arg("n", int64_t(7));
    S.arg("flag", true);
    S.arg("label", "hello");
  }
  ASSERT_EQ(R.eventCount(), 1u);
  TraceEvent E = R.snapshot().front();
  EXPECT_EQ(E.Name, "anosy.test.span");
  ASSERT_EQ(E.Args.size(), 3u);
  EXPECT_EQ(E.Args[0].Value, "7");
  EXPECT_EQ(E.Args[1].Value, "true");
  EXPECT_EQ(E.Args[2].Value, "\"hello\"");
}

TEST(Trace, EndIsIdempotent) {
  TraceRecorder R;
  TraceSpan S(&R, "once");
  S.end();
  S.end();
  EXPECT_EQ(R.eventCount(), 1u);
}

TEST(Trace, DisabledSpanRecordsNothing) {
  TraceSpan S(nullptr, "ghost");
  EXPECT_FALSE(S.active());
  S.arg("ignored", int64_t(1));
  S.end();
  // Nothing to assert on a recorder — the span never had one; active()
  // false is what the ANOSY_OBS_SPAN_ARG guard keys off.
}

TEST(Trace, ClearDropsEventsAndRestartsEpoch) {
  TraceRecorder R;
  fillFixedEvents(R);
  EXPECT_EQ(R.eventCount(), 2u);
  R.clear();
  EXPECT_EQ(R.eventCount(), 0u);
}

TEST(Trace, RenderMatchesGoldenFile) {
  TraceRecorder R;
  fillFixedEvents(R);
  EXPECT_EQ(R.renderChromeJson(), readGolden("trace_basic.json"));
}

TEST(Trace, RenderedJsonValidates) {
  TraceRecorder R;
  fillFixedEvents(R);
  auto Names = validateChromeTrace(R.renderChromeJson());
  ASSERT_TRUE(Names.ok()) << Names.error().str();
  ASSERT_EQ(Names->size(), 2u);
  EXPECT_EQ((*Names)[0], "anosy.parse.module");
  EXPECT_EQ((*Names)[1], "anosy.synth.interval");
}

TEST(Trace, WriteFileRoundTrips) {
  TraceRecorder R;
  fillFixedEvents(R);
  std::string Path = ::testing::TempDir() + "trace_roundtrip.json";
  auto W = R.writeFile(Path);
  ASSERT_TRUE(W.ok()) << W.error().str();
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), R.renderChromeJson());
}
