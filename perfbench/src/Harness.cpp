//===- perfbench/src/Harness.cpp - Repository benchmark harness -----------===//

#include "Harness.h"

#include "obs/Obs.h"
#include "obs/TraceValidate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

using namespace perfbench;
using anosy::ReasonCode;
using anosy::service::ResponseStatus;
using anosy::service::ServiceResponse;

namespace {

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

std::string quote(const std::string &S) { return anosy::obs::jsonQuote(S); }

} // namespace

void RunResult::problem(const std::string &Note) {
  Correct = false;
  if (Problems.size() < 32)
    Problems.push_back(Note);
}

std::string perfbench::renderResultLine(const RunResult &R) {
  std::string Out = "{\"correct\": ";
  Out += R.Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    if (I != 0)
      Out += ", ";
    Out += quote(M.Name) + ": {\"value\": " +
           num(std::isfinite(M.Value) ? M.Value : 0.0) +
           ", \"unit\": " + quote(M.Unit) + "}";
  }
  Out += "}}";
  return Out;
}

std::string perfbench::renderDetail(const RunResult &R, const RunArgs &A) {
  std::string Out = "{\"workload\": " + quote(A.Workload) +
                    ", \"seed\": " + std::to_string(A.Seed) +
                    ", \"trace\": " + (A.Trace ? "1" : "0");
  for (const auto &[K, V] : R.Detail)
    Out += ", " + quote(K) + ": " + V;
  Out += ", \"problems\": [";
  for (size_t I = 0; I != R.Problems.size(); ++I)
    Out += (I != 0 ? ", " : "") + quote(R.Problems[I]);
  Out += "]}";
  return Out;
}

void perfbench::emitEndToEnd(const WindowedSamples &W, double SetupS,
                             RunResult &R) {
  const double TailPct = 99;
  WindowedSamples::Summary S = W.fasterHalf(TailPct);
  R.metric("setup_s", SetupS, "s");
  R.metric("throughput_per_s", S.OpsPerS, "1/s");
  R.metric("latency_p50_us", S.P50, "us");
  R.metric("latency_tail_us", S.Tail, "us");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  R.detail("windows", "{\"used\": " + std::to_string(S.WindowsUsed) +
                          ", \"complete\": " +
                          std::to_string(S.WindowsTotal) + "}");
  R.detail("tail", "{\"pct\": " + num(TailPct) + ", \"samples\": " +
                       std::to_string(S.Latency.count()) +
                       ", \"min_beyond_per_window\": " +
                       std::to_string(S.TailBeyond) + "}");
  if (S.TailBeyond < 10)
    R.detail("tail_warning",
             "\"a selected window has fewer than 10 samples beyond the tail\"");
  R.detail("latency_all_windows_us", W.all().json());
  R.detail("window_ops", W.opsJson());
}

const std::vector<std::string> &perfbench::suitePairKeys() {
  static const std::vector<std::string> Keys = [] {
    std::vector<std::string> K;
    for (const char *P : {"B1", "B2", "B3", "B4", "B5"})
      for (const char *D : {"interval", "k3"})
        K.push_back(std::string(P) + "_" + D);
    return K;
  }();
  return Keys;
}

void perfbench::emitLayers(const LayerReport &L, RunResult &R) {
  R.metric("synth.us", L.SynthUs, "us");
  R.metric("synth.nodes", L.SynthNodes, "count");
  R.metric("synth.nodes_per_s", L.SynthNodesPerS, "1/s");
  for (const std::string &K : suitePairKeys()) {
    auto It = L.SynthNodesPerPair.find(K);
    R.metric("synth.nodes." + K,
             It == L.SynthNodesPerPair.end() ? 0.0 : It->second, "count");
  }
  R.metric("verify.us", L.VerifyUs, "us");
  R.metric("verify.nodes", L.VerifyNodes, "count");
  R.metric("core.create_other_us", L.CreateOtherUs, "us");
  R.metric("expr.parse_us", L.ParseUs, "us");
  R.metric("analysis.lint_us", L.LintUs, "us");
  R.metric("cache.canon_us", L.CanonUs, "us");
  R.metric("cache.lookup_us", L.LookupUs, "us");
  R.metric("cache.store_us", L.StoreUs, "us");
  R.metric("cache.hit_frac", L.CacheHitFrac, "ratio");
  R.metric("compile.tape_us", L.TapeUs, "us");
  R.metric("core.kb_serialize_us", L.KbSerializeUs, "us");
  R.metric("core.kb_write_us", L.KbWriteUs, "us");
  R.metric("domains.meet_us", L.MeetUs, "us");
  R.metric("domains.size_us", L.SizeUs, "us");
  R.metric("domains.compact_us", L.CompactUs, "us");
  R.metric("domains.boxes_per_posterior", L.BoxesPerPosterior, "count");
  R.metric("expr.eval_us", L.EvalUs, "us");
  R.metric("core.tracker_us", L.TrackerUs, "us");
  R.metric("service.submit_register_us", L.SubmitRegisterUs, "us");
  R.metric("service.submit_downgrade_us", L.SubmitDowngradeUs, "us");
  R.metric("service.wait_us", L.WaitUs, "us");
  R.metric("service.register_p50_ms", L.RegisterP50Ms, "ms");
  R.metric("service.register_p90_ms", L.RegisterP90Ms, "ms");
  R.metric("monitor.answered_mean", L.AnsweredMean, "count");
  R.metric("driver.busy_frac", L.DriverBusyFrac, "ratio");
  R.metric("obs.uncovered_frac", L.UncoveredFrac, "ratio");
  R.metric("obs.trace_overhead_frac", L.TraceOverheadFrac, "ratio");
}

double perfbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

double perfbench::processCpuSeconds() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

double perfbench::medianOf(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 == 1 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

//===----------------------------------------------------------------------===//
// Latency summaries
//===----------------------------------------------------------------------===//

namespace {

/// 1-based nearest rank of percentile P among N samples.
size_t nearestRank(size_t N, double P) {
  double R = std::ceil(P / 100.0 * static_cast<double>(N) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(R, 1.0)), 1, N);
}

/// The highest of p99.99, p99.9, p99, p90 and p50 with at least
/// \p MinBeyond of \p N samples beyond it.
std::optional<double> tailPercentile(size_t N, size_t MinBeyond) {
  for (double P : {99.99, 99.9, 99.0, 90.0, 50.0})
    if (samplesBeyond(N, P) >= MinBeyond)
      return P;
  return std::nullopt;
}

/// The report's summary of \p N samples whose percentiles \p Pct gives.
template <typename PercentileFn>
std::string summaryOf(size_t N, PercentileFn Pct) {
  if (N == 0)
    return "{\"n\": 0}";
  std::string Out = "{\"n\": " + std::to_string(N) + ", \"p50\": " + num(Pct(50));
  if (auto P = tailPercentile(N, 10))
    Out += ", \"tail_pct\": " + num(*P) + ", \"tail\": " + num(Pct(*P)) +
           ", \"beyond\": " + std::to_string(samplesBeyond(N, *P));
  return Out + "}";
}

} // namespace

double perfbench::percentileSorted(const std::vector<double> &Sorted,
                                   double P) {
  return Sorted[nearestRank(Sorted.size(), P) - 1];
}

size_t perfbench::samplesBeyond(size_t N, double P) {
  return N == 0 ? 0 : N - nearestRank(N, P);
}

std::optional<TailChoice> perfbench::selectTail(std::vector<double> Samples,
                                                size_t MinBeyond) {
  auto P = tailPercentile(Samples.size(), MinBeyond);
  if (!P)
    return std::nullopt;
  std::sort(Samples.begin(), Samples.end());
  return TailChoice{*P, percentileSorted(Samples, *P), Samples.size(),
                    samplesBeyond(Samples.size(), *P)};
}

std::string perfbench::summaryJson(const std::vector<double> &Samples) {
  std::vector<double> Sorted = Samples;
  std::sort(Sorted.begin(), Sorted.end());
  return summaryOf(Sorted.size(),
                   [&](double P) { return percentileSorted(Sorted, P); });
}

void LatencyHistogram::add(double Us) {
  if (Buckets.empty())
    Buckets.assign(static_cast<size_t>(Octaves * Sub), 0);
  double Pos = (std::log2(std::max(Us, 0x1p-10)) - MinExp) * Sub;
  size_t B = static_cast<size_t>(
      std::clamp(Pos, 0.0, static_cast<double>(Buckets.size() - 1)));
  ++Buckets[B];
  ++N;
}

void LatencyHistogram::merge(const LatencyHistogram &O) {
  if (O.Buckets.empty())
    return;
  if (Buckets.empty())
    Buckets.assign(O.Buckets.size(), 0);
  for (size_t B = 0; B != Buckets.size(); ++B)
    Buckets[B] += O.Buckets[B];
  N += O.N;
}

double LatencyHistogram::percentile(double P) const {
  if (N == 0)
    return 0;
  const double Rank = static_cast<double>(nearestRank(N, P));
  double Before = 0;
  for (size_t B = 0; B != Buckets.size(); ++B) {
    if (Before + Buckets[B] < Rank) {
      Before += Buckets[B];
      continue;
    }
    // Spread the bucket's samples evenly across its width.
    double Frac = (Rank - Before - 0.5) / Buckets[B];
    return std::exp2(MinExp + (static_cast<double>(B) + Frac) / Sub);
  }
  return 0;
}

std::string LatencyHistogram::json() const {
  return summaryOf(N, [&](double P) { return percentile(P); });
}

void WindowedSamples::add(Clock::time_point Done, double LatencyUs,
                          double Ops) {
  double T = std::chrono::duration<double>(Done - Start).count();
  size_t W = static_cast<size_t>(std::max(T, 0.0));
  if (Win.size() <= W)
    Win.resize(W + 1);
  Win[W].Latency.add(LatencyUs);
  Win[W].Ops += Ops;
  LastDone = std::max(LastDone, T);
}

WindowedSamples::Summary WindowedSamples::fasterHalf(double TailPct) const {
  Summary S;
  // Window W is complete when the run went on past its end.
  std::vector<size_t> Selected;
  for (size_t W = 0; W != Win.size(); ++W)
    if (static_cast<double>(W + 1) <= LastDone)
      Selected.push_back(W);
  S.WindowsTotal = Selected.size();
  double Seconds = 0;
  if (Selected.size() < 2) {
    Selected.clear();
    for (size_t W = 0; W != Win.size(); ++W)
      Selected.push_back(W);
    Seconds = LastDone;
  } else {
    std::stable_sort(Selected.begin(), Selected.end(),
                     [&](size_t A, size_t B) { return Win[A].Ops > Win[B].Ops; });
    Selected.resize((Selected.size() + 1) / 2);
    Seconds = static_cast<double>(Selected.size());
  }
  double Ops = 0;
  std::vector<double> P50s, Tails;
  S.TailBeyond = UINT64_MAX;
  for (size_t W : Selected) {
    const LatencyHistogram &H = Win[W].Latency;
    S.Latency.merge(H);
    Ops += Win[W].Ops;
    if (H.count() == 0)
      continue;
    P50s.push_back(H.percentile(50));
    Tails.push_back(H.percentile(TailPct));
    S.TailBeyond = std::min<uint64_t>(S.TailBeyond,
                                      samplesBeyond(H.count(), TailPct));
  }
  if (Tails.empty())
    S.TailBeyond = 0;
  S.WindowsUsed = Selected.size();
  S.OpsPerS = Seconds > 0 ? Ops / Seconds : 0;
  S.P50 = medianOf(P50s);
  S.Tail = medianOf(Tails);
  return S;
}

std::string WindowedSamples::opsJson() const {
  std::string Out = "[";
  for (size_t W = 0; W != Win.size(); ++W)
    Out += (W != 0 ? ", " : "") + num(Win[W].Ops);
  return Out + "]";
}

LatencyHistogram WindowedSamples::all() const {
  LatencyHistogram All;
  for (const Window &W : Win)
    All.merge(W.Latency);
  return All;
}

//===----------------------------------------------------------------------===//
// Failure accounting
//===----------------------------------------------------------------------===//

const char *perfbench::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Admitted:
    return "admitted";
  case Verdict::Refused:
    return "refused";
  case Verdict::StaticallyRejected:
    return "statically_rejected";
  case Verdict::Error:
    return "error";
  case Verdict::Mismatch:
    return "mismatch";
  case Verdict::Shed:
    return "shed";
  case Verdict::DeadlineBottom:
    return "deadline_bottom";
  case Verdict::OtherBottom:
    return "other_bottom";
  case Verdict::UncodedBottom:
    return "uncoded_bottom";
  case Verdict::Unresolved:
    return "unresolved";
  }
  return "?";
}

bool perfbench::isFailure(Verdict V) {
  return V != Verdict::Admitted && V != Verdict::Refused &&
         V != Verdict::StaticallyRejected;
}

Verdict perfbench::judgeResponse(const ServiceResponse *Resp,
                                 std::optional<int64_t> Truth) {
  if (Resp == nullptr)
    return Verdict::Unresolved;
  switch (Resp->Status) {
  case ResponseStatus::Ok: {
    if (!Truth)
      return Verdict::Mismatch;
    if (Resp->HasBool)
      return (Resp->BoolValue ? 1 : 0) == *Truth ? Verdict::Admitted
                                                 : Verdict::Mismatch;
    if (Resp->HasInt)
      return Resp->IntValue == *Truth ? Verdict::Admitted : Verdict::Mismatch;
    return Verdict::Mismatch;
  }
  case ResponseStatus::Refused:
    return Verdict::Refused;
  case ResponseStatus::Bottom:
    switch (Resp->Reason) {
    case ReasonCode::None:
      return Verdict::UncodedBottom;
    case ReasonCode::StaticallyRejected:
      return Verdict::StaticallyRejected;
    case ReasonCode::Deadline:
      return Verdict::DeadlineBottom;
    case ReasonCode::Shed:
      return Verdict::Shed;
    default:
      return Verdict::OtherBottom;
    }
  case ResponseStatus::Overloaded:
    return Verdict::Shed;
  case ResponseStatus::Error:
    return Verdict::Error;
  }
  return Verdict::Error;
}

uint64_t Tally::attempted() const {
  uint64_t N = 0;
  for (uint64_t C : Count)
    N += C;
  return N;
}

uint64_t Tally::failed() const {
  uint64_t N = 0;
  for (unsigned I = 0; I != NumVerdicts; ++I)
    if (isFailure(static_cast<Verdict>(I)))
      N += Count[I];
  return N;
}

std::string Tally::json() const {
  std::string Out = "{";
  for (unsigned I = 0; I != NumVerdicts; ++I)
    Out += (I != 0 ? ", " : "") + quote(verdictName(static_cast<Verdict>(I))) +
           ": " + std::to_string(Count[I]);
  return Out + "}";
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

uint64_t SpanLog::nowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Epoch)
          .count());
}

void SpanLog::record(const char *Name, uint64_t Id, uint64_t Parent,
                     uint64_t Req, uint64_t TsNs, uint64_t DurNs) {
  anosy::obs::TraceEvent E;
  E.Name = Name;
  E.TsMicros = TsNs / 1000;
  E.DurMicros = DurNs / 1000;
  E.Tid = anosy::obs::threadId();
  E.Args = {{"id", std::to_string(Id)},
            {"parent", std::to_string(Parent)},
            {"req", std::to_string(Req)},
            {"ts_ns", std::to_string(TsNs)},
            {"dur_ns", std::to_string(DurNs)}};
  Recorder.record(std::move(E));
  Recorded.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SpanRec> SpanLog::spans() const {
  std::vector<SpanRec> Out;
  for (const anosy::obs::TraceEvent &E : Recorder.snapshot()) {
    SpanRec S;
    S.Name = E.Name;
    S.Tid = E.Tid;
    for (const anosy::obs::TraceArg &A : E.Args) {
      uint64_t V = std::strtoull(A.Value.c_str(), nullptr, 10);
      if (A.Key == "id")
        S.Id = V;
      else if (A.Key == "parent")
        S.Parent = V;
      else if (A.Key == "req")
        S.Req = V;
      else if (A.Key == "ts_ns")
        S.TsNs = V;
      else if (A.Key == "dur_ns")
        S.DurNs = V;
    }
    Out.push_back(std::move(S));
  }
  return Out;
}

uint64_t
perfbench::coveredNs(std::vector<std::pair<uint64_t, uint64_t>> Intervals,
                     uint64_t Lo, uint64_t Hi) {
  std::sort(Intervals.begin(), Intervals.end());
  uint64_t Covered = 0;
  uint64_t Reach = Lo; // everything below Reach is already counted
  for (auto [Start, Len] : Intervals) {
    uint64_t B = std::max(Start, Reach);
    uint64_t E = std::min(Start + Len, Hi);
    if (E > B) {
      Covered += E - B;
      Reach = E;
    }
  }
  return Covered;
}

std::vector<uint64_t> perfbench::selfTimes(const std::vector<SpanRec> &Spans) {
  std::unordered_map<uint64_t, std::vector<size_t>> Children;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent != 0)
      Children[Spans[I].Parent].push_back(I);
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    std::vector<std::pair<uint64_t, uint64_t>> Kids;
    if (auto It = Children.find(S.Id); It != Children.end())
      for (size_t C : It->second)
        Kids.emplace_back(Spans[C].TsNs, Spans[C].DurNs);
    Self[I] = S.DurNs - coveredNs(std::move(Kids), S.TsNs, S.TsNs + S.DurNs);
  }
  return Self;
}

double LayerTimes::selfUs(const std::string &N) const {
  auto It = SelfNs.find(N);
  return It == SelfNs.end() ? 0.0 : It->second / 1000.0;
}
uint64_t LayerTimes::count(const std::string &N) const {
  auto It = Count.find(N);
  return It == Count.end() ? 0 : It->second;
}

LayerTimes perfbench::aggregateSpans(const std::vector<SpanRec> &Spans,
                                     uint32_t DriverTid,
                                     const Windows &DriverWindows) {
  LayerTimes L;
  std::vector<uint64_t> Self = selfTimes(Spans);
  std::unordered_map<uint64_t, size_t> ById;
  for (size_t I = 0; I != Spans.size(); ++I)
    ById[Spans[I].Id] = I;
  double RootSelf = 0, RootDur = 0;
  std::vector<std::pair<uint64_t, uint64_t>> DriverLayers;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    size_t Root = I;
    for (auto It = ById.find(Spans[Root].Parent); It != ById.end();
         It = ById.find(Spans[Root].Parent))
      Root = It->second;
    std::string Key = Spans[Root].Name + "/" + S.Name;
    L.SelfNs[Key] += static_cast<double>(Self[I]);
    ++L.Count[Key];
    if (S.Parent == 0 && S.Name.rfind("req.", 0) == 0) {
      RootSelf += static_cast<double>(Self[I]);
      RootDur += static_cast<double>(S.DurNs);
    }
    if (S.Parent != 0 && S.Tid == DriverTid)
      DriverLayers.emplace_back(S.TsNs, S.DurNs);
  }
  L.UncoveredFrac = RootDur > 0 ? RootSelf / RootDur : 0;
  // Merge the driver's layer intervals once, then measure each window's
  // overlap with the merged list.
  std::sort(DriverLayers.begin(), DriverLayers.end());
  std::vector<std::pair<uint64_t, uint64_t>> Merged; // [start, end)
  for (auto [Start, Len] : DriverLayers) {
    if (!Merged.empty() && Start <= Merged.back().second)
      Merged.back().second = std::max(Merged.back().second, Start + Len);
    else
      Merged.emplace_back(Start, Start + Len);
  }
  double Total = 0, Covered = 0;
  for (auto [Lo, Hi] : DriverWindows) {
    if (Hi <= Lo)
      continue;
    Total += static_cast<double>(Hi - Lo);
    auto It = std::lower_bound(
        Merged.begin(), Merged.end(), Lo,
        [](const std::pair<uint64_t, uint64_t> &M, uint64_t V) {
          return M.second <= V;
        });
    for (; It != Merged.end() && It->first < Hi; ++It)
      Covered += static_cast<double>(std::min(It->second, Hi) -
                                     std::max(It->first, Lo));
  }
  L.DriverBusyFrac = Total > 0 ? 1.0 - Covered / Total : 0;
  return L;
}

void perfbench::writeValidatedTrace(SpanLog &Log, const std::string &Path,
                                    RunResult &R) {
  std::string Json = Log.recorder().renderChromeJson();
  auto Names = anosy::obs::validateChromeTrace(Json);
  if (!Names) {
    R.problem("trace file fails obs::validateChromeTrace: " +
              Names.error().message());
    return;
  }
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Json;
  if (!Out) {
    R.problem("cannot write trace file " + Path);
    return;
  }
  R.detail("trace_file", quote(Path));
  R.detail("trace_spans", std::to_string(Names->size()));
}
