//===- perfbench/src/Fig6Monitor.cpp - The fig6-monitor workload ----------===//
//
// §6.2 secure advertising at k = 10: the 50 `nearby` queries of the
// paper's module (restaurant origins fixed by AdvertisingConfig's seed)
// are registered during set-up. Attacker instances then downgrade through
// one tracker until their first refusal, under the policy `size > 100`.
// Each instance has a distinct secret drawn without replacement and a
// shuffled restaurant order, both from the benchmark seed. One caller,
// closed loop. A round replays every instance against a fresh tracker, so
// the secrets map grows through a round the way a long-lived monitor's
// does, and every round's counts repeat exactly.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Harness.h"
#include "Replay.h"

#include "benchlib/Advertising.h"
#include "core/AnosySession.h"
#include "expr/Eval.h"
#include "support/Rng.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

using namespace perfbench;
using namespace anosy;

namespace {

constexpr unsigned PowersetK = 10;
constexpr int64_t PolicyMinSize = 100;
constexpr unsigned InstancesPerRound = 1000;
constexpr unsigned CheckedInstances = 6;
/// KnowledgeTracker's default representation cap.
constexpr size_t MaxKnowledgeBoxes = 256;

struct Instance {
  Point Secret;
  std::vector<unsigned> Order;
};

std::vector<Instance> makeInstances(uint64_t Seed,
                                    const AdvertisingConfig &C) {
  Rng R(Seed);
  std::unordered_set<int64_t> Used;
  const int64_t Width = C.SpaceHi - C.SpaceLo + 1;
  std::vector<Instance> Out;
  while (Out.size() != InstancesPerRound) {
    Point P{R.range(C.SpaceLo, C.SpaceHi), R.range(C.SpaceLo, C.SpaceHi)};
    if (!Used.insert((P[0] - C.SpaceLo) * Width + (P[1] - C.SpaceLo)).second)
      continue;
    Instance I;
    I.Secret = std::move(P);
    I.Order.resize(C.NumRestaurants);
    std::iota(I.Order.begin(), I.Order.end(), 0u);
    for (size_t K = I.Order.size(); K > 1; --K)
      std::swap(I.Order[K - 1], I.Order[static_cast<size_t>(R.range(
                                    0, static_cast<int64_t>(K) - 1))]);
    Out.push_back(std::move(I));
  }
  return Out;
}

/// Replays one instance against fresh trackers and exact knowledge: every
/// admission must answer like the secret, leave both exact posteriors
/// above the threshold, and store a posterior inside the exact knowledge.
std::string checkInstance(const Instance &I, const Module &M,
                          const AnosySession<PowerBox> &Session) {
  KnowledgeTracker<PowerBox> T(M.schema(),
                               minSizePolicy<PowerBox>(PolicyMinSize),
                               MaxKnowledgeBoxes);
  for (const QueryDef &Q : M.queries())
    T.registerQuery(*Session.tracker().queryInfo(Q.Name));
  ExactKnowledge K(M.schema());
  for (unsigned Step : I.Order) {
    const QueryDef &Q = M.queries()[Step];
    auto [TrueCount, FalseCount] = K.split(*Q.Body);
    Result<bool> Answer = T.downgrade(I.Secret, Q.Name);
    if (!Answer)
      return Answer.error().code() == ErrorCode::PolicyViolation
                 ? ""
                 : "unexpected downgrade error: " + Answer.error().message();
    if (*Answer != evalBool(*Q.Body, I.Secret))
      return "admitted answer for " + Q.Name + " contradicts the secret";
    if (TrueCount <= PolicyMinSize || FalseCount <= PolicyMinSize)
      return "admitted " + Q.Name + " with an exact posterior of " +
             std::to_string(std::min(TrueCount, FalseCount)) + " secrets";
    K.refine(*Q.Body, *Answer);
    if (uint64_t Out = K.outsideCount(T.knowledgeFor(I.Secret)))
      return "stored posterior after " + Q.Name + " holds " +
             std::to_string(Out) + " secrets the exact knowledge excludes";
  }
  return "";
}

} // namespace

RunResult perfbench::runFig6Monitor(const RunArgs &A) {
  RunResult R;
  AdvertisingConfig C;
  C.PowersetSize = PowersetK;
  C.PolicyMinSize = PolicyMinSize;
  const KnowledgePolicy<PowerBox> Policy =
      minSizePolicy<PowerBox>(PolicyMinSize);

  std::optional<Module> M;
  std::optional<AnosySession<PowerBox>> Session;
  std::vector<Instance> Instances;
  std::vector<double> SetupTimes;
  for (int Rep = 0; Rep != 3; ++Rep) {
    double Cpu0 = processCpuSeconds();
    M = buildAdvertisingModule(C);
    SessionOptions O;
    pinSerialSession(O);
    O.PowersetSize = PowersetK;
    auto S = AnosySession<PowerBox>::create(*M, Policy, O);
    if (!S) {
      R.problem("registration failed: " + S.error().message());
      return R;
    }
    if (S->degradation().degraded())
      R.problem("registration degraded: " + S->degradation().str());
    Session.emplace(S.takeValue());
    Instances = makeInstances(A.Seed, C);
    SetupTimes.push_back(processCpuSeconds() - Cpu0);
  }
  std::vector<const QueryInfo<PowerBox> *> Infos;
  for (const QueryDef &Q : M->queries())
    Infos.push_back(Session->tracker().queryInfo(Q.Name));

  SpanLog Log(60'000);
  Windows TracedWindows;
  std::vector<double> TracedUs, PairedUs;
  std::vector<unsigned> Answered(Instances.size(), 0);
  uint64_t Downgrades = 0, Failed = 0, Rounds = 0;
  uint64_t RoundAdmitted = 0, FirstRoundAdmitted = 0, BoxesAfterAdmit = 0,
           TracedAdmits = 0;
  Clock::time_point Start = Clock::now();
  WindowedSamples Win(Start);
  // Whole rounds only, so every round does the same work.
  while (secondsSince(Start) < A.Seconds || Rounds == 0) {
    KnowledgeTracker<PowerBox> T(M->schema(), Policy, MaxKnowledgeBoxes);
    for (const QueryInfo<PowerBox> *Info : Infos)
      T.registerQuery(*Info);
    RoundAdmitted = 0;
    for (size_t II = 0; II != Instances.size(); ++II) {
      const Instance &Inst = Instances[II];
      // A traced run rotates instances through three groups while the span
      // store has room: attribution replays (the tracker's parts re-run on
      // its state just before the real downgrade), traced downgrades, and
      // untraced downgrades. Keeping the replay apart from the traced
      // downgrades keeps its cache warming out of their timings.
      const bool Alternating =
          A.Trace && !Log.full() && secondsSince(Start) < A.Seconds / 2;
      SpanLog *Attr = Alternating && II % 3 == 0 ? &Log : nullptr;
      SpanLog *L = Alternating && II % 3 == 1 ? &Log : nullptr;
      unsigned Admitted = 0;
      for (unsigned Step : Inst.Order) {
        const std::string &Name = Infos[Step]->Name;
        uint64_t Req = 0, WindowLo = 0;
        if (Attr != nullptr)
          attributeDowngrade(T, *Infos[Step], Inst.Secret, MaxKnowledgeBoxes,
                             Attr, Log.newRequest());
        if (L != nullptr) {
          Req = Log.newRequest();
          WindowLo = Log.nowNs();
        }
        Clock::time_point T0 = Clock::now();
        Result<bool> Answer = [&] {
          Span Root(L, "req.downgrade", Req);
          Span Sp(L, "core.tracker", Req, Root.id());
          return T.downgrade(Inst.Secret, Name);
        }();
        Clock::time_point T1 = Clock::now();
        double Us = microsBetween(T0, T1);
        ++Downgrades;
        if (L != nullptr) {
          TracedUs.push_back(Us);
          TracedWindows.emplace_back(WindowLo, Log.nowNs());
        } else if (Attr == nullptr) {
          Win.add(T1, Us);
          if (Alternating)
            PairedUs.push_back(Us);
        }
        if (!Answer) {
          if (Answer.error().code() != ErrorCode::PolicyViolation) {
            ++Failed;
            R.problem("downgrade error: " + Answer.error().message());
          }
          break;
        }
        ++Admitted;
        if (L != nullptr || Attr != nullptr) {
          BoxesAfterAdmit += T.knowledgeFor(Inst.Secret).includes().size();
          ++TracedAdmits;
        }
      }
      RoundAdmitted += Admitted;
      if (Rounds == 0)
        Answered[II] = Admitted;
    }
    if (Rounds == 0)
      FirstRoundAdmitted = RoundAdmitted;
    else if (RoundAdmitted != FirstRoundAdmitted) {
      ++Failed;
      R.problem("round " + std::to_string(Rounds) + " admitted " +
                std::to_string(RoundAdmitted) + " downgrades, round 0 " +
                std::to_string(FirstRoundAdmitted));
    }
    ++Rounds;
  }

  // Output checks (untimed) on a seeded sample of instances.
  Rng Pick(A.Seed ^ 0xf16e6ULL);
  uint64_t CheckFailures = 0;
  for (unsigned I = 0; I != CheckedInstances; ++I) {
    const Instance &Inst = Instances[static_cast<size_t>(
        Pick.range(0, static_cast<int64_t>(Instances.size()) - 1))];
    std::string Why = checkInstance(Inst, *M, *Session);
    if (!Why.empty()) {
      ++CheckFailures;
      R.problem("instance at (" + std::to_string(Inst.Secret[0]) + ", " +
                std::to_string(Inst.Secret[1]) + "): " + Why);
    }
  }

  R.Attempted = Downgrades + CheckedInstances;
  R.Failed = Failed + CheckFailures;
  const double AnsweredMean =
      static_cast<double>(FirstRoundAdmitted) / Instances.size();
  std::vector<unsigned> Histogram(C.NumRestaurants + 1, 0);
  for (unsigned N : Answered)
    ++Histogram[N];
  std::string Hist = "[";
  for (size_t N = 0; N != Histogram.size(); ++N)
    Hist += (N != 0 ? ", " : "") + std::to_string(Histogram[N]);
  R.detail("instances_per_round", std::to_string(Instances.size()));
  R.detail("rounds", std::to_string(Rounds));
  R.detail("admitted_per_round", std::to_string(FirstRoundAdmitted));
  R.detail("refused_per_round",
           std::to_string(Instances.size() -
                          std::count(Answered.begin(), Answered.end(),
                                     C.NumRestaurants)));
  R.detail("answered_histogram", Hist + "]");
  R.detail("answered_mean", std::to_string(AnsweredMean));
  R.detail("setup_s", summaryJson(SetupTimes));

  if (!A.Trace) {
    emitEndToEnd(Win, medianOf(SetupTimes), R);
    return R;
  }

  writeValidatedTrace(Log, A.OutDir + "/trace-fig6-monitor.json", R);
  LayerTimes T =
      aggregateSpans(Log.spans(), anosy::obs::threadId(), TracedWindows);
  auto PerOp = [&](const char *Root, const char *Key) {
    double N = static_cast<double>(T.count(std::string(Root) + "/" + Root));
    return N > 0 ? T.selfUs(std::string(Root) + "/" + Key) / N : 0.0;
  };
  LayerReport L;
  L.MeetUs = PerOp("attr.downgrade", "domains.meet");
  L.CompactUs = PerOp("attr.downgrade", "domains.compact");
  L.SizeUs = PerOp("attr.downgrade", "domains.size");
  L.EvalUs = PerOp("attr.downgrade", "expr.eval");
  L.TrackerUs = PerOp("req.downgrade", "core.tracker") - L.MeetUs -
                L.CompactUs - L.SizeUs - L.EvalUs;
  L.BoxesPerPosterior =
      TracedAdmits > 0 ? static_cast<double>(BoxesAfterAdmit) / TracedAdmits
                       : 0;
  L.AnsweredMean = AnsweredMean;
  L.DriverBusyFrac = T.DriverBusyFrac;
  L.UncoveredFrac = T.UncoveredFrac;
  double Untraced = medianOf(PairedUs);
  L.TraceOverheadFrac = Untraced > 0 ? medianOf(TracedUs) / Untraced - 1.0 : 0;
  emitLayers(L, R);
  return R;
}
