//===- perfbench/src/AnosydMix.cpp - The anosyd-mix workload --------------===//
//
// MonitorDaemon with its default two workers. 32 attacker sessions replay
// pre-generated traces (the five TraceGen strategies, rotating) against
// tenants registered during set-up; each session waits for its answer
// before asking again (closed loop, one driver thread holding the 32
// outstanding requests in submission order). Meanwhile new tenants
// register open loop at a fixed rate from a second thread, each timed
// from its due time. Tenants come from the six scenario families with
// four queries each and distinct seeds. The data and cache directories
// are fresh on every set-up.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Replay.h"

#include "expr/Eval.h"
#include "expr/Parser.h"
#include "gen/ScenarioGen.h"
#include "gen/TraceGen.h"
#include "service/Daemon.h"

#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace anosy;
using namespace anosy::service;
namespace fs = std::filesystem;

namespace {

constexpr unsigned Sessions = 32;
constexpr unsigned PreTenants = 12;
constexpr unsigned QueriesPerModule = 4;
constexpr int64_t MinSize = 8;
constexpr int64_t MaxDomainSize = 4'000;
constexpr unsigned TracesPerSession = 4;
constexpr unsigned StepsPerTrace = 64;
/// Open-loop registration rate. Every registration writes its KB and its
/// cache entries with fsync; on this box's disk 40/s keeps that under a
/// tenth of one worker.
constexpr double RegistrationsPerS = 40;
/// Registrations replayed layer by layer in the traced run.
constexpr unsigned ReplayedRegistrations = 24;

struct Tenant {
  std::string Name;
  std::string Source;
  Module M;
  /// minSizePolicy threshold; -1 registers the tenant without a policy.
  int64_t Policy = MinSize;
};

/// Set-up tenants 0-5 (one per family) run under `size > 8`, tenants 6-11
/// without a policy. Repeated probes of a narrowed secret are refused
/// under the policy, so without the second half the steady state would be
/// almost nothing but refusals and statically rejected ⊥; with it, every
/// family also serves admitted answers, each checked against evalBool.
int64_t tenantPolicy(unsigned T) {
  return (T / NumScenarioFamilies) % 2 == 0 ? MinSize : -1;
}

struct AttackSession {
  unsigned TenantIdx = 0;
  std::vector<GeneratedTrace> Traces;
  unsigned TraceIdx = 0;
  unsigned StepIdx = 0;
};

/// One outstanding attacker request.
struct Pending {
  unsigned Session = 0;
  std::string Name;
  Point Secret;
  Clock::time_point Submitted;
  std::future<ServiceResponse> Fut;
  bool Traced = false;
};

struct Registration {
  Clock::time_point Due;
  Clock::time_point Submitted;
  std::future<ServiceResponse> Fut;
};

/// Everything set-up builds.
struct World {
  fs::path Dir;
  std::unique_ptr<MonitorDaemon> Daemon;
  std::vector<Tenant> Tenants;
  std::vector<AttackSession> Attackers;
  std::vector<GeneratedModule> NewTenants;
  std::string Error;
};

GeneratedModule makeModule(uint64_t Seed, unsigned Index) {
  ScenarioOptions SO;
  SO.Family = static_cast<ScenarioFamily>(Index % NumScenarioFamilies);
  SO.Seed = Seed * 100'003 + Index;
  SO.Queries = QueriesPerModule;
  SO.PolicyMinSize = MinSize;
  SO.MaxDomainSize = MaxDomainSize;
  return generateScenarioModule(SO);
}

/// Registrations that are not Ok, or that degraded for any reason but
/// static rejection, failed.
bool registrationOk(const ServiceResponse &Resp) {
  if (Resp.Status != ResponseStatus::Ok)
    return false;
  for (const DegradedQueryJson &D : Resp.Degraded)
    if (D.Code != ReasonCode::StaticallyRejected)
      return false;
  return true;
}

void buildWorld(World &W, const RunArgs &A, unsigned Rep) {
  W.Daemon.reset();
  if (!W.Dir.empty())
    fs::remove_all(W.Dir);
  W.Dir = fs::path(A.OutDir) /
          ("mix-" + std::to_string(::getpid()) + "-" + std::to_string(Rep));
  fs::remove_all(W.Dir);

  DaemonOptions O;
  O.DataDir = (W.Dir / "data").string();
  O.CacheDir = (W.Dir / "cache").string();
  pinSerialSession(O.Session);
  W.Daemon = std::make_unique<MonitorDaemon>(O);
  if (auto S = W.Daemon->start(); !S) {
    W.Error = "daemon start failed: " + S.error().message();
    return;
  }

  W.Tenants.clear();
  for (unsigned T = 0; T != PreTenants; ++T) {
    GeneratedModule GM = makeModule(A.Seed, T);
    ServiceRequest Reg;
    Reg.Kind = RequestKind::Register;
    Reg.Tenant = "t" + std::to_string(T);
    Reg.ModuleSource = GM.Source;
    Reg.MinSize = tenantPolicy(T);
    ServiceResponse Resp = W.Daemon->call(std::move(Reg));
    auto M = parseModule(GM.Source);
    if (!registrationOk(Resp) || !M) {
      W.Error = "set-up registration of t" + std::to_string(T) +
                " failed: " + Resp.Detail;
      return;
    }
    W.Tenants.push_back(
        {"t" + std::to_string(T), GM.Source, M.takeValue(), tenantPolicy(T)});
  }

  W.Attackers.assign(Sessions, {});
  for (unsigned S = 0; S != Sessions; ++S) {
    AttackSession &AS = W.Attackers[S];
    AS.TenantIdx = S % PreTenants;
    const Tenant &T = W.Tenants[AS.TenantIdx];
    TracePolicy TP;
    TP.K = T.Policy >= 0 ? TracePolicy::Kind::MinSize
                         : TracePolicy::Kind::Permissive;
    TP.MinSize = MinSize;
    for (unsigned I = 0; I != TracesPerSession; ++I)
      AS.Traces.push_back(generateTrace(
          T.M, T.Name,
          static_cast<AttackerStrategy>((S + I) % NumAttackerStrategies), TP,
          A.Seed * 1'000'003 + S * TracesPerSession + I, StepsPerTrace));
  }

  W.NewTenants.clear();
  const unsigned NewCount =
      static_cast<unsigned>(A.Seconds * RegistrationsPerS) + 8;
  for (unsigned I = 0; I != NewCount; ++I)
    W.NewTenants.push_back(makeModule(A.Seed, PreTenants + I));
}

/// The exact answer to a step, or nullopt when the module lacks the name.
std::optional<int64_t> truth(const Module &M, const std::string &Name,
                             const Point &Secret) {
  if (const QueryDef *Q = M.findQuery(Name))
    return evalBool(*Q->Body, Secret) ? 1 : 0;
  if (const ClassifierDef *C = M.findClassifier(Name))
    return evalInt(*C->Body, Secret);
  return std::nullopt;
}

} // namespace

RunResult perfbench::runAnosydMix(const RunArgs &A) {
  RunResult R;
  World W;
  std::vector<double> SetupTimes;
  for (unsigned Rep = 0; Rep != 3; ++Rep) {
    double Cpu0 = processCpuSeconds();
    buildWorld(W, A, Rep);
    SetupTimes.push_back(processCpuSeconds() - Cpu0);
    if (!W.Error.empty()) {
      R.problem(W.Error);
      if (W.Daemon)
        W.Daemon->drain();
      fs::remove_all(W.Dir);
      return R;
    }
  }
  MonitorDaemon &D = *W.Daemon;

  SpanLog Log(60'000);
  const Clock::time_point Start = Clock::now();
  const Clock::time_point End =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(A.Seconds));
  // A future unresolved this long after the run is a contract violation.
  const Clock::time_point GiveUp = End + std::chrono::seconds(30);
  // Traced run: spans from 1 s in until the store fills or half the run
  // is over (window A), then an equally long untraced window B as the
  // overhead baseline.
  const Clock::time_point TraceFrom = Start + std::chrono::seconds(1);
  std::atomic<bool> TraceDone{false};
  auto tracingNow = [&](Clock::time_point Now) {
    return A.Trace && Now >= TraceFrom && !TraceDone.load();
  };

  // Open-loop registrations on their own thread.
  std::vector<Registration> Regs;
  std::thread Registrar([&] {
    for (size_t I = 0; I != W.NewTenants.size(); ++I) {
      Clock::time_point Due =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(I / RegistrationsPerS));
      if (Due >= End)
        break;
      std::this_thread::sleep_until(Due);
      ServiceRequest Reg;
      Reg.Kind = RequestKind::Register;
      Reg.Tenant = "r" + std::to_string(I);
      Reg.ModuleSource = W.NewTenants[I].Source;
      Reg.MinSize = MinSize;
      Registration Out;
      Out.Due = Due;
      Out.Submitted = Clock::now();
      SpanLog *L = tracingNow(Out.Submitted) ? &Log : nullptr;
      uint64_t Req = L != nullptr ? Log.newRequest() : 0;
      {
        Span Root(L, "req.register", Req);
        Span Sp(L, "service.submit_register", Req, Root.id());
        Out.Fut = D.submit(std::move(Reg));
      }
      Regs.push_back(std::move(Out));
    }
  });

  // The closed-loop attacker driver on this thread.
  Tally Answers;
  WindowedSamples Win(Start);
  std::vector<double> TracedUs, BaselineUs;
  struct TracedStep {
    unsigned Tenant;
    std::string Name;
    Point Secret;
  };
  std::vector<TracedStep> TracedSteps;
  Clock::time_point WindowAEnd{}, WindowBEnd{};

  std::deque<Pending> Ring;
  auto submitNext = [&](unsigned S, SpanLog *L, uint64_t Req,
                        uint64_t Parent) {
    AttackSession &AS = W.Attackers[S];
    const GeneratedTrace &Tr = AS.Traces[AS.TraceIdx];
    const TraceStep &St = Tr.Steps[AS.StepIdx];
    if (++AS.StepIdx == Tr.Steps.size()) {
      AS.StepIdx = 0;
      AS.TraceIdx = (AS.TraceIdx + 1) % AS.Traces.size();
    }
    const Tenant &T = W.Tenants[AS.TenantIdx];
    Pending P;
    P.Session = S;
    P.Name = St.Name;
    P.Secret = Tr.Secrets[St.SecretIndex % Tr.Secrets.size()];
    ServiceRequest Req0;
    Req0.Kind = T.M.findClassifier(St.Name) != nullptr ? RequestKind::Classify
                                                        : RequestKind::Downgrade;
    Req0.Tenant = T.Name;
    Req0.Name = St.Name;
    Req0.Secret = P.Secret;
    P.Traced = L != nullptr;
    P.Submitted = Clock::now();
    {
      Span Sp(L, "service.submit_downgrade", Req, Parent);
      P.Fut = D.submit(std::move(Req0));
    }
    Ring.push_back(std::move(P));
  };
  for (unsigned S = 0; S != Sessions; ++S)
    submitNext(S, nullptr, 0, 0);
  timespec Cpu0{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Cpu0);

  while (!Ring.empty()) {
    Pending P = std::move(Ring.front());
    Ring.pop_front();
    Clock::time_point Now = Clock::now();
    const bool Running = Now < End;
    if (Running && tracingNow(Now) &&
        (Log.full() || Now >= Start + (End - Start) / 2)) {
      // Window A closes when the store fills or at half time; window B
      // then runs untraced for as long as A did.
      TraceDone.store(true);
      WindowAEnd = Now;
      WindowBEnd = Now + (Now - TraceFrom);
    }
    SpanLog *L = Running && tracingNow(Now) ? &Log : nullptr;
    uint64_t Req = L != nullptr ? Log.newRequest() : 0;
    Span Root(L, "req.downgrade", Req);
    std::optional<ServiceResponse> Resp;
    {
      Span Sp(L, "service.wait", Req, Root.id());
      if (P.Fut.wait_until(std::max(GiveUp, Clock::now())) ==
          std::future_status::ready)
        Resp = P.Fut.get();
    }
    Clock::time_point Done = Clock::now();
    const Tenant &T = W.Tenants[W.Attackers[P.Session].TenantIdx];
    Verdict V =
        judgeResponse(Resp ? &*Resp : nullptr, truth(T.M, P.Name, P.Secret));
    Answers.add(V);
    if (isFailure(V))
      R.problem(std::string("answer judged ") + verdictName(V) + " for " +
                T.Name + "/" + P.Name);
    if (P.Submitted < End) {
      double Us = microsBetween(P.Submitted, Done);
      if (P.Traced) {
        TracedUs.push_back(Us);
        TracedSteps.push_back({W.Attackers[P.Session].TenantIdx, P.Name,
                               P.Secret});
      } else {
        Win.add(Done, Us);
        if (A.Trace && WindowAEnd != Clock::time_point{} &&
            P.Submitted >= WindowAEnd && P.Submitted < WindowBEnd)
          BaselineUs.push_back(Us);
      }
    }
    if (Clock::now() < End)
      submitNext(P.Session, L, Req, Root.id());
  }
  timespec Cpu1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Cpu1);
  // The load generator's guard: the driver thread's CPU share of the run
  // (near 1 would mean the driver, not the daemon, limits throughput).
  const double DriverCpuFrac =
      ((Cpu1.tv_sec - Cpu0.tv_sec) + (Cpu1.tv_nsec - Cpu0.tv_nsec) * 1e-9) /
      secondsSince(Start);
  R.detail("driver_cpu_frac", std::to_string(DriverCpuFrac));
  Registrar.join();

  // Registrations: judged from their responses once the load has stopped.
  std::vector<double> RegMs;
  double MaxLateMs = 0;
  uint64_t RegFailed = 0;
  for (Registration &Reg : Regs) {
    double LateMs = microsBetween(Reg.Due, Reg.Submitted) / 1000.0;
    MaxLateMs = std::max(MaxLateMs, LateMs);
    if (Reg.Fut.wait_until(std::max(GiveUp, Clock::now())) !=
        std::future_status::ready) {
      ++RegFailed;
      R.problem("registration future never resolved");
      continue;
    }
    ServiceResponse Resp = Reg.Fut.get();
    if (!registrationOk(Resp)) {
      ++RegFailed;
      R.problem(std::string("registration ") + responseStatusName(Resp.Status) +
                ": " + Resp.Detail);
      continue;
    }
    RegMs.push_back(LateMs + Resp.Seconds * 1000.0);
  }
  DaemonStats Stats = D.stats();

  R.Attempted = Answers.attempted() + Regs.size();
  R.Failed = Answers.failed() + RegFailed;
  R.detail("answers", Answers.json());
  R.detail("registrations", "{\"attempted\": " + std::to_string(Regs.size()) +
                                ", \"failed\": " + std::to_string(RegFailed) +
                                ", \"latency_ms\": " + summaryJson(RegMs) +
                                ", \"max_late_ms\": " +
                                std::to_string(MaxLateMs) + "}");
  R.detail("daemon", "{\"ok\": " + std::to_string(Stats.Ok) +
                         ", \"refused\": " + std::to_string(Stats.Refused) +
                         ", \"bottom\": " + std::to_string(Stats.Bottom) +
                         ", \"shed\": " + std::to_string(Stats.Shed) +
                         ", \"errors\": " + std::to_string(Stats.Errors) +
                         ", \"cache_hits\": " + std::to_string(Stats.CacheHits) +
                         ", \"cache_misses\": " +
                         std::to_string(Stats.CacheMisses) +
                         ", \"cache_stores\": " +
                         std::to_string(Stats.CacheStores) + "}");
  R.detail("setup_s", summaryJson(SetupTimes));

  // The paper suite's output checks and exact node counts (untimed).
  LayerReport L;
  checkPaperSuite(A, R, A.Trace ? &L : nullptr);

  auto Finish = [&] {
    D.drain();
    W.Daemon.reset();
    fs::remove_all(W.Dir);
  };
  if (!A.Trace) {
    emitEndToEnd(Win, medianOf(SetupTimes), R);
    Finish();
    return R;
  }

  // Attribution replays (untimed): the traced answers on shadow sessions
  // of the set-up tenants, alternating between the tracker's parts and the
  // whole library-level downgrade; then a sample of the registrations,
  // layer by layer, against fresh caches.
  std::vector<std::unique_ptr<AnosySession<Box>>> Shadows;
  for (const Tenant &T : W.Tenants) {
    SessionOptions SO;
    pinSerialSession(SO);
    SO.StaticAdmission = true;
    auto S = AnosySession<Box>::create(T.M,
                                       T.Policy >= 0
                                           ? minSizePolicy<Box>(T.Policy)
                                           : permissivePolicy<Box>(),
                                       SO);
    if (!S) {
      R.problem("shadow session failed: " + S.error().message());
      Finish();
      return R;
    }
    Shadows.push_back(std::make_unique<AnosySession<Box>>(S.takeValue()));
  }
  for (size_t I = 0; I != TracedSteps.size(); ++I) {
    const TracedStep &St = TracedSteps[I];
    AnosySession<Box> &S = *Shadows[St.Tenant];
    const bool Classifier = S.tracker().classifierInfo(St.Name) != nullptr;
    const QueryInfo<Box> *Info = S.tracker().queryInfo(St.Name);
    if (I % 2 == 1 && Info != nullptr)
      attributeDowngrade(S.tracker(), *Info, St.Secret, 256, &Log,
                         Log.newRequest());
    Span Root(I % 2 == 0 ? &Log : nullptr, "lib.downgrade", Log.newRequest());
    if (Classifier)
      (void)S.downgradeClassifier(St.Secret, St.Name);
    else
      (void)S.downgrade(St.Secret, St.Name);
  }
  fs::path ReplayDir = W.Dir / "replay";
  fs::create_directories(ReplayDir);
  ArtifactCache ReplayCache((ReplayDir / "cache-a").string());
  ArtifactCache CreateCache((ReplayDir / "cache-b").string());
  uint64_t ReplaySynthNodes = 0;
  const unsigned NReplay = std::min<unsigned>(
      ReplayedRegistrations, static_cast<unsigned>(W.NewTenants.size()));
  for (unsigned I = 0; I != NReplay; ++I) {
    ReplayOptions RO;
    RO.Lint = true;
    RO.MinSize = MinSize;
    RO.Cache = &ReplayCache;
    RO.CreateCache = &CreateCache;
    RO.KbPath = (ReplayDir / ("r" + std::to_string(I) + ".akb")).string();
    ReplayCounts C = replayRegistration<Box>(W.NewTenants[I].Source, RO, &Log,
                                             Log.newRequest());
    ReplaySynthNodes += C.SynthNodes;
    if (!C.Ok)
      R.problem("registration replay failed for r" + std::to_string(I));
  }

  writeValidatedTrace(Log, A.OutDir + "/trace-anosyd-mix.json", R);
  LayerTimes T =
      aggregateSpans(Log.spans(), anosy::obs::threadId(), Windows{});
  auto PerRoot = [&](const std::string &Root, const std::string &Key) {
    double N = static_cast<double>(T.count(Root + "/" + Root));
    return N > 0 ? T.selfUs(Root + "/" + Key) / N : 0.0;
  };
  L.SynthUs = PerRoot("attr.register", "synth");
  double SynthS = T.selfUs("attr.register/synth") / 1e6;
  L.SynthNodesPerS = SynthS > 0 ? ReplaySynthNodes / SynthS : 0;
  L.VerifyUs = PerRoot("attr.register", "verify");
  L.CreateOtherUs =
      PerRoot("attr.register", "core.create") - L.SynthUs - L.VerifyUs;
  L.ParseUs = PerRoot("attr.register", "expr.parse");
  L.LintUs = PerRoot("attr.register", "analysis.lint");
  L.CanonUs = PerRoot("attr.register", "cache.canon");
  L.LookupUs = PerRoot("attr.register", "cache.lookup");
  L.StoreUs = PerRoot("attr.register", "cache.store");
  L.TapeUs = PerRoot("attr.register", "compile.tape");
  L.KbSerializeUs = PerRoot("attr.register", "core.kb_serialize");
  L.KbWriteUs = PerRoot("attr.register", "core.kb_write");
  L.CacheHitFrac = Stats.CacheHits + Stats.CacheMisses > 0
                       ? static_cast<double>(Stats.CacheHits) /
                             (Stats.CacheHits + Stats.CacheMisses)
                       : 0;
  L.MeetUs = PerRoot("attr.downgrade", "domains.meet");
  L.CompactUs = PerRoot("attr.downgrade", "domains.compact");
  L.SizeUs = PerRoot("attr.downgrade", "domains.size");
  L.EvalUs = PerRoot("attr.downgrade", "expr.eval");
  const double LibUs = PerRoot("lib.downgrade", "lib.downgrade");
  L.TrackerUs = LibUs - L.MeetUs - L.CompactUs - L.SizeUs - L.EvalUs;
  L.SubmitRegisterUs = PerRoot("req.register", "service.submit_register");
  L.SubmitDowngradeUs = PerRoot("req.downgrade", "service.submit_downgrade");
  // Caller-observed latency from the untraced window B: span recording on
  // the driver thread would otherwise inflate the wait it is compared to.
  double Observed = 0;
  for (double U : BaselineUs)
    Observed += U;
  Observed = BaselineUs.empty() ? 0 : Observed / BaselineUs.size();
  L.WaitUs = Observed - L.SubmitDowngradeUs - LibUs;
  std::vector<double> RegSorted = RegMs;
  std::sort(RegSorted.begin(), RegSorted.end());
  if (!RegSorted.empty()) {
    L.RegisterP50Ms = percentileSorted(RegSorted, 50);
    L.RegisterP90Ms = percentileSorted(RegSorted, 90);
  }
  L.DriverBusyFrac = DriverCpuFrac;
  L.UncoveredFrac = T.UncoveredFrac;
  double Base = medianOf(BaselineUs);
  L.TraceOverheadFrac = Base > 0 ? medianOf(TracedUs) / Base - 1.0 : 0;
  emitLayers(L, R);
  R.detail("traced_answers", std::to_string(TracedUs.size()));
  R.detail("replayed_registrations", std::to_string(NReplay));
  Finish();
  return R;
}
