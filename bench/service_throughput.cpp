//===- bench/service_throughput.cpp - anosyd service-layer benchmarks -----===//
//
// The two numbers DESIGN.md §10 cares about, written to BENCH_service.json:
//
//   * cold-start recovery: wall time for a fresh daemon to salvage its
//     data directory (re-verify every tenant KB) as the tenant count
//     grows — the synthesize-once/serve-forever split (§6.1) means this
//     is the only expensive step a restart pays;
//   * admitted-vs-shed: the deterministic load-shedding curve as offered
//     load sweeps from half capacity to 3x capacity — exactly capacity
//     requests are admitted, the excess is shed as explicit Overloaded.
//
// Both sections run the daemon in manual-pump mode so the numbers are a
// property of the code, not of the host's scheduler.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "expr/Parser.h"
#include "gen/ScenarioGen.h"

#include <filesystem>
#include "gen/TraceGen.h"
#include "service/Daemon.h"

using namespace anosy;
using namespace anosy::service;

namespace {

DaemonOptions pumpOptions(const std::string &DataDir) {
  DaemonOptions Opt;
  Opt.Workers = 0;
  Opt.DataDir = DataDir;
  return Opt;
}

/// Registers \p Tenants scenario tenants; returns false on any failure.
bool registerTenants(MonitorDaemon &Daemon, unsigned Tenants,
                     uint64_t Seed) {
  for (unsigned T = 0; T != Tenants; ++T) {
    ScenarioOptions SO;
    SO.Family = static_cast<ScenarioFamily>(T % NumScenarioFamilies);
    SO.Seed = Seed + T;
    SO.Queries = 4;
    SO.PolicyMinSize = 8;
    SO.MaxDomainSize = 4000;
    GeneratedModule GM = generateScenarioModule(SO);
    ServiceRequest Reg;
    Reg.Kind = RequestKind::Register;
    Reg.Tenant = "t" + std::to_string(T);
    Reg.ModuleSource = GM.Source;
    Reg.MinSize = 8;
    if (Daemon.call(std::move(Reg)).Status != ResponseStatus::Ok)
      return false;
  }
  return true;
}

struct ColdStartSample {
  unsigned Tenants = 0;
  unsigned Queries = 0;
  double SalvageSeconds = 0;
  double RegisterSeconds = 0;
};

/// Measures salvage time over growing data directories. The registration
/// time (synthesis from scratch) rides along as the baseline the salvage
/// path is supposed to beat: a restart re-verifies, it does not re-solve.
ColdStartSample coldStart(unsigned Tenants, unsigned Runs) {
  ColdStartSample Sample;
  Sample.Tenants = Tenants;
  // The data dir persists across bench runs: scrub it so a previous
  // run's tenants don't collide with this run's registrations.
  std::string Dir = "bench_service_data/t" + std::to_string(Tenants);
  std::filesystem::remove_all(Dir);

  {
    MonitorDaemon Seeder(pumpOptions(Dir));
    if (!Seeder.start().ok())
      return Sample;
    Stopwatch W;
    if (!registerTenants(Seeder, Tenants, 42))
      return Sample;
    Sample.RegisterSeconds = W.seconds();
    Seeder.drain();
  }

  Sample.SalvageSeconds = medianSeconds(Runs, [&] {
    MonitorDaemon Fresh(pumpOptions(Dir));
    auto Rec = Fresh.start();
    if (!Rec.ok() || Rec->TenantsRecovered != Tenants ||
        Rec->TenantsFailed != 0) {
      std::fprintf(stderr, "cold-start salvage failed at %u tenants\n",
                   Tenants);
      std::exit(1);
    }
    Fresh.drain();
  });
  // Queries recovered, for scale context in the JSON.
  MonitorDaemon Probe(pumpOptions(Dir));
  if (auto Rec = Probe.start(); Rec.ok())
    for (const RecoveredTenant &T : Rec->Tenants)
      Sample.Queries += T.Queries;
  Probe.drain();
  return Sample;
}

struct ShedSample {
  double OfferedFactor = 0;
  unsigned Offered = 0;
  unsigned Admitted = 0;
  unsigned Shed = 0;
  unsigned Ok = 0;
  /// Admitted but answered without a value: policy refusals and coded ⊥
  /// (the sweep attacker exhausts the min-size budget fast, so this
  /// dominates once knowledge narrows — still sound, never shed).
  unsigned Bottom = 0;
  double PumpSeconds = 0;
};

/// One burst at \p Factor x queue capacity against a quiet pump-mode
/// daemon: deterministic shedding, then a timed pump of the backlog.
ShedSample shedPoint(MonitorDaemon &Daemon, const GeneratedTrace &Trace,
                     double Factor) {
  ShedSample Sample;
  Sample.OfferedFactor = Factor;
  Sample.Offered = static_cast<unsigned>(
      Factor * static_cast<double>(Daemon.queueCapacity()));

  std::vector<std::future<ServiceResponse>> Futs;
  for (unsigned I = 0; I != Sample.Offered; ++I) {
    const TraceStep &St = Trace.Steps[I % Trace.Steps.size()];
    ServiceRequest R;
    R.Kind = RequestKind::Downgrade;
    R.Tenant = "t0";
    R.Name = St.Name;
    R.Secret = Trace.Secrets[St.SecretIndex % Trace.Secrets.size()];
    Futs.push_back(Daemon.submit(std::move(R)));
  }
  Stopwatch W;
  Daemon.pump();
  Sample.PumpSeconds = W.seconds();
  for (auto &F : Futs) {
    ServiceResponse Resp = F.get();
    switch (Resp.Status) {
    case ResponseStatus::Ok:
      ++Sample.Admitted;
      ++Sample.Ok;
      break;
    case ResponseStatus::Bottom:
    case ResponseStatus::Refused:
    case ResponseStatus::Error:
      ++Sample.Admitted;
      ++Sample.Bottom;
      break;
    case ResponseStatus::Overloaded:
      ++Sample.Shed;
      break;
    }
  }
  return Sample;
}

void writeServiceBenchJson(const std::vector<ColdStartSample> &Cold,
                           const std::vector<ShedSample> &Shed,
                           unsigned QueueCapacity) {
  std::FILE *F = std::fopen("BENCH_service.json", "w");
  if (F == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_service.json\n");
    return;
  }
  std::fprintf(F, "{\n  \"cold_start\": [\n");
  for (size_t I = 0; I != Cold.size(); ++I) {
    const ColdStartSample &S = Cold[I];
    std::fprintf(F,
                 "    {\"tenants\": %u, \"queries\": %u, "
                 "\"salvage_s\": %.6f, \"register_s\": %.6f}%s\n",
                 S.Tenants, S.Queries, S.SalvageSeconds, S.RegisterSeconds,
                 I + 1 == Cold.size() ? "" : ",");
  }
  std::fprintf(F, "  ],\n  \"queue_capacity\": %u,\n", QueueCapacity);
  std::fprintf(F, "  \"admitted_vs_shed\": [\n");
  for (size_t I = 0; I != Shed.size(); ++I) {
    const ShedSample &S = Shed[I];
    std::fprintf(F,
                 "    {\"offered_factor\": %.2f, \"offered\": %u, "
                 "\"admitted\": %u, \"shed\": %u, \"ok\": %u, "
                 "\"refused_or_bottom\": %u, \"pump_s\": %.6f}%s\n",
                 S.OfferedFactor, S.Offered, S.Admitted, S.Shed, S.Ok,
                 S.Bottom, S.PumpSeconds, I + 1 == Shed.size() ? "" : ",");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Runs = parseRuns(Argc, Argv, 5);
  std::printf("anosyd service benchmarks (%u runs)\n\n", Runs);

  std::printf("== cold-start salvage vs tenant count ==\n");
  std::vector<ColdStartSample> Cold;
  for (unsigned Tenants : {1u, 2u, 4u, 8u}) {
    ColdStartSample S = coldStart(Tenants, Runs);
    std::printf("  %u tenants (%u queries): salvage %.4fs, "
                "register %.4fs\n",
                S.Tenants, S.Queries, S.SalvageSeconds, S.RegisterSeconds);
    Cold.push_back(S);
  }

  std::printf("\n== admitted vs shed over offered load ==\n");
  const unsigned Capacity = 16;
  DaemonOptions Opt = pumpOptions("");
  Opt.QueueCapacity = Capacity;
  MonitorDaemon Daemon(Opt);
  if (!Daemon.start().ok() || !registerTenants(Daemon, 1, 42)) {
    std::fprintf(stderr, "shed-curve daemon failed to start\n");
    return 1;
  }
  // A trace over tenant 0's module supplies realistic query traffic.
  ScenarioOptions SO;
  SO.Seed = 42;
  SO.Queries = 4;
  SO.PolicyMinSize = 8;
  SO.MaxDomainSize = 4000;
  GeneratedModule GM = generateScenarioModule(SO);
  auto M = parseModule(GM.Source);
  if (!M) {
    std::fprintf(stderr, "scenario module failed to parse\n");
    return 1;
  }
  TracePolicy TP;
  TP.K = TracePolicy::Kind::MinSize;
  TP.MinSize = 8;
  GeneratedTrace Trace = generateTrace(*M, GM.Name, AttackerStrategy::Sweep,
                                       TP, 7, 64);

  std::vector<ShedSample> Shed;
  for (double Factor : {0.5, 1.0, 1.5, 2.0, 3.0}) {
    ShedSample S = shedPoint(Daemon, Trace, Factor);
    std::printf("  %.1fx capacity: offered %u, admitted %u, shed %u "
                "(pump %.4fs)\n",
                S.OfferedFactor, S.Offered, S.Admitted, S.Shed,
                S.PumpSeconds);
    Shed.push_back(S);
  }
  Daemon.drain();

  writeServiceBenchJson(Cold, Shed, Capacity);
  std::printf("\nwrote BENCH_service.json\n");
  return 0;
}
