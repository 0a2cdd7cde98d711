//===- examples/anosyd.cpp - The anosy monitor daemon ---------------------===//
//
// The long-lived serving face of src/service (DESIGN.md §10): a
// multi-tenant monitor daemon with admission control, bounded-queue
// backpressure, deadlines, crash recovery, and graceful SIGTERM drain.
//
//   anosyd [--data-dir DIR] [--cache-dir DIR] [--queue-capacity N]
//          [--workers N] [--deadline-ms N] [--max-inflight N]
//          [--max-kb-bytes N] [--metrics-out FILE] [--fault-inject SPEC]
//       Serve mode: a line protocol on stdin, one JSON response per line
//       on stdout:
//         register <tenant> <module-path> [min-size]
//         downgrade <tenant> <query> <v1> [v2 ...]
//         classify <tenant> <classifier> <v1> [v2 ...]
//         flush <tenant>
//         metrics          (dump Prometheus text to stdout)
//         stats            (dump daemon counters as JSON)
//         quit             (drain and exit)
//       SIGTERM/SIGINT triggers the same graceful drain: intake stops,
//       the backlog runs dry, every tenant KB is flushed atomically.
//
//   anosyd --soak [--tenants N] [--sessions N] [--steps N] [--sps X]
//          [--burst X] [--seed N] ... (plus the serve-mode flags)
//       Self-drive mode for CI and overload experiments: starts the
//       daemon, runs the multi-tenant load harness against it
//       (oracle-checked), drains, and exits 0 iff no contract violation
//       was observed. --burst 2 is the ISSUE-7 overload shape: bursts of
//       2x queue capacity with workers paused, so shedding is
//       deterministic.
//
// Exit is 0 whenever the drain completed — including drains forced by
// SIGTERM mid-soak — and nonzero on contract violations or startup
// failures.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "service/LoadHarness.h"
#include "support/FaultInjection.h"
#include "support/ParseNum.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace anosy;
using namespace anosy::service;

namespace {

/// SIGTERM/SIGINT latch; polled by both loops (async-signal-safe).
volatile std::sig_atomic_t StopRequested = 0;

void onStopSignal(int) { StopRequested = 1; }

int usage() {
  std::fprintf(
      stderr,
      "usage: anosyd [--data-dir DIR] [--cache-dir DIR]\n"
      "              [--queue-capacity N] [--workers N]\n"
      "              [--deadline-ms N] [--max-inflight N]\n"
      "              [--max-kb-bytes N] [--metrics-out FILE]\n"
      "              [--fault-inject SPEC]\n"
      "   or: anosyd --soak [--tenants N] [--sessions N] [--steps N]\n"
      "              [--sps X] [--burst X] [--seed N] (plus serve flags)\n"
      "serve-mode stdin protocol:\n"
      "  register <tenant> <module-path> [min-size]\n"
      "  downgrade <tenant> <query> <v1> [v2 ...]\n"
      "  classify <tenant> <classifier> <v1> [v2 ...]\n"
      "  flush <tenant> | metrics | stats | quit\n");
  return 2;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  Out = Ss.str();
  return true;
}

std::string statsJson(const DaemonStats &S) {
  std::string Out = "{\"accepted\":" + std::to_string(S.Accepted);
  Out += ",\"shed\":" + std::to_string(S.Shed);
  Out += ",\"ok\":" + std::to_string(S.Ok);
  Out += ",\"refused\":" + std::to_string(S.Refused);
  Out += ",\"bottom\":" + std::to_string(S.Bottom);
  Out += ",\"deadline_expired\":" + std::to_string(S.DeadlineExpired);
  Out += ",\"errors\":" + std::to_string(S.Errors);
  Out += ",\"admit_skips\":" + std::to_string(S.AdmitSkips);
  Out += ",\"flushes\":" + std::to_string(S.Flushes);
  Out += ",\"flush_retries\":" + std::to_string(S.FlushRetries);
  Out += ",\"flush_failures\":" + std::to_string(S.FlushFailures);
  Out += ",\"cache_hits\":" + std::to_string(S.CacheHits);
  Out += ",\"cache_misses\":" + std::to_string(S.CacheMisses);
  Out += ",\"cache_stores\":" + std::to_string(S.CacheStores);
  Out += '}';
  return Out;
}

/// Serve mode: line protocol on stdin, one JSON line per response.
int serve(MonitorDaemon &Daemon, const std::string &MetricsOut) {
  std::string Line;
  while (!StopRequested && std::getline(std::cin, Line)) {
    std::istringstream Ss(Line);
    std::string Cmd;
    Ss >> Cmd;
    if (Cmd.empty())
      continue;
    if (Cmd == "quit")
      break;
    if (Cmd == "metrics") {
      std::fputs(obs::MetricsRegistry::global().renderPrometheus().c_str(),
                 stdout);
      std::fflush(stdout);
      continue;
    }
    if (Cmd == "stats") {
      std::printf("%s\n", statsJson(Daemon.stats()).c_str());
      std::fflush(stdout);
      continue;
    }

    ServiceRequest R;
    bool Parsed = true;
    if (Cmd == "register") {
      R.Kind = RequestKind::Register;
      std::string Path;
      Ss >> R.Tenant >> Path;
      int64_t MinSize = -1;
      if (Ss >> MinSize)
        R.MinSize = MinSize;
      if (R.Tenant.empty() || Path.empty() ||
          !readFile(Path, R.ModuleSource)) {
        std::printf("{\"id\":0,\"status\":\"error\",\"detail\":\"cannot "
                    "read module file\"}\n");
        std::fflush(stdout);
        continue;
      }
    } else if (Cmd == "downgrade" || Cmd == "classify") {
      R.Kind = Cmd == "downgrade" ? RequestKind::Downgrade
                                  : RequestKind::Classify;
      Ss >> R.Tenant >> R.Name;
      int64_t V;
      while (Ss >> V)
        R.Secret.push_back(V);
      Parsed = !R.Tenant.empty() && !R.Name.empty() && !R.Secret.empty();
    } else if (Cmd == "flush") {
      R.Kind = RequestKind::Flush;
      Ss >> R.Tenant;
      Parsed = !R.Tenant.empty();
    } else {
      Parsed = false;
    }
    if (!Parsed) {
      std::printf("{\"id\":0,\"status\":\"error\",\"detail\":\"bad "
                  "request line\"}\n");
      std::fflush(stdout);
      continue;
    }
    ServiceResponse Resp = Daemon.call(std::move(R));
    std::printf("%s\n", Resp.renderJson().c_str());
    std::fflush(stdout);
  }
  DrainReport Drain = Daemon.drain();
  std::fprintf(stderr,
               "anosyd: drained %llu queued requests, flushed %u tenants "
               "(%u failures) in %.3fs\n",
               static_cast<unsigned long long>(Drain.Drained),
               Drain.TenantsFlushed, Drain.FlushFailures, Drain.Seconds);
  if (!MetricsOut.empty())
    (void)obs::MetricsRegistry::global().writeFile(MetricsOut);
  return 0;
}

/// Self-drive soak for CI: generated multi-tenant load, oracle-checked,
/// then a graceful drain. SIGTERM mid-soak stops between waves.
int soak(MonitorDaemon &Daemon, const LoadOptions &LOpt,
         const std::string &MetricsOut) {
  LoadReport Rep = runLoad(Daemon, LOpt);
  DrainReport Drain = Daemon.drain();
  std::printf("%s\n", renderLoadReport(Rep).c_str());
  std::printf("%s\n", statsJson(Daemon.stats()).c_str());
  std::fprintf(stderr,
               "anosyd --soak: %llu steps, %llu admitted, %llu shed, "
               "%llu bottom, %llu mismatches; drained %llu, flushed %u\n",
               static_cast<unsigned long long>(Rep.Steps),
               static_cast<unsigned long long>(Rep.Admitted),
               static_cast<unsigned long long>(Rep.Shed),
               static_cast<unsigned long long>(Rep.Bottom),
               static_cast<unsigned long long>(Rep.Mismatches),
               static_cast<unsigned long long>(Drain.Drained),
               Drain.TenantsFlushed);
  for (const std::string &Msg : Rep.MismatchNotes)
    std::fprintf(stderr, "  %s\n", Msg.c_str());
  if (!MetricsOut.empty())
    (void)obs::MetricsRegistry::global().writeFile(MetricsOut);
  return Rep.Mismatches == 0 && Rep.TenantsFailed == 0 &&
                 Drain.FlushFailures == 0
             ? 0
             : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  DaemonOptions DOpt;
  LoadOptions LOpt;
  bool SoakMode = false;
  std::string MetricsOut;
  std::string FaultSpec;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    auto NextU64 = [&](const char *Flag) -> uint64_t {
      const char *V = Next();
      auto N = V != nullptr ? parseUint64(V) : std::nullopt;
      if (!N) {
        std::fprintf(stderr, "error: invalid value for %s\n", Flag);
        std::exit(2);
      }
      return *N;
    };
    auto NextDouble = [&](const char *Flag) -> double {
      const char *V = Next();
      auto X = V != nullptr ? parseDouble(V) : std::nullopt;
      if (!X) {
        std::fprintf(stderr, "error: invalid value for %s\n", Flag);
        std::exit(2);
      }
      return *X;
    };
    if (Arg == "--soak")
      SoakMode = true;
    else if (Arg == "--data-dir" && I + 1 < Argc)
      DOpt.DataDir = Argv[++I];
    else if (Arg == "--cache-dir" && I + 1 < Argc)
      DOpt.CacheDir = Argv[++I];
    else if (Arg == "--queue-capacity")
      DOpt.QueueCapacity = static_cast<size_t>(NextU64("--queue-capacity"));
    else if (Arg == "--workers")
      DOpt.Workers = static_cast<unsigned>(NextU64("--workers"));
    else if (Arg == "--deadline-ms")
      DOpt.DefaultDeadlineMs = NextU64("--deadline-ms");
    else if (Arg == "--max-inflight")
      DOpt.Quotas.MaxInFlight = static_cast<unsigned>(NextU64("--max-inflight"));
    else if (Arg == "--max-kb-bytes")
      DOpt.Quotas.MaxKbBytes = static_cast<size_t>(NextU64("--max-kb-bytes"));
    else if (Arg == "--metrics-out" && I + 1 < Argc)
      MetricsOut = Argv[++I];
    else if (Arg == "--fault-inject" && I + 1 < Argc)
      FaultSpec = Argv[++I];
    else if (Arg == "--tenants")
      LOpt.Tenants = static_cast<unsigned>(NextU64("--tenants"));
    else if (Arg == "--sessions")
      LOpt.Sessions = static_cast<unsigned>(NextU64("--sessions"));
    else if (Arg == "--steps")
      LOpt.StepsPerSession = static_cast<unsigned>(NextU64("--steps"));
    else if (Arg == "--seed")
      LOpt.Seed = NextU64("--seed");
    else if (Arg == "--sps")
      LOpt.SessionsPerSecond = NextDouble("--sps");
    else if (Arg == "--burst")
      LOpt.BurstFactor = NextDouble("--burst");
    else
      return usage();
  }

  // sigaction without SA_RESTART: a SIGTERM that lands while serve() is
  // blocked reading stdin must interrupt the read (EINTR) so the loop
  // can fall through into the drain — std::signal on glibc restarts the
  // read and the daemon would hang until the next input line.
  struct sigaction Sa;
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sa_handler = onStopSignal;
  sigemptyset(&Sa.sa_mask);
  sigaction(SIGTERM, &Sa, nullptr);
  sigaction(SIGINT, &Sa, nullptr);

  if (!FaultSpec.empty()) {
    auto FC = faults::parseSpec(FaultSpec);
    if (!FC) {
      std::fprintf(stderr, "bad --fault-inject spec: %s\n",
                   FC.error().str().c_str());
      return 2;
    }
    faults::configure(*FC);
  } else {
    faults::initFromEnv();
  }
  obs::setEnabled(true);
  LOpt.StepDeadlineMs = DOpt.DefaultDeadlineMs;

  MonitorDaemon Daemon(DOpt);
  auto Recovered = Daemon.start();
  if (!Recovered) {
    std::fprintf(stderr, "anosyd: start failed: %s\n",
                 Recovered.error().str().c_str());
    return 1;
  }
  if (!Recovered->Tenants.empty())
    std::fprintf(stderr,
                 "anosyd: recovered %u tenants (%u failed, %u damaged "
                 "records) in %.3fs\n",
                 Recovered->TenantsRecovered, Recovered->TenantsFailed,
                 Recovered->DamagedRecords, Recovered->Seconds);
  for (const RecoveredTenant &T : Recovered->Tenants)
    if (!T.Ok)
      std::fprintf(stderr, "anosyd: tenant %s not recovered: %s\n",
                   T.Tenant.c_str(), T.Error.c_str());

  return SoakMode ? soak(Daemon, LOpt, MetricsOut)
                  : serve(Daemon, MetricsOut);
}
