//===- service/Daemon.cpp - The anosyd multi-tenant monitor daemon --------===//

#include "service/Daemon.h"

#include "core/ArtifactIO.h"
#include "core/Policy.h"
#include "expr/Parser.h"
#include "obs/Instrument.h"
#include "support/FaultInjection.h"
#include "support/ParseNum.h"
#include "support/Stats.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <dirent.h>
#include <optional>
#include <string_view>
#include <sys/stat.h>

using namespace anosy;
using namespace anosy::service;

namespace {

using Clock = std::chrono::steady_clock;

/// Longest tenant name a Register may carry.
constexpr size_t MaxTenantNameBytes = 64;
/// Total attempts per tenant flush (transient-fault retries).
constexpr unsigned FlushAttempts = 3;
/// Backoff before the first flush retry, doubled per retry.
constexpr uint64_t RetryBackoffMs = 1;

/// mkdir -p: creates each prefix of \p Path, tolerating existing
/// directories. Errors surface later when the first write fails.
void makeDirs(const std::string &Path) {
  std::string Prefix;
  size_t Pos = 0;
  while (Pos <= Path.size()) {
    size_t Slash = Path.find('/', Pos);
    if (Slash == std::string::npos)
      Slash = Path.size();
    Prefix = Path.substr(0, Slash);
    if (!Prefix.empty())
      ::mkdir(Prefix.c_str(), 0755);
    Pos = Slash + 1;
  }
}

/// Tenant stems of every `<stem>.akb` under \p Dir, sorted so recovery
/// order (and hence the report) is deterministic.
std::vector<std::string> listKbStems(const std::string &Dir) {
  std::vector<std::string> Stems;
  DIR *D = ::opendir(Dir.c_str());
  if (D == nullptr)
    return Stems;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() > 4 && Name.rfind(".akb") == Name.size() - 4)
      Stems.push_back(Name.substr(0, Name.size() - 4));
  }
  ::closedir(D);
  std::sort(Stems.begin(), Stems.end());
  return Stems;
}

/// Plain (non-fault-injected) read of the tiny policy sidecar; the KB
/// fault sites stay focused on the knowledge base itself.
std::optional<std::string> readSmallFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (F == nullptr)
    return std::nullopt;
  std::string Text;
  char Buf[512];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);
  return Text;
}

/// Parses the `min-size <N>` sidecar: everything after the key, bar one
/// trailing newline, must be one int64. nullopt on anything else, which
/// fails the tenant's recovery closed rather than dropping its policy.
std::optional<int64_t> parseMetaMinSize(std::string_view Text) {
  constexpr std::string_view Key = "min-size ";
  if (!Text.starts_with(Key))
    return std::nullopt;
  Text.remove_prefix(Key.size());
  if (Text.ends_with('\n'))
    Text.remove_suffix(1);
  return parseInt64(Text);
}

/// A tenant name becomes a file stem under the data directory, so it is
/// 1–64 bytes of [A-Za-z0-9_-]: no separator, no dot, nothing that can
/// leave the directory or hide in it.
bool validTenantName(std::string_view Name) {
  if (Name.empty() || Name.size() > MaxTenantNameBytes)
    return false;
  return std::all_of(Name.begin(), Name.end(), [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
           (C >= '0' && C <= '9') || C == '_' || C == '-';
  });
}

KnowledgePolicy<Box> policyForMinSize(int64_t MinSize) {
  return MinSize >= 0 ? minSizePolicy<Box>(MinSize) : permissivePolicy<Box>();
}

uint64_t remainingMs(Clock::time_point Deadline) {
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
      Deadline - Clock::now());
  return Left.count() <= 1 ? 1 : static_cast<uint64_t>(Left.count());
}

} // namespace

MonitorDaemon::MonitorDaemon(DaemonOptions InOptions)
    : Options(std::move(InOptions)), Queue(Options.QueueCapacity) {}

MonitorDaemon::~MonitorDaemon() {
  if (Started.load(std::memory_order_relaxed))
    drain();
}

std::shared_ptr<MonitorDaemon::Shard>
MonitorDaemon::findShard(const std::string &Tenant) const {
  std::lock_guard<std::mutex> Lock(TenantsMu);
  auto It = Tenants.find(Tenant);
  return It == Tenants.end() ? nullptr : It->second;
}

bool MonitorDaemon::installShard(std::shared_ptr<Shard> S) {
  std::lock_guard<std::mutex> Lock(TenantsMu);
  bool Inserted = Tenants.emplace(S->Name, std::move(S)).second;
  if (Inserted)
    ANOSY_OBS_GAUGE_SET("anosyd_tenants", "Registered tenant shards",
                        static_cast<int64_t>(Tenants.size()));
  return Inserted;
}

std::vector<std::string> MonitorDaemon::tenantNames() const {
  std::lock_guard<std::mutex> Lock(TenantsMu);
  std::vector<std::string> Names;
  Names.reserve(Tenants.size());
  for (const auto &KV : Tenants)
    Names.push_back(KV.first);
  return Names;
}

const AnosySession<Box> *
MonitorDaemon::tenantSession(const std::string &Tenant) const {
  std::shared_ptr<Shard> S = findShard(Tenant);
  return S != nullptr ? S->Session.get() : nullptr;
}

DaemonStats MonitorDaemon::stats() const {
  DaemonStats Out;
  Out.Accepted = Stat.Accepted.load(std::memory_order_relaxed);
  Out.Shed = Stat.Shed.load(std::memory_order_relaxed);
  Out.Ok = Stat.Ok.load(std::memory_order_relaxed);
  Out.Refused = Stat.Refused.load(std::memory_order_relaxed);
  Out.Bottom = Stat.Bottom.load(std::memory_order_relaxed);
  Out.DeadlineExpired = Stat.DeadlineExpired.load(std::memory_order_relaxed);
  Out.Errors = Stat.Errors.load(std::memory_order_relaxed);
  Out.AdmitSkips = Stat.AdmitSkips.load(std::memory_order_relaxed);
  Out.Flushes = Stat.Flushes.load(std::memory_order_relaxed);
  Out.FlushRetries = Stat.FlushRetries.load(std::memory_order_relaxed);
  Out.FlushFailures = Stat.FlushFailures.load(std::memory_order_relaxed);
  if (Cache != nullptr) {
    ArtifactCache::Counters C = Cache->counters();
    Out.CacheHits = C.Hits;
    Out.CacheMisses = C.Misses;
    Out.CacheStores = C.Stores;
  }
  return Out;
}

Result<RecoveryReport> MonitorDaemon::start() {
  if (Started.exchange(true, std::memory_order_acq_rel))
    return Error(ErrorCode::Other, "daemon already started");
  ANOSY_OBS_SPAN(Span, "anosyd.recover");
  Stopwatch Timer;

  if (!Options.CacheDir.empty()) {
    makeDirs(Options.CacheDir);
    Cache = std::make_unique<ArtifactCache>(Options.CacheDir);
  }

  if (!Options.DataDir.empty()) {
    makeDirs(Options.DataDir);
    for (const std::string &Tenant : listKbStems(Options.DataDir)) {
      RecoveredTenant Row;
      Row.Tenant = Tenant;
      auto Fail = [&](std::string Why) {
        Row.Error = std::move(Why);
        ++Recovery.TenantsFailed;
        Recovery.Tenants.push_back(std::move(Row));
      };
      std::string KbPath = Options.DataDir + "/" + Tenant + ".akb";
      std::string MetaPath = Options.DataDir + "/" + Tenant + ".meta";
      // The sidecar holds the tenant's policy; serving the KB without it
      // would answer under no policy at all.
      auto Meta = readSmallFile(MetaPath);
      if (!Meta) {
        Fail("policy sidecar " + MetaPath + " is missing or unreadable");
        continue;
      }
      std::optional<int64_t> MinSize = parseMetaMinSize(*Meta);
      if (!MinSize) {
        Fail("policy sidecar " + MetaPath +
             " is malformed (expected 'min-size <int64>')");
        continue;
      }

      auto Text = readKnowledgeBaseFile(KbPath);
      if (!Text) {
        Fail(Text.error().message());
        continue;
      }
      SessionOptions SOpt = Options.Session;
      SOpt.Cache = Cache.get();
      auto S = AnosySession<Box>::createFromKnowledgeBase(
          *Text, policyForMinSize(*MinSize), SOpt);
      if (!S) {
        Fail(S.error().message());
        continue;
      }
      Row.Ok = true;
      Row.Queries = static_cast<unsigned>(S->module().queries().size());
      for (const QueryDegradation &Q : S->degradation().Queries)
        if (Q.Reason == DegradationReason::KnowledgeBaseCorrupt ||
            Q.Reason == DegradationReason::LoadedArtifactInvalid)
          ++Row.DamagedRecords;

      auto NewShard = std::make_shared<Shard>();
      NewShard->Name = Tenant;
      NewShard->MinSize = *MinSize;
      NewShard->KbPath = KbPath;
      NewShard->MetaPath = MetaPath;
      NewShard->Session =
          std::make_unique<AnosySession<Box>>(S.takeValue());
      if (Row.DamagedRecords != 0) {
        // Repair the on-disk KB from the resynthesized artifacts right
        // away; the drain flush retries a failed repair.
        std::lock_guard<std::mutex> Lock(NewShard->ExecMu);
        (void)flushLocked(*NewShard,
                          NewShard->Session->exportKnowledgeBase());
      }
      installShard(NewShard);
      ++Recovery.TenantsRecovered;
      Recovery.DamagedRecords += Row.DamagedRecords;
      Recovery.Tenants.push_back(std::move(Row));
    }
  }
  Recovery.Seconds = Timer.seconds();
  ANOSY_OBS_SPAN_ARG(Span, "tenants", Recovery.TenantsRecovered);
  ANOSY_OBS_SPAN_ARG(Span, "damaged_records", Recovery.DamagedRecords);
  ANOSY_OBS_GAUGE_SET("anosyd_recovered_tenants",
                      "Tenants salvaged from the data directory at startup",
                      static_cast<int64_t>(Recovery.TenantsRecovered));
  ANOSY_OBS_GAUGE_SET(
      "anosyd_recovered_damaged_records",
      "KB records resynthesized or dropped by startup salvage",
      static_cast<int64_t>(Recovery.DamagedRecords));

  for (unsigned I = 0; I != Options.Workers; ++I)
    WorkerThreads.emplace_back([this] { workerLoop(); });
  return Recovery;
}

std::future<ServiceResponse> MonitorDaemon::submit(ServiceRequest R) {
  Clock::time_point Accepted = Clock::now();
  uint64_t Id = NextId.fetch_add(1, std::memory_order_relaxed) + 1;
  Stat.Accepted.fetch_add(1, std::memory_order_relaxed);
  ANOSY_OBS_COUNT("anosyd_requests_total",
                  "Requests through the anosyd front door", 1);

  std::promise<ServiceResponse> P;
  std::future<ServiceResponse> Fut = P.get_future();
  auto RejectNow = [&](ResponseStatus St, ReasonCode RC, std::string Detail) {
    ServiceResponse Resp;
    Resp.Id = Id;
    Resp.Status = St;
    Resp.Reason = RC;
    Resp.Detail = std::move(Detail);
    if (St == ResponseStatus::Overloaded) {
      Stat.Shed.fetch_add(1, std::memory_order_relaxed);
      ANOSY_OBS_COUNT("anosyd_shed_total",
                      "Requests shed by admission control or the queue", 1);
    } else if (St == ResponseStatus::Error) {
      Stat.Errors.fetch_add(1, std::memory_order_relaxed);
    }
    P.set_value(std::move(Resp));
  };

  if (!Started.load(std::memory_order_relaxed) ||
      Draining.load(std::memory_order_relaxed)) {
    RejectNow(ResponseStatus::Overloaded, ReasonCode::Shed,
              "daemon is draining; request not accepted");
    return Fut;
  }
  if (faults::armed() && faults::shouldFail(FaultSite::ServiceAccept)) {
    RejectNow(ResponseStatus::Overloaded, ReasonCode::Shed,
              "transient accept fault; retry");
    return Fut;
  }

  std::shared_ptr<Shard> S;
  if (R.Kind == RequestKind::Register) {
    if (!validTenantName(R.Tenant)) {
      RejectNow(ResponseStatus::Error, ReasonCode::None,
                "invalid tenant name: expected 1-64 bytes of [A-Za-z0-9_-]");
      return Fut;
    }
    if (findShard(R.Tenant) != nullptr) {
      RejectNow(ResponseStatus::Error, ReasonCode::None,
                "tenant already registered: " + R.Tenant);
      return Fut;
    }
    // Front-door admission, step 1: a module that does not parse never
    // enters the queue. Step 2 (anosy-lint policy admission) runs inside
    // session creation with StaticAdmission forced on.
    auto M = parseModule(R.ModuleSource);
    if (!M) {
      RejectNow(ResponseStatus::Error, ReasonCode::None,
                "module rejected at the front door: " + M.error().message());
      return Fut;
    }
  } else {
    S = findShard(R.Tenant);
    if (S == nullptr) {
      RejectNow(ResponseStatus::Error, ReasonCode::None,
                "unknown tenant: " + R.Tenant);
      return Fut;
    }
    if (S->InFlight.load(std::memory_order_relaxed) >=
        Options.Quotas.MaxInFlight) {
      RejectNow(ResponseStatus::Overloaded, ReasonCode::Shed,
                "tenant in-flight quota exceeded: " + R.Tenant);
      return Fut;
    }
    S->InFlight.fetch_add(1, std::memory_order_relaxed);
  }

  WorkItem Item;
  Item.Req = std::move(R);
  Item.Id = Id;
  Item.Accepted = Accepted;
  uint64_t DeadlineMs =
      Item.Req.DeadlineMs != 0 ? Item.Req.DeadlineMs : Options.DefaultDeadlineMs;
  if (DeadlineMs != 0) {
    Item.Deadline = Accepted + std::chrono::milliseconds(DeadlineMs);
    Item.HasDeadline = true;
  }
  Item.Promise = std::move(P);

  bool EnqueueFault =
      faults::armed() && faults::shouldFail(FaultSite::ServiceEnqueue);
  if (EnqueueFault || !Queue.push(std::move(Item))) {
    if (S != nullptr)
      S->InFlight.fetch_sub(1, std::memory_order_relaxed);
    ServiceResponse Resp;
    Resp.Id = Id;
    Resp.Status = ResponseStatus::Overloaded;
    Resp.Reason = ReasonCode::Shed;
    Resp.Detail = EnqueueFault ? "enqueue fault injected; request shed"
                               : "request queue full; request shed";
    Stat.Shed.fetch_add(1, std::memory_order_relaxed);
    ANOSY_OBS_COUNT("anosyd_shed_total",
                    "Requests shed by admission control or the queue", 1);
    Item.Promise.set_value(std::move(Resp));
    return Fut;
  }
  ANOSY_OBS_GAUGE_MAX("anosyd_queue_depth_peak",
                      "High-water mark of the bounded request queue",
                      static_cast<int64_t>(Queue.depth()));
  return Fut;
}

ServiceResponse MonitorDaemon::call(ServiceRequest R) {
  std::future<ServiceResponse> Fut = submit(std::move(R));
  if (Options.Workers == 0)
    pump();
  return Fut.get();
}

size_t MonitorDaemon::pump(size_t MaxItems) {
  size_t N = 0;
  while (N < MaxItems) {
    auto Item = Queue.tryPop();
    if (!Item)
      break;
    executeItem(std::move(*Item));
    ++N;
  }
  return N;
}

void MonitorDaemon::pauseWorkers() { Queue.setPaused(true); }
void MonitorDaemon::resumeWorkers() { Queue.setPaused(false); }

void MonitorDaemon::workerLoop() {
  while (auto Item = Queue.pop())
    executeItem(std::move(*Item));
}

void MonitorDaemon::finishResponse(ServiceResponse &Resp,
                                   const WorkItem &Item) {
  Resp.Id = Item.Id;
  Resp.Seconds = std::chrono::duration<double>(Clock::now() - Item.Accepted)
                     .count();
  switch (Resp.Status) {
  case ResponseStatus::Ok:
    Stat.Ok.fetch_add(1, std::memory_order_relaxed);
    break;
  case ResponseStatus::Refused:
    Stat.Refused.fetch_add(1, std::memory_order_relaxed);
    break;
  case ResponseStatus::Bottom:
    Stat.Bottom.fetch_add(1, std::memory_order_relaxed);
    ANOSY_OBS_COUNT("anosyd_bottom_total",
                    "Requests answered with an explicit bottom", 1);
    if (Resp.Reason == ReasonCode::Deadline) {
      Stat.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
      ANOSY_OBS_COUNT("anosyd_deadline_expired_total",
                      "Requests that hit their deadline", 1);
    }
    break;
  case ResponseStatus::Overloaded:
    Stat.Shed.fetch_add(1, std::memory_order_relaxed);
    break;
  case ResponseStatus::Error:
    Stat.Errors.fetch_add(1, std::memory_order_relaxed);
    break;
  }
  ANOSY_OBS_OBSERVE_SECONDS("anosyd_request_seconds",
                            "Accept-to-completion request latency",
                            Resp.Seconds);
}

void MonitorDaemon::executeItem(WorkItem Item) {
  ANOSY_OBS_SPAN(Span, "anosyd.request");
  ANOSY_OBS_SPAN_ARG(Span, "kind", requestKindName(Item.Req.Kind));
  ANOSY_OBS_SPAN_ARG(Span, "tenant", Item.Req.Tenant);
  ANOSY_OBS_SPAN_ARG(Span, "id", Item.Id);

  std::shared_ptr<Shard> S;
  if (Item.Req.Kind != RequestKind::Register)
    S = findShard(Item.Req.Tenant);

  ServiceResponse Resp;
  if (Item.HasDeadline && Clock::now() >= Item.Deadline) {
    // The request outlived its deadline while queued: answer ⊥ with the
    // deadline code rather than executing late — queue wait counts
    // against the caller's budget, and ⊥ is always sound.
    Resp.Status = ResponseStatus::Bottom;
    Resp.Reason = ReasonCode::Deadline;
    Resp.Detail = "deadline expired before execution";
  } else {
    switch (Item.Req.Kind) {
    case RequestKind::Register:
      Resp = executeRegister(Item);
      break;
    case RequestKind::Downgrade:
    case RequestKind::Classify:
      if (S == nullptr) {
        Resp.Status = ResponseStatus::Error;
        Resp.Detail = "unknown tenant: " + Item.Req.Tenant;
      } else {
        Resp = executeQuery(Item, *S);
      }
      break;
    case RequestKind::Flush:
      if (S == nullptr) {
        Resp.Status = ResponseStatus::Error;
        Resp.Detail = "unknown tenant: " + Item.Req.Tenant;
      } else {
        Resp = executeFlush(Item, *S);
      }
      break;
    }
  }
  if (S != nullptr)
    S->InFlight.fetch_sub(1, std::memory_order_relaxed);
  finishResponse(Resp, Item);
  ANOSY_OBS_SPAN_ARG(Span, "status", responseStatusName(Resp.Status));
  Item.Promise.set_value(std::move(Resp));
}

ServiceResponse MonitorDaemon::executeRegister(const WorkItem &Item) {
  ANOSY_OBS_SPAN(Span, "anosyd.register");
  ServiceResponse Resp;
  auto M = parseModule(Item.Req.ModuleSource);
  if (!M) {
    Resp.Status = ResponseStatus::Error;
    Resp.Detail = "module parse failed: " + M.error().message();
    return Resp;
  }

  SessionOptions SOpt = Options.Session;
  SOpt.Cache = Cache.get();
  // Front-door admission, step 2: anosy-lint policy admission on every
  // registration. A service-admit fault makes the analysis transiently
  // unavailable; lint is a sound optimization, so the tolerated response
  // is to proceed without it (answers are unchanged, only cost moves).
  SOpt.StaticAdmission = true;
  bool AdmitSkipped =
      faults::armed() && faults::shouldFail(FaultSite::ServiceAdmit);
  if (AdmitSkipped) {
    SOpt.StaticAdmission = false;
    Stat.AdmitSkips.fetch_add(1, std::memory_order_relaxed);
    ANOSY_OBS_COUNT("anosyd_admit_skips_total",
                    "Registrations that skipped lint admission on a fault",
                    1);
  }
  // Deadline propagation (request → SolverBudget): whatever deadline
  // remains after queueing becomes the session deadline, which every
  // solver charge of the registration checks.
  if (Item.HasDeadline)
    SOpt.DeadlineMs = remainingMs(Item.Deadline);
  auto S = AnosySession<Box>::create(std::move(*M),
                                     policyForMinSize(Item.Req.MinSize), SOpt);
  if (!S) {
    Resp.Status = ResponseStatus::Error;
    Resp.Detail = "registration failed: " + S.error().message();
    return Resp;
  }

  // Per-tenant KB quota: the serialized knowledge base is both the disk
  // footprint and (within a constant) the resident artifact size, so one
  // bound covers both.
  std::string KbText = S->exportKnowledgeBase();
  if (KbText.size() > Options.Quotas.MaxKbBytes) {
    Resp.Status = ResponseStatus::Error;
    Resp.Detail = "knowledge-base quota exceeded: " +
                  std::to_string(KbText.size()) + " > " +
                  std::to_string(Options.Quotas.MaxKbBytes) + " bytes";
    return Resp;
  }

  auto NewShard = std::make_shared<Shard>();
  NewShard->Name = Item.Req.Tenant;
  NewShard->MinSize = Item.Req.MinSize;
  if (!Options.DataDir.empty()) {
    NewShard->KbPath = Options.DataDir + "/" + Item.Req.Tenant + ".akb";
    NewShard->MetaPath = Options.DataDir + "/" + Item.Req.Tenant + ".meta";
  }
  Resp.Queries = static_cast<unsigned>(S->module().queries().size());
  Resp.Classifiers = static_cast<unsigned>(S->module().classifiers().size());
  for (const QueryDegradation &Q : S->degradation().Queries)
    Resp.Degraded.push_back({Q.Query, Q.code(), Q.FellBack});
  NewShard->Session = std::make_unique<AnosySession<Box>>(S.takeValue());

  if (!installShard(NewShard)) {
    Resp.Status = ResponseStatus::Error;
    Resp.Detail = "tenant already registered: " + Item.Req.Tenant;
    Resp.Queries = 0;
    Resp.Classifiers = 0;
    Resp.Degraded.clear();
    return Resp;
  }
  Resp.Status = ResponseStatus::Ok;
  if (AdmitSkipped)
    Resp.Detail = "lint admission skipped (transient fault)";

  if (!Options.DataDir.empty()) {
    std::lock_guard<std::mutex> Lock(NewShard->ExecMu);
    if (auto W = flushLocked(*NewShard, KbText); !W) {
      // Tolerated: the tenant serves from memory; the drain flush (or an
      // explicit Flush request) retries persistence.
      if (!Resp.Detail.empty())
        Resp.Detail += "; ";
      Resp.Detail += "initial flush deferred: " + W.error().message();
    }
  }
  return Resp;
}

ServiceResponse MonitorDaemon::executeQuery(const WorkItem &Item, Shard &S) {
  ServiceResponse Resp;
  // Per-shard serialization: one tenant's requests execute one at a
  // time, in queue order per worker — the sequential-attacker semantics
  // knowledge tracking is sound for.
  std::lock_guard<std::mutex> Lock(S.ExecMu);
  ANOSY_OBS_SPAN(Span, "anosyd.execute");
  ANOSY_OBS_SPAN_ARG(Span, "query", Item.Req.Name);

  auto MapError = [&](const Error &E) {
    if (E.code() == ErrorCode::PolicyViolation) {
      const QueryDegradation *QD =
          S.Session->degradation().find(Item.Req.Name);
      if (QD != nullptr && QD->FellBack) {
        // The artifact fell to ⊥ during registration; the policy refusal
        // is the ⊥ answer surfacing. Attach the machine-readable code so
        // the caller can tell deadline from budget from admission.
        Resp.Status = ResponseStatus::Bottom;
        Resp.Reason = QD->code();
        Resp.Detail = E.message();
        return;
      }
      Resp.Status = ResponseStatus::Refused;
      Resp.Detail = E.message();
      return;
    }
    if (E.code() == ErrorCode::UnknownQuery) {
      Resp.Status = ResponseStatus::Refused;
      Resp.Detail = E.message();
      return;
    }
    Resp.Status = ResponseStatus::Error;
    Resp.Detail = E.message();
  };

  // Front-line input validation: a secret outside the tenant's schema is
  // a malformed request, not a downgrade — the tracker asserts on it,
  // and an assert is a crash the daemon's contract forbids.
  if (!S.Session->module().schema().contains(Item.Req.Secret)) {
    Resp.Status = ResponseStatus::Refused;
    Resp.Detail = "secret outside the tenant's schema";
    return Resp;
  }

  if (Item.Req.Kind == RequestKind::Downgrade) {
    auto R = S.Session->downgrade(Item.Req.Secret, Item.Req.Name);
    if (R) {
      Resp.Status = ResponseStatus::Ok;
      Resp.HasBool = true;
      Resp.BoolValue = *R;
    } else {
      MapError(R.error());
    }
  } else {
    auto R = S.Session->downgradeClassifier(Item.Req.Secret, Item.Req.Name);
    if (R) {
      Resp.Status = ResponseStatus::Ok;
      Resp.HasInt = true;
      Resp.IntValue = *R;
    } else {
      MapError(R.error());
    }
  }
  return Resp;
}

ServiceResponse MonitorDaemon::executeFlush(const WorkItem &Item, Shard &S) {
  ServiceResponse Resp;
  std::lock_guard<std::mutex> Lock(S.ExecMu);
  if (auto W = flushLocked(S, S.Session->exportKnowledgeBase())) {
    Resp.Status = ResponseStatus::Ok;
  } else {
    Resp.Status = ResponseStatus::Error;
    Resp.Detail = W.error().message();
  }
  (void)Item;
  return Resp;
}

Result<void> MonitorDaemon::flushLocked(Shard &S, const std::string &KbText) {
  if (S.KbPath.empty())
    return {}; // In-memory daemon: nothing to persist.
  ANOSY_OBS_SPAN(Span, "anosyd.flush");
  ANOSY_OBS_SPAN_ARG(Span, "tenant", S.Name);
  std::string MetaText = "min-size " + std::to_string(S.MinSize) + "\n";
  for (unsigned Attempt = 0; Attempt != FlushAttempts; ++Attempt) {
    if (Attempt != 0) {
      Stat.FlushRetries.fetch_add(1, std::memory_order_relaxed);
      ANOSY_OBS_COUNT("anosyd_flush_retries_total",
                      "KB flush attempts retried after transient faults", 1);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(RetryBackoffMs << (Attempt - 1)));
    }
    // A service-flush fault models a crash between serialize and write:
    // the destination keeps its previous valid contents.
    if (faults::armed() && faults::shouldFail(FaultSite::ServiceFlush))
      continue;
    // Sidecar first: a crash between the two renames leaves either no KB
    // (the tenant is not recovered) or a KB beside its policy, never a KB
    // without one.
    if (auto WM = writeKnowledgeBaseFileAtomic(S.MetaPath, MetaText); !WM)
      continue; // Torn write (kb-write fault or I/O error): retry.
    if (auto W = writeKnowledgeBaseFileAtomic(S.KbPath, KbText); !W)
      continue;
    Stat.Flushes.fetch_add(1, std::memory_order_relaxed);
    ANOSY_OBS_COUNT("anosyd_flushes_total",
                    "Tenant KBs flushed to the data directory", 1);
    return {};
  }
  Stat.FlushFailures.fetch_add(1, std::memory_order_relaxed);
  ANOSY_OBS_COUNT("anosyd_flush_failures_total",
                  "KB flushes that failed after every retry", 1);
  return Error(ErrorCode::Other,
               "flush failed after " + std::to_string(FlushAttempts) +
                   " attempts for tenant '" + S.Name + "'");
}

DrainReport MonitorDaemon::drain() {
  if (!Started.load(std::memory_order_relaxed) ||
      DrainDone.load(std::memory_order_relaxed))
    return LastDrain;
  Stopwatch Timer;
  ANOSY_OBS_SPAN(Span, "anosyd.drain");
  Draining.store(true, std::memory_order_relaxed);
  size_t Backlog = Queue.depth();
  Queue.close();
  for (std::thread &T : WorkerThreads)
    T.join();
  WorkerThreads.clear();
  if (Options.Workers == 0)
    Backlog = pump();

  DrainReport Rep;
  Rep.Drained = Backlog;
  std::vector<std::shared_ptr<Shard>> Shards;
  {
    std::lock_guard<std::mutex> Lock(TenantsMu);
    for (const auto &KV : Tenants)
      Shards.push_back(KV.second);
  }
  for (const std::shared_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->ExecMu);
    if (S->KbPath.empty())
      continue;
    if (flushLocked(*S, S->Session->exportKnowledgeBase()))
      ++Rep.TenantsFlushed;
    else
      ++Rep.FlushFailures;
  }
  Rep.Seconds = Timer.seconds();
  LastDrain = Rep;
  DrainDone.store(true, std::memory_order_relaxed);
  return Rep;
}
