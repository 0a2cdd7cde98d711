//===- service/Daemon.h - The anosyd multi-tenant monitor daemon *- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MonitorDaemon (DESIGN.md §10): the long-lived serving loop that turns
/// the library substrate — AnosySession, KB v2 salvage, lint admission,
/// degradation ladders, obs — into an overload-resilient multi-tenant
/// service. The paper's economics are synthesize-once/serve-forever
/// (§6.1): registration pays the synthesis cost once, then downgrades are
/// interval intersections, so one daemon amortizes a tenant's artifacts
/// across every request for the life of the process (and, through the
/// data directory, across restarts).
///
/// Robustness contract (the ISSUE-7 gate): under 2× queue capacity and
/// armed fault injection the daemon never crashes, never exceeds its
/// queue/KB bounds, and answers every request deterministically — an
/// admitted result, a sound refusal, an explicit ⊥ with a reason code, or
/// an explicit Overloaded. The moving parts:
///
///  * Tenant shards: each tenant owns one AnosySession and a per-shard
///    mutex. Execution is serialized per shard, so concurrent clients of
///    one tenant observe *some* sequential-attacker interleaving — the
///    serialized semantics "Assume but Verify"-style concurrent monitors
///    reduce to — and knowledge tracking stays sound.
///  * Front door: a Register's tenant name must be 1–64 bytes of
///    [A-Za-z0-9_-] (it names the tenant's files), and its module is
///    parsed and lint-admitted before it may queue; per-tenant quotas
///    (in-flight, session nodes, KB bytes) bound each tenant's resource
///    share.
///  * Bounded queue: push refuses when full; refusals become Overloaded
///    responses (ReasonCode::Shed) — deterministic load shedding, never
///    producer blocking.
///  * Deadlines: each request's deadline is stamped at accept; queue wait
///    counts against it (expired items answer ⊥/deadline unexecuted) and
///    registrations propagate the remainder into their session budget,
///    whose every solver charge reads the clock, so a registration stops
///    at the first node past its deadline.
///  * Lifecycle: start() salvages every tenant KB in the data directory
///    (kill -9 mid-write recovers to a verified state); a KB whose policy
///    sidecar is missing or malformed fails that tenant closed. drain()
///    stops intake, runs the backlog dry, joins workers, and flushes
///    every tenant (sidecar, then KB) with the atomic temp+fsync+rename
///    writer, retrying transient faults with backoff.
///
/// The worker threads are the daemon's only threads. Workers = 0 selects
/// manual-pump mode: no threads, pump() executes the backlog on the
/// caller — the fully deterministic configuration the unit tests pin
/// shed counts and deadline behavior with.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_SERVICE_DAEMON_H
#define ANOSY_SERVICE_DAEMON_H

#include "cache/ArtifactCache.h"
#include "core/AnosySession.h"
#include "domains/Box.h"
#include "service/RequestQueue.h"
#include "service/Service.h"

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace anosy::service {

/// Per-tenant resource bounds, enforced at the front door.
struct TenantQuotas {
  /// Queued + executing requests per tenant; excess is shed.
  unsigned MaxInFlight = 32;
  /// Serialized knowledge-base size cap; a registration whose KB would
  /// exceed it is rejected (the in-memory bound and the disk bound are
  /// the same number).
  size_t MaxKbBytes = size_t(1) << 20;
};

/// One tenant's salvage outcome at startup.
struct RecoveredTenant {
  std::string Tenant;
  bool Ok = false;
  unsigned Queries = 0;
  /// Records the salvage loader had to resynthesize or drop.
  unsigned DamagedRecords = 0;
  std::string Error;
};

/// Everything start() recovered from the data directory.
struct RecoveryReport {
  std::vector<RecoveredTenant> Tenants;
  unsigned TenantsRecovered = 0;
  unsigned TenantsFailed = 0;
  unsigned DamagedRecords = 0;
  double Seconds = 0;
};

/// What drain() did.
struct DrainReport {
  /// Backlogged requests resolved during the drain.
  uint64_t Drained = 0;
  unsigned TenantsFlushed = 0;
  unsigned FlushFailures = 0;
  double Seconds = 0;
};

/// Always-on counters (plain atomics, independent of the obs switch);
/// snapshot via MonitorDaemon::stats().
struct DaemonStats {
  uint64_t Accepted = 0;
  uint64_t Shed = 0;
  uint64_t Ok = 0;
  uint64_t Refused = 0;
  uint64_t Bottom = 0;
  uint64_t DeadlineExpired = 0;
  uint64_t Errors = 0;
  uint64_t AdmitSkips = 0;
  uint64_t Flushes = 0;
  uint64_t FlushRetries = 0;
  uint64_t FlushFailures = 0;
  /// Cross-process synthesis-cache traffic (snapshot of the shared
  /// ArtifactCache counters; all zero when CacheDir is empty).
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheStores = 0;
};

struct DaemonOptions {
  /// Knowledge-base persistence root; empty serves purely in memory.
  /// Created (with parents) at start().
  std::string DataDir;
  /// Content-addressed synthesis-cache root (DESIGN.md §12); empty
  /// disables caching. Created (with parents) at start(). Safe to share
  /// between concurrently running daemons: entries publish atomically and
  /// every hit is re-verified before it is trusted.
  std::string CacheDir;
  /// Bounded-queue capacity; pushes beyond it shed.
  size_t QueueCapacity = 64;
  /// Worker threads. 0 = manual-pump mode (deterministic; see pump()).
  unsigned Workers = 2;
  /// Deadline applied to requests that do not carry their own; 0 = none.
  uint64_t DefaultDeadlineMs = 0;
  TenantQuotas Quotas;
  /// Base options for every tenant session (budgets, retry policy, ...).
  /// Each session registers serially on the worker serving its tenant;
  /// the workers are the daemon's only concurrency. StaticAdmission is
  /// forced on per registration — the front door's lint admission —
  /// unless a service-admit fault skips it.
  SessionOptions Session;
};

class MonitorDaemon {
public:
  explicit MonitorDaemon(DaemonOptions Options);
  ~MonitorDaemon();

  MonitorDaemon(const MonitorDaemon &) = delete;
  MonitorDaemon &operator=(const MonitorDaemon &) = delete;

  /// Salvages every `<tenant>.akb` under DataDir (damaged records
  /// resynthesize, lost records drop — see createFromKnowledgeBase),
  /// then spawns the workers. A tenant whose KB is
  /// unreadable, or whose `<tenant>.meta` policy sidecar is missing or
  /// malformed, is not served. Per-tenant salvage failures are reported,
  /// not fatal: the daemon serves what it recovered.
  Result<RecoveryReport> start();

  /// The front door. Always returns a future that resolves — to an
  /// immediate Overloaded/Error for shed or invalid requests, or to the
  /// executed response. Never blocks on the queue.
  std::future<ServiceResponse> submit(ServiceRequest R);

  /// submit + wait. In manual-pump mode this pumps the backlog first so
  /// the call cannot deadlock.
  ServiceResponse call(ServiceRequest R);

  /// Manual-pump mode: executes up to \p MaxItems queued requests on the
  /// calling thread; returns how many ran. No-op when worker threads own
  /// the queue.
  size_t pump(size_t MaxItems = SIZE_MAX);

  /// Graceful drain (the SIGTERM path): stop intake, run the backlog
  /// dry, join the workers, flush every tenant KB (atomic write + fsync,
  /// retry with backoff). Idempotent.
  DrainReport drain();

  bool draining() const {
    return Draining.load(std::memory_order_relaxed);
  }

  /// Parks / releases the worker threads (items keep accumulating while
  /// parked). The load harness uses this to make overload deterministic:
  /// a paused burst of B > capacity requests sheds exactly the excess.
  void pauseWorkers();
  void resumeWorkers();

  size_t queueDepth() const { return Queue.depth(); }
  size_t queueCapacity() const { return Queue.capacity(); }

  DaemonStats stats() const;
  const RecoveryReport &recovery() const { return Recovery; }
  const DaemonOptions &options() const { return Options; }

  std::vector<std::string> tenantNames() const;
  /// The tenant's live session; nullptr when unknown. Callers must not
  /// race this against requests for the same tenant (tests inspect
  /// quiescent daemons).
  const AnosySession<Box> *tenantSession(const std::string &Tenant) const;

private:
  struct Shard {
    std::string Name;
    int64_t MinSize = -1;
    std::string KbPath;
    std::string MetaPath;
    /// Per-shard serialization: every downgrade/classify/flush for this
    /// tenant runs under this mutex (sequential-attacker semantics).
    std::mutex ExecMu;
    std::unique_ptr<AnosySession<Box>> Session;
    std::atomic<unsigned> InFlight{0};
  };

  std::shared_ptr<Shard> findShard(const std::string &Tenant) const;
  /// Installs a new shard; false if the tenant already exists.
  bool installShard(std::shared_ptr<Shard> S);

  void workerLoop();
  void executeItem(WorkItem Item);
  ServiceResponse executeRegister(const WorkItem &Item);
  ServiceResponse executeQuery(const WorkItem &Item, Shard &S);
  ServiceResponse executeFlush(const WorkItem &Item, Shard &S);
  /// Writes \p KbText, the shard's serialized KB, and its policy sidecar
  /// with retry-with-backoff; caller holds S.ExecMu.
  Result<void> flushLocked(Shard &S, const std::string &KbText);
  void finishResponse(ServiceResponse &Resp, const WorkItem &Item);

  DaemonOptions Options;
  RequestQueue Queue;

  /// Process-wide synthesis cache shared by every tenant registration
  /// (and, through CacheDir, by other processes); null when disabled.
  std::unique_ptr<ArtifactCache> Cache;

  mutable std::mutex TenantsMu;
  std::map<std::string, std::shared_ptr<Shard>> Tenants;

  std::vector<std::thread> WorkerThreads;

  std::atomic<uint64_t> NextId{0};
  std::atomic<bool> Started{false};
  std::atomic<bool> Draining{false};
  std::atomic<bool> DrainDone{false};
  RecoveryReport Recovery;
  DrainReport LastDrain;

  struct AtomicStats {
    std::atomic<uint64_t> Accepted{0}, Shed{0}, Ok{0}, Refused{0},
        Bottom{0}, DeadlineExpired{0}, Errors{0}, AdmitSkips{0},
        Flushes{0}, FlushRetries{0}, FlushFailures{0};
  };
  mutable AtomicStats Stat;
};

} // namespace anosy::service

#endif // ANOSY_SERVICE_DAEMON_H
