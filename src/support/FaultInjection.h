//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seeded fault-injection harness for the failure-domain
/// tests (DESIGN.md §6). Production code is sprinkled with a small number
/// of named *injection sites*; each call to faults::shouldFail(Site)
/// consumes one "hit" at that site and decides — as a pure function of
/// (seed, site, hit index) — whether to inject a fault there. The same
/// configuration therefore replays the same fault pattern, which is what
/// lets the fault suite assert soundness properties run after run.
///
/// The harness is disarmed by default and compiled into every build: the
/// fast path is a single relaxed atomic load (faults::armed()), so leaving
/// the hooks in release binaries costs nothing measurable. Configuration
/// comes either from code (faults::configure) or from the
/// ANOSY_FAULT_INJECT environment variable / --fault-inject CLI flag via
/// faults::parseSpec, e.g.:
///
///   ANOSY_FAULT_INJECT="seed=3,solver-charge@1000,kb-write@1x2"
///
/// arms the solver-charge site with a 1-in-1000 deterministic fault rate
/// and the kb-write site with rate 1-in-1 capped at 2 injected faults.
///
/// What a fault *means* is decided at each site — always a fault the
/// production code already tolerates (a budget that refuses a charge, a
/// grower restart that is abandoned, a verifier obligation left undecided,
/// a torn knowledge-base write, a bit-flipped read, a shed request).
/// Injection never introduces new failure behavior; it forces the existing
/// degraded paths to run.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_SUPPORT_FAULTINJECTION_H
#define ANOSY_SUPPORT_FAULTINJECTION_H

#include "support/Result.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace anosy {

/// The named injection sites. Each corresponds to one hook in production
/// code; see DESIGN.md §6 for the site-by-site degradation story.
enum class FaultSite : unsigned {
  /// SolverBudget::charge refuses the charge (budget behaves exhausted).
  SolverCharge = 0,
  /// One grower restart is abandoned (reported as an exhausted search).
  GrowerRestart,
  /// One refinement obligation comes back undecided instead of checked.
  VerifierObligation,
  /// A knowledge-base read returns bit-flipped bytes.
  KbRead,
  /// A knowledge-base write "crashes" mid-write: the temp file is
  /// truncated and never renamed over the destination.
  KbWrite,
  /// The daemon front door fails to accept a request (transient listener
  /// fault); the caller receives an explicit Overloaded response and
  /// retries — never a hang.
  ServiceAccept,
  /// The admission analysis pass is unavailable for one registration;
  /// the daemon proceeds without static admission (lint is a sound
  /// optimization, so skipping it never changes answers).
  ServiceAdmit,
  /// A request queue slot "fails": the enqueue behaves as if the bounded
  /// queue were full and the request is shed deterministically.
  ServiceEnqueue,
  /// A knowledge-base flush aborts before the atomic write starts (the
  /// process "crashes" between serialize and write); the on-disk KB
  /// keeps its previous valid contents and the flush is retried with
  /// backoff.
  ServiceFlush,
  /// The parent-directory fsync after an atomic write's rename fails (the
  /// machine "loses power" with the rename still only in the page cache).
  /// The destination file already holds the complete new content — never
  /// torn — but the write reports an Error so callers retry until the
  /// rename is durable.
  KbDirFsync,
};

inline constexpr unsigned NumFaultSites = 10;

/// Stable kebab-case name ("solver-charge", ...) used by spec strings.
const char *faultSiteName(FaultSite Site);

/// Inverse of faultSiteName; nullopt for unknown names.
std::optional<FaultSite> faultSiteByName(const std::string &Name);

/// A deterministic injection plan: per-site rates plus one global seed.
struct FaultConfig {
  struct Site {
    /// Inject on average one out of every OneIn hits; 0 disables the site.
    /// 1 injects on every hit.
    uint64_t OneIn = 0;
    /// Stop injecting at this site after this many injected faults.
    uint64_t MaxFaults = UINT64_MAX;
  };
  std::array<Site, NumFaultSites> Sites;
  uint64_t Seed = 0;

  bool anyEnabled() const {
    for (const Site &S : Sites)
      if (S.OneIn != 0)
        return true;
    return false;
  }
};

namespace faults {

namespace detail {
extern std::atomic<bool> Armed;
} // namespace detail

/// True when any site is configured. The only cost on hot paths.
inline bool armed() {
  return detail::Armed.load(std::memory_order_relaxed);
}

/// Installs \p Config (resetting all hit/injection counters) and arms the
/// harness if any site is enabled. Not thread-safe against concurrent
/// shouldFail callers: configure while the system is quiescent, as tests
/// do between scenarios.
void configure(const FaultConfig &Config);

/// Disarms every site and zeroes the counters.
void reset();

/// Parses a spec string: comma-separated "seed=N", "<site>@<one-in>", or
/// "<site>@<one-in>x<max-faults>" tokens.
Result<FaultConfig> parseSpec(const std::string &Spec);

/// Reads ANOSY_FAULT_INJECT and configures from it; no-op when unset.
/// Returns the parse error, if any, for the caller to report.
Result<void> initFromEnv();

/// Consumes one hit at \p Site and reports whether to inject a fault
/// there. Deterministic given the installed config and the hit index;
/// thread-safe (hit indices are claimed atomically).
bool shouldFail(FaultSite Site);

/// Total shouldFail calls at \p Site since the last configure/reset.
uint64_t hits(FaultSite Site);

/// Faults injected at \p Site since the last configure/reset.
uint64_t injected(FaultSite Site);

/// A deterministic 64-bit mix of the configured seed and \p Salt, for
/// sites that need auxiliary randomness (e.g. which bit to flip on a
/// KbRead fault). Stable across calls with the same salt.
uint64_t mix(uint64_t Salt);

} // namespace faults

} // namespace anosy

#endif // ANOSY_SUPPORT_FAULTINJECTION_H
