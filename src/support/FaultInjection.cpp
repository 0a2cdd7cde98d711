//===- support/FaultInjection.cpp - Deterministic fault injection ----------===//

#include "support/FaultInjection.h"

#include <cstdlib>

using namespace anosy;

namespace {

const char *SiteNames[NumFaultSites] = {
    "solver-charge", "grower-restart",  "verifier-obligation",
    "kb-read",       "kb-write",        "service-accept",
    "service-admit", "service-enqueue", "service-flush",
    "kb-dir-fsync",
};

/// splitmix64: the standard 64-bit finalizer; good avalanche, no state.
uint64_t splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

struct SiteState {
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Injected{0};
};

FaultConfig Config; // Guarded by quiescence (see configure's contract).
SiteState States[NumFaultSites];

} // namespace

std::atomic<bool> faults::detail::Armed{false};

const char *anosy::faultSiteName(FaultSite Site) {
  return SiteNames[static_cast<unsigned>(Site)];
}

std::optional<FaultSite> anosy::faultSiteByName(const std::string &Name) {
  for (unsigned I = 0; I != NumFaultSites; ++I)
    if (Name == SiteNames[I])
      return static_cast<FaultSite>(I);
  return std::nullopt;
}

void faults::configure(const FaultConfig &InConfig) {
  Config = InConfig;
  for (SiteState &S : States) {
    S.Hits.store(0, std::memory_order_relaxed);
    S.Injected.store(0, std::memory_order_relaxed);
  }
  detail::Armed.store(Config.anyEnabled(), std::memory_order_release);
}

void faults::reset() { configure(FaultConfig{}); }

Result<FaultConfig> faults::parseSpec(const std::string &Spec) {
  // All-digits decimal parse; false on empty or non-numeric input
  // (strtoull would silently accept both).
  auto ParseU64 = [](const std::string &Text, uint64_t &Out) {
    if (Text.empty())
      return false;
    Out = 0;
    for (char Ch : Text) {
      if (Ch < '0' || Ch > '9')
        return false;
      Out = Out * 10 + uint64_t(Ch - '0');
    }
    return true;
  };

  FaultConfig C;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Tok = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Spec.size() : Comma + 1;
    if (Tok.empty())
      continue;
    if (Tok.rfind("seed=", 0) == 0) {
      if (!ParseU64(Tok.substr(5), C.Seed))
        return Error(ErrorCode::ParseError,
                     "fault seed in '" + Tok + "' must be an integer");
      continue;
    }
    size_t At = Tok.find('@');
    if (At == std::string::npos)
      return Error(ErrorCode::ParseError,
                   "fault spec token '" + Tok +
                       "' is neither seed=N nor <site>@<one-in>[x<max>]");
    auto Site = faultSiteByName(Tok.substr(0, At));
    if (!Site)
      return Error(ErrorCode::ParseError,
                   "unknown fault site '" + Tok.substr(0, At) + "'");
    std::string Rate = Tok.substr(At + 1);
    FaultConfig::Site S;
    size_t X = Rate.find('x');
    if (X != std::string::npos) {
      if (!ParseU64(Rate.substr(X + 1), S.MaxFaults))
        return Error(ErrorCode::ParseError,
                     "fault cap in '" + Tok + "' must be an integer");
      Rate = Rate.substr(0, X);
    }
    if (!ParseU64(Rate, S.OneIn) || S.OneIn == 0)
      return Error(ErrorCode::ParseError,
                   "fault rate in '" + Tok + "' must be a positive integer");
    C.Sites[static_cast<unsigned>(*Site)] = S;
  }
  return C;
}

Result<void> faults::initFromEnv() {
  const char *Env = std::getenv("ANOSY_FAULT_INJECT");
  if (Env == nullptr || *Env == '\0')
    return {};
  auto C = parseSpec(Env);
  if (!C)
    return C.error();
  configure(*C);
  return {};
}

bool faults::shouldFail(FaultSite Site) {
  if (!armed())
    return false;
  unsigned I = static_cast<unsigned>(Site);
  const FaultConfig::Site &S = Config.Sites[I];
  uint64_t K = States[I].Hits.fetch_add(1, std::memory_order_relaxed);
  if (S.OneIn == 0)
    return false;
  // Pure function of (seed, site, hit index): the decision pattern replays
  // exactly under the same configuration.
  if (splitmix64(Config.Seed ^ (uint64_t(I) << 56) ^ K) % S.OneIn != 0)
    return false;
  // Cap enforcement: claim an injection slot; give the hit back if over.
  uint64_t N = States[I].Injected.fetch_add(1, std::memory_order_relaxed);
  if (N >= S.MaxFaults) {
    States[I].Injected.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

uint64_t faults::hits(FaultSite Site) {
  return States[static_cast<unsigned>(Site)].Hits.load(
      std::memory_order_relaxed);
}

uint64_t faults::injected(FaultSite Site) {
  return States[static_cast<unsigned>(Site)].Injected.load(
      std::memory_order_relaxed);
}

uint64_t faults::mix(uint64_t Salt) { return splitmix64(Config.Seed ^ Salt); }
