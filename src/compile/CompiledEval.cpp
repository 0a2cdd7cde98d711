//===- compile/CompiledEval.cpp - Query compilation & tape cache ----------===//

#include "compile/CompiledEval.h"

#include "obs/Instrument.h"

#include <chrono>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace anosy;

namespace {

/// Bounded process-wide tape cache. Collisions chain through structural
/// equality. Overflow runs a second-chance sweep: every probe hit marks
/// its entry referenced, and at Cap the sweep evicts unreferenced entries
/// while demoting survivors — so a hot query shape survives any number of
/// cold one-shot shapes passing through. Only when *every* entry is hot
/// (pathological: >Cap genuinely live shapes) does the cache fall back to
/// a full clear and recompile on demand.
class TapeCache {
public:
  TapeRef getOrCompile(const ExprRef &E) {
    const size_t H = Expr::structuralHash(*E);
    {
      std::lock_guard<std::mutex> Lock(M);
      if (TapeRef T = probeLocked(H, *E))
        return T;
    }

    // Compile outside the lock; a racing thread may compile the same
    // shape concurrently, which the re-probe below resolves.
    const auto Start = std::chrono::steady_clock::now();
    ANOSY_OBS_SPAN(Span, "anosy.tape.compile");
    TapeRef T = Tape::compile(*E);
    if (!T)
      return nullptr;
    const double Us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - Start)
            .count();
    ANOSY_OBS_SPAN_ARG(Span, "tape_len", static_cast<int64_t>(T->length()));
    ANOSY_OBS_SPAN_ARG(Span, "compile_us", Us);

    std::lock_guard<std::mutex> Lock(M);
    // Re-probe under the insert lock: a racing duplicate compile must not
    // insert a second structurally-equal entry (it would inflate Size,
    // double-count the compile metrics, and trigger eviction early).
    // Everyone converges on the first-inserted tape; the loser's tape is
    // dropped and its compile deliberately not counted.
    if (TapeRef Winner = probeLocked(H, *E))
      return Winner;
    ANOSY_OBS_COUNT("anosy_tape_compiles_total",
                    "Queries compiled to interval-eval tapes", 1);
    ANOSY_OBS_OBSERVE_SECONDS("anosy_tape_compile_seconds",
                              "Wall time compiling queries to tapes",
                              Us / 1e6);
    if (Size >= Cap)
      evictLocked();
    Entries[H].push_back({E, T, false});
    ++Size;
    return T;
  }

  size_t size() {
    std::lock_guard<std::mutex> Lock(M);
    return Size;
  }

  void clear() {
    std::lock_guard<std::mutex> Lock(M);
    Entries.clear();
    Size = 0;
  }

  /// Pure probe (no referenced-bit side effect): test introspection.
  bool contains(const ExprRef &E) {
    const size_t H = Expr::structuralHash(*E);
    std::lock_guard<std::mutex> Lock(M);
    auto It = Entries.find(H);
    if (It == Entries.end())
      return false;
    for (const Slot &S : It->second)
      if (Expr::structurallyEqual(*S.E, *E))
        return true;
    return false;
  }

private:
  struct Slot {
    ExprRef E;
    TapeRef T;
    /// Second-chance bit: set on every probe hit, cleared by a sweep.
    bool Referenced;
  };

  /// Chain walk under the lock; a hit marks the slot referenced.
  TapeRef probeLocked(size_t H, const Expr &E) {
    auto It = Entries.find(H);
    if (It == Entries.end())
      return nullptr;
    for (Slot &S : It->second)
      if (Expr::structurallyEqual(*S.E, E)) {
        S.Referenced = true;
        return S.T;
      }
    return nullptr;
  }

  /// Second-chance sweep: evict unreferenced slots, demote the rest. A
  /// sweep that evicts nothing (everything hot) degenerates to the old
  /// full clear so Size always drops below Cap.
  void evictLocked() {
    size_t Evicted = 0;
    for (auto It = Entries.begin(); It != Entries.end();) {
      std::vector<Slot> &Chain = It->second;
      for (size_t I = 0; I != Chain.size();) {
        if (!Chain[I].Referenced) {
          Chain[I] = std::move(Chain.back());
          Chain.pop_back();
          ++Evicted;
        } else {
          Chain[I].Referenced = false;
          ++I;
        }
      }
      It = Chain.empty() ? Entries.erase(It) : std::next(It);
    }
    if (Evicted == 0) {
      Entries.clear();
      Size = 0;
      return;
    }
    Size -= Evicted;
  }

  static constexpr size_t Cap = 256;
  std::mutex M;
  std::unordered_map<size_t, std::vector<Slot>> Entries;
  size_t Size = 0;
};

TapeCache &cache() {
  static TapeCache C;
  return C;
}

} // namespace

TapeRef anosy::getOrCompileTape(const ExprRef &E) {
  if (!E || E->treeSize() < MinCompileTreeSize)
    return nullptr;
  return cache().getOrCompile(E);
}

size_t anosy::tapeCacheSizeForTest() { return cache().size(); }

void anosy::tapeCacheClearForTest() { cache().clear(); }

bool anosy::tapeCacheContainsForTest(const ExprRef &E) {
  return E && cache().contains(E);
}
