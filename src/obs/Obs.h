//===- obs/Obs.h - Observability runtime switch -----------------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The root of the observability subsystem (DESIGN.md §8): the global
/// runtime on/off switch and dense per-thread ids for trace events.
///
/// Cost contract: with the switch off (the default), every instrumentation
/// site in the hot path is one relaxed atomic load and a branch — no
/// allocation, no clock read, no lock (see obs/Instrument.h). Neither
/// setting perturbs solver node counts or synthesized artifacts: spans
/// and metrics only *read* what the pipeline already computes.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_OBS_OBS_H
#define ANOSY_OBS_OBS_H

#include <cstdint>

namespace anosy::obs {

/// Whether tracing/metrics sites record anything. Off by default; flipped
/// by --trace-out/--metrics-out in the CLI or setEnabled in tests. One
/// relaxed load per query-path site when off.
bool enabled();
void setEnabled(bool On);

/// Small dense id (1-based) for the calling thread, assigned on first use
/// and stable for the thread's lifetime. Chrome's trace viewer groups
/// events into per-tid lanes, so small sequential ids render better than
/// hashed native handles.
uint32_t threadId();

/// RAII flip of the runtime switch (tests and benches; restores the
/// previous state even on early return).
class ScopedEnable {
public:
  explicit ScopedEnable(bool On) : Prev(enabled()) { setEnabled(On); }
  ~ScopedEnable() { setEnabled(Prev); }
  ScopedEnable(const ScopedEnable &) = delete;
  ScopedEnable &operator=(const ScopedEnable &) = delete;

private:
  bool Prev;
};

} // namespace anosy::obs

#endif // ANOSY_OBS_OBS_H
