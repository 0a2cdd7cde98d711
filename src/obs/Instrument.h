//===- obs/Instrument.h - Instrumentation-site macros -----------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The macros instrumented code uses (DESIGN.md §8). One runtime kill
/// switch, off by default: every site checks obs::enabled() — one relaxed
/// atomic load — and does nothing when off. Span *arguments* are guarded
/// per span, so their expressions are not evaluated for disabled spans
/// either.
///
/// Sites are phase-grained (per query / per synthesis pass / per KB
/// write), never per solver node: the ≤1% disabled-overhead bound that
/// bench/observability_overhead pins depends on instrumentation staying
/// off the solver's hot loop.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_OBS_INSTRUMENT_H
#define ANOSY_OBS_INSTRUMENT_H

#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Trace.h"

/// Opens an RAII span named \p Name bound to the global recorder; records
/// on scope exit (or Var.end()). Disabled at runtime: one relaxed load.
#define ANOSY_OBS_SPAN(Var, Name) ::anosy::obs::TraceSpan Var(Name)

/// Attaches Key=Value to an open span. Value is not evaluated when the
/// span is disabled.
#define ANOSY_OBS_SPAN_ARG(Var, Key, Value)                                    \
  do {                                                                         \
    if ((Var).active())                                                        \
      (Var).arg((Key), (Value));                                               \
  } while (false)

/// Adds \p Delta to the named global counter. The instrument reference is
/// resolved once per site (function-local static), so the steady-state
/// cost is the enabled check plus one relaxed fetch_add.
#define ANOSY_OBS_COUNT(Name, Help, Delta)                                     \
  do {                                                                         \
    if (::anosy::obs::enabled()) {                                             \
      static ::anosy::obs::Counter &AnosyObsCounter =                          \
          ::anosy::obs::MetricsRegistry::global().counter((Name), (Help));     \
      AnosyObsCounter.add((Delta));                                            \
    }                                                                          \
  } while (false)

#define ANOSY_OBS_GAUGE_SET(Name, Help, Value)                                 \
  do {                                                                         \
    if (::anosy::obs::enabled()) {                                             \
      static ::anosy::obs::Gauge &AnosyObsGauge =                              \
          ::anosy::obs::MetricsRegistry::global().gauge((Name), (Help));       \
      AnosyObsGauge.set((Value));                                              \
    }                                                                          \
  } while (false)

/// Raises the named gauge to at least \p Value (peak-style gauges).
#define ANOSY_OBS_GAUGE_MAX(Name, Help, Value)                                 \
  do {                                                                         \
    if (::anosy::obs::enabled()) {                                             \
      static ::anosy::obs::Gauge &AnosyObsGauge =                              \
          ::anosy::obs::MetricsRegistry::global().gauge((Name), (Help));       \
      AnosyObsGauge.setMax((Value));                                           \
    }                                                                          \
  } while (false)

/// Observes a wall-time sample (seconds) into the named histogram.
#define ANOSY_OBS_OBSERVE_SECONDS(Name, Help, Seconds)                         \
  do {                                                                         \
    if (::anosy::obs::enabled()) {                                             \
      static ::anosy::obs::Histogram &AnosyObsHist =                           \
          ::anosy::obs::MetricsRegistry::global().histogram((Name), (Help));   \
      AnosyObsHist.observe((Seconds));                                         \
    }                                                                          \
  } while (false)

#endif // ANOSY_OBS_INSTRUMENT_H
