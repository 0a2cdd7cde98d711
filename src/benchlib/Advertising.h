//===- benchlib/Advertising.h - The §6.2 case-study driver ------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The secure advertising system of §6.2: a sequence of nearby queries
/// (one per restaurant branch, origins random in the 400×400 space) is
/// declassified through the AnosyT tracker under the qpolicy "knowledge
/// keeps more than 100 candidate locations". The driver reports, per
/// query index, how many of the experiment instances were still running —
/// the data behind Fig. 6's survival curves.
///
/// The 50 restaurant origins are synthesized once per powerset size k and
/// shared by all instances (synthesis is the compile-time step); each
/// instance draws a fresh secret location and a fresh visiting order.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_BENCHLIB_ADVERTISING_H
#define ANOSY_BENCHLIB_ADVERTISING_H

#include "core/AnosySession.h"

#include <cstdint>
#include <vector>

namespace anosy {

/// Configuration of one Fig. 6 experiment series.
struct AdvertisingConfig {
  unsigned PowersetSize = 3;  ///< k (the Fig. 6 line).
  unsigned NumRestaurants = 50;
  unsigned NumInstances = 20; ///< experiment repetitions.
  int64_t PolicyMinSize = 100;
  uint64_t Seed = 2022;
  int64_t SpaceLo = 0;   ///< secret/restaurant coordinate bounds
  int64_t SpaceHi = 400;
  unsigned QueryRadius = 100;
};

/// Result of one series.
struct AdvertisingResult {
  /// Survivors[i] = number of instances that successfully declassified the
  /// (i+1)-th query. Length NumRestaurants.
  std::vector<unsigned> Survivors;
  /// Queries answered per instance before the policy violation (or all).
  std::vector<unsigned> AnsweredPerInstance;

  unsigned maxAnswered() const {
    unsigned Max = 0;
    for (unsigned A : AnsweredPerInstance)
      Max = std::max(Max, A);
    return Max;
  }
  double meanAnswered() const {
    if (AnsweredPerInstance.empty())
      return 0.0;
    double Sum = 0;
    for (unsigned A : AnsweredPerInstance)
      Sum += A;
    return Sum / static_cast<double>(AnsweredPerInstance.size());
  }
};

/// Builds the advertising query module (one nearby query per restaurant,
/// origins drawn from \p Seed) — exposed for tests.
Module buildAdvertisingModule(const AdvertisingConfig &Config);

/// Runs the full experiment series with the PowerBox domain.
AdvertisingResult runAdvertisingExperiment(const AdvertisingConfig &Config);

} // namespace anosy

#endif // ANOSY_BENCHLIB_ADVERTISING_H
