//===- support/Count.h - Saturating cardinality arithmetic ------*- C++ -*-===//
//
// Part of anosy-cpp, a reproduction of "ANOSY: Approximated Knowledge
// Synthesis with Refinement Types for Declassification" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cardinalities of secret sets. The paper's benchmark domains reach sizes of
/// ~2.8e13 secrets and intermediate volume products of n-dimensional boxes
/// can exceed 64 bits, so sizes are carried in a saturating 128-bit counter.
/// Saturation is sticky: once a computation overflows, the result (and every
/// value derived from it) reports `isSaturated()`, never a silently wrapped
/// number.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_SUPPORT_COUNT_H
#define ANOSY_SUPPORT_COUNT_H

#include <cassert>
#include <cstdint>
#include <string>

namespace anosy {

/// A non-negative set cardinality with 128-bit range and sticky saturation.
class BigCount {
public:
  /// Zero cardinality.
  BigCount() : Value(0), Saturated(false) {}

  /// Cardinality of \p V elements; \p V must be non-negative.
  explicit BigCount(int64_t V) : Value(static_cast<unsigned __int128>(V)),
                                 Saturated(false) {
    assert(V >= 0 && "cardinalities are non-negative");
  }

  /// The saturated ("at least 2^127") cardinality.
  static BigCount saturated() {
    BigCount C;
    C.Saturated = true;
    return C;
  }

  /// Cardinality of the integer interval [Lo, Hi]; empty if Lo > Hi.
  static BigCount ofInterval(int64_t Lo, int64_t Hi);

  bool isSaturated() const { return Saturated; }
  bool isZero() const { return !Saturated && Value == 0; }

  /// The exact value as int64_t; only valid when it fits.
  int64_t toInt64() const {
    assert(fitsInt64() && "count does not fit in int64_t");
    return static_cast<int64_t>(Value);
  }

  bool fitsInt64() const {
    return !Saturated && Value <= static_cast<unsigned __int128>(INT64_MAX);
  }

  /// A double approximation (used only for reporting %-differences).
  double toDouble() const;

  /// Sums and products saturate on overflow past 2^128 - 1. They are
  /// inline over the overflow builtins, so sizing a posterior (a product
  /// per box, a sum per family) never divides.
  BigCount operator+(const BigCount &O) const {
    BigCount C;
    if (Saturated || O.Saturated ||
        __builtin_add_overflow(Value, O.Value, &C.Value))
      return saturated();
    return C;
  }

  /// Zero times anything, saturated included, is zero.
  BigCount operator*(const BigCount &O) const {
    if (isZero() || O.isZero())
      return BigCount();
    BigCount C;
    if (Saturated || O.Saturated ||
        __builtin_mul_overflow(Value, O.Value, &C.Value))
      return saturated();
    return C;
  }

  /// Saturating subtraction clamped at zero. Subtracting from a saturated
  /// count stays saturated (we no longer know the true value).
  BigCount operator-(const BigCount &O) const;

  bool operator==(const BigCount &O) const {
    return Saturated == O.Saturated && (Saturated || Value == O.Value);
  }
  bool operator!=(const BigCount &O) const { return !(*this == O); }

  /// Total order; every finite value compares below saturated.
  bool operator<(const BigCount &O) const {
    return !Saturated && (O.Saturated || Value < O.Value);
  }
  bool operator<=(const BigCount &O) const { return *this < O || *this == O; }
  bool operator>(const BigCount &O) const { return O < *this; }
  bool operator>=(const BigCount &O) const { return O <= *this; }

  bool operator<(int64_t V) const { return *this < BigCount(V); }
  bool operator>(int64_t V) const { return *this > BigCount(V); }
  bool operator==(int64_t V) const { return *this == BigCount(V); }
  bool operator>=(int64_t V) const { return *this >= BigCount(V); }
  bool operator<=(int64_t V) const { return *this <= BigCount(V); }

  /// Decimal rendering; saturated counts render as ">=2^127".
  std::string str() const;

  /// Scientific-notation rendering like the paper's tables ("2.81e+13"),
  /// falling back to plain decimal below \p Threshold.
  std::string sci(int64_t Threshold = 100000) const;

private:
  unsigned __int128 Value;
  bool Saturated;
};

} // namespace anosy

#endif // ANOSY_SUPPORT_COUNT_H
