//===- support/Count.cpp - Saturating cardinality arithmetic -------------===//

#include "support/Count.h"

#include <cmath>
#include <cstdio>

using namespace anosy;

BigCount BigCount::ofInterval(int64_t Lo, int64_t Hi) {
  if (Lo > Hi)
    return BigCount();
  // Width fits in unsigned 128-bit even for the extreme int64 interval.
  unsigned __int128 Width = static_cast<unsigned __int128>(
      static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo));
  BigCount C;
  C.Value = Width + 1;
  return C;
}

double BigCount::toDouble() const {
  if (Saturated)
    return std::ldexp(1.0, 127);
  // Split into two 64-bit halves to stay within double conversion rules.
  double High = static_cast<double>(static_cast<uint64_t>(Value >> 64));
  double Low = static_cast<double>(static_cast<uint64_t>(Value));
  return std::ldexp(High, 64) + Low;
}

BigCount BigCount::operator-(const BigCount &O) const {
  if (Saturated)
    return saturated();
  if (O.Saturated || O.Value >= Value)
    return BigCount();
  BigCount C;
  C.Value = Value - O.Value;
  return C;
}

std::string BigCount::str() const {
  if (Saturated)
    return ">=2^127";
  if (Value == 0)
    return "0";
  std::string Digits;
  unsigned __int128 V = Value;
  while (V != 0) {
    Digits.push_back(static_cast<char>('0' + static_cast<int>(V % 10)));
    V /= 10;
  }
  return std::string(Digits.rbegin(), Digits.rend());
}

std::string BigCount::sci(int64_t Threshold) const {
  if (!Saturated && Value <= static_cast<unsigned __int128>(Threshold))
    return str();
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2e", toDouble());
  return Buf;
}
