//===- tests/compile/TapeDifferentialTest.cpp - Tape ≡ tree-walk ----------===//
//
// The acceptance property of the compiled solver hot path: for generated
// queries and boxes, the tape interpreter produces *bit-identical*
// Interval/Tribool results to the tree-walking evalRange/evalTribool.
// Sweeps cover every ExprKind (the generator's grammar emits them all),
// int64 saturation extremes, and unit boxes. Empty boxes are excluded by
// contract: both evaluators require non-empty boxes (they assert), same
// as every solver call site.
//
// Scale knob: ANOSY_TAPE_DIFF_QUERIES (default 2000) for the CI
// tape-oracle job to crank up.
//
//===----------------------------------------------------------------------===//

#include "compile/Tape.h"
#include "domains/Box.h"
#include "gen/QueryGen.h"
#include "solver/RangeEval.h"
#include "support/Rng.h"

#include "gtest/gtest.h"

#include <cstdlib>

using namespace anosy;

namespace {

size_t queryCount() {
  if (const char *Env = std::getenv("ANOSY_TAPE_DIFF_QUERIES"))
    if (long N = std::atol(Env); N > 0)
      return static_cast<size_t>(N);
  return 2000;
}

/// A random non-empty interval, biased toward the interesting rails:
/// int64 extremes, zero crossings, and unit widths.
Interval genInterval(Rng &R) {
  switch (R.range(0, 9)) {
  case 0:
    return {INT64_MIN, INT64_MAX};
  case 1:
    return {INT64_MIN, R.range(-100, 100)};
  case 2:
    return {R.range(-100, 100), INT64_MAX};
  case 3: { // Unit box.
    int64_t V = R.range(-80, 80);
    return {V, V};
  }
  case 4:
    return {INT64_MIN, INT64_MIN};
  case 5:
    return {INT64_MAX, INT64_MAX};
  default: {
    int64_t A = R.range(-90, 90), B = R.range(-90, 90);
    return {std::min(A, B), std::max(A, B)};
  }
  }
}

Box genBox(Rng &R, unsigned Arity) {
  std::vector<Interval> Dims;
  Dims.reserve(Arity);
  for (unsigned D = 0; D != Arity; ++D)
    Dims.push_back(genInterval(R));
  return Box(std::move(Dims));
}

TEST(TapeDifferentialTest, BoolTapesMatchEvalTribool) {
  const size_t Queries = queryCount();
  QueryGenConfig Config;
  Config.Arity = 3;
  QueryGen Gen(/*Seed=*/0xA505ull, Config);
  Rng BoxRng(/*Seed=*/0xB0C5ull);
  TapeScratch S;
  size_t Compiled = 0;
  for (size_t Q = 0; Q != Queries; ++Q) {
    ExprRef E = Gen.genQuery();
    TapeRef T = Tape::compile(*E);
    ASSERT_NE(T, nullptr) << E->str();
    ++Compiled;
    for (int B = 0; B != 8; ++B) {
      Box Bx = genBox(BoxRng, Config.Arity);
      ASSERT_EQ(T->run(Bx, S), evalTribool(*E, Bx))
          << "query: " << E->str() << "\nbox: " << Bx.str()
          << "\ntape:\n" << T->str();
    }
  }
  EXPECT_EQ(Compiled, Queries);
}

TEST(TapeDifferentialTest, IntTapesMatchEvalRange) {
  const size_t Queries = queryCount();
  QueryGenConfig Config;
  Config.Arity = 3;
  QueryGen Gen(/*Seed=*/0x7E47ull, Config);
  Rng BoxRng(/*Seed=*/0x50F4ull);
  TapeScratch S;
  for (size_t Q = 0; Q != Queries; ++Q) {
    ExprRef E = Gen.genTerm();
    TapeRef T = Tape::compile(*E);
    ASSERT_NE(T, nullptr) << E->str();
    for (int B = 0; B != 8; ++B) {
      Box Bx = genBox(BoxRng, Config.Arity);
      ASSERT_EQ(T->runRange(Bx, S), evalRange(*E, Bx))
          << "term: " << E->str() << "\nbox: " << Bx.str()
          << "\ntape:\n" << T->str();
    }
  }
}

/// Deep right-leaning conjunction: stresses the short-circuit jump
/// chains and the bool register stack in one expression.
TEST(TapeDifferentialTest, DeepConnectiveChainsMatch) {
  Rng R(/*Seed=*/0xDEE9ull);
  ExprRef E = le(fieldRef(0), intConst(0));
  for (int I = 0; I != 200; ++I) {
    ExprRef Atom = lt(fieldRef(I % 2), intConst(I - 100));
    E = (I % 3 == 0)   ? andOf(Atom, E)
        : (I % 3 == 1) ? orOf(Atom, E)
                       : implies(Atom, E);
  }
  TapeRef T = Tape::compile(*E);
  ASSERT_NE(T, nullptr);
  TapeScratch S;
  for (int B = 0; B != 64; ++B) {
    Box Bx = genBox(R, 2);
    ASSERT_EQ(T->run(Bx, S), evalTribool(*E, Bx)) << Bx.str();
  }
}

} // namespace
