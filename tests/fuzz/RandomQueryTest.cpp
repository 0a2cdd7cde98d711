//===- tests/fuzz/RandomQueryTest.cpp - Grammar-directed property sweeps --===//
//
// End-to-end property testing over randomly generated queries from the
// §5.1 fragment. Each TEST_P instance draws dozens of random queries from
// one RNG seed and checks the library's key soundness contracts against
// brute force on a small secret space:
//
//   * abstract (interval) evaluation is sound for every box;
//   * the ∀/∃ deciders and the model counter agree with enumeration, and
//     run identically on the compiled tape and on the tree walk;
//   * synthesized under/over ind. sets sandwich the exact sets and pass
//     the refinement checker;
//   * the abstract-interpretation baseline's posteriors lose no point;
//   * bounded downgrade's tracked knowledge under-approximates the true
//     attacker knowledge on random downgrade sequences.
//
//===----------------------------------------------------------------------===//

#include "gen/QueryGen.h"

#include "baselines/AbstractInterpreter.h"
#include "baselines/Exhaustive.h"
#include "compile/Tape.h"
#include "core/KnowledgeTracker.h"
#include "expr/Eval.h"
#include "solver/RangeEval.h"
#include "solver/ModelCounter.h"
#include "synth/Synthesizer.h"
#include "verify/RefinementChecker.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

Schema smallSchema() { return Schema("F", {{"a", 0, 24}, {"b", 0, 24}}); }

class RandomQueries : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(RandomQueries, AbstractEvaluationSound) {
  QueryGen Gen(GetParam());
  Rng R(GetParam() ^ 0xabcdef);
  Schema S = smallSchema();
  for (int I = 0; I != 30; ++I) {
    ExprRef Q = Gen.genQuery();
    int64_t XL = R.range(0, 24), YL = R.range(0, 24);
    Box B({{XL, R.range(XL, 24)}, {YL, R.range(YL, 24)}});
    Tribool T = evalTribool(*Q, B);
    if (T == Tribool::Unknown)
      continue;
    forEachPoint(B, [&](const Point &P) {
      EXPECT_EQ(evalBool(*Q, P), T == Tribool::True) << Q->str();
      return true;
    });
  }
}

TEST_P(RandomQueries, DecidersMatchBruteForce) {
  QueryGen Gen(GetParam() + 1000);
  Schema S = smallSchema();
  Box Top = Box::top(S);
  for (int I = 0; I != 20; ++I) {
    ExprRef Q = Gen.genQuery();
    PredicateRef P = exprPredicate(Q);

    int64_t Brute = countByEnumeration(*Q, Top);
    EXPECT_EQ(countSatExact(*P, Top).toInt64(), Brute) << Q->str();

    SolverBudget Budget;
    EXPECT_EQ(checkForall(*P, Top, Budget).Holds, Brute == 625) << Q->str();
    EXPECT_EQ(findWitness(*P, Top, Budget).Witness.has_value(), Brute > 0)
        << Q->str();
  }
}

TEST_P(RandomQueries, SynthesisSandwichAndVerification) {
  QueryGen Gen(GetParam() + 2000);
  Schema S = smallSchema();
  Box Top = Box::top(S);
  for (int I = 0; I != 8; ++I) {
    ExprRef Q = Gen.genQuery();
    auto Sy = Synthesizer::create(S, Q);
    ASSERT_TRUE(Sy.ok()) << Q->str();

    auto Under = Sy->synthesizeInterval(ApproxKind::Under);
    auto Over = Sy->synthesizeInterval(ApproxKind::Over);
    ASSERT_TRUE(Under.ok() && Over.ok()) << Q->str();

    BigCount Exact = countSatExact(*exprPredicate(Q), Top);
    EXPECT_TRUE(Under->TrueSet.volume() <= Exact) << Q->str();
    EXPECT_TRUE(Exact <= Over->TrueSet.volume()) << Q->str();

    RefinementChecker Checker(S, Q);
    EXPECT_TRUE(Checker.checkIndSets(*Under, ApproxKind::Under).valid())
        << Q->str();
    EXPECT_TRUE(Checker.checkIndSets(*Over, ApproxKind::Over).valid())
        << Q->str();

    auto PUnder = Sy->synthesizePowerset(ApproxKind::Under, 3);
    ASSERT_TRUE(PUnder.ok()) << Q->str();
    EXPECT_TRUE(Under->TrueSet.volume() <= PUnder->TrueSet.size())
        << Q->str();
    EXPECT_TRUE(PUnder->TrueSet.size() <= Exact) << Q->str();
  }
}

TEST_P(RandomQueries, BaselinePosteriorsLoseNoPoint) {
  QueryGen Gen(GetParam() + 3000);
  Schema S = smallSchema();
  AbstractInterpreter AI;
  Box Top = Box::top(S);
  for (int I = 0; I != 20; ++I) {
    ExprRef Q = Gen.genQuery();
    for (bool Response : {true, false}) {
      Box Post = AI.posterior(*Q, Top, Response);
      forEachPoint(Top, [&](const Point &P) {
        if (evalBool(*Q, P) == Response) {
          EXPECT_TRUE(Post.contains(P)) << Q->str();
        }
        return true;
      });
    }
  }
}

TEST_P(RandomQueries, DowngradeSequencesStaySound) {
  QueryGen Gen(GetParam() + 4000);
  Rng R(GetParam() ^ 0x5eed);
  Schema S = smallSchema();

  // Build a tracker with synthesized ind. sets for 4 random queries.
  KnowledgeTracker<PowerBox> T(S, permissivePolicy<PowerBox>());
  std::vector<ExprRef> Queries;
  for (int I = 0; I != 4; ++I) {
    ExprRef Q = Gen.genQuery();
    auto Sy = Synthesizer::create(S, Q);
    ASSERT_TRUE(Sy.ok());
    auto Sets = Sy->synthesizePowerset(ApproxKind::Under, 3);
    ASSERT_TRUE(Sets.ok());
    QueryInfo<PowerBox> Info;
    Info.Name = "q" + std::to_string(I);
    Info.QueryExpr = Q;
    Info.Ind = Sets.takeValue();
    T.registerQuery(std::move(Info));
    Queries.push_back(Q);
  }

  Point Secret{R.range(0, 24), R.range(0, 24)};
  PredicateRef TrueK = constPredicate(true);
  for (int I = 0; I != 4; ++I) {
    auto Res = T.downgrade(Secret, "q" + std::to_string(I));
    ASSERT_TRUE(Res.ok());
    EXPECT_EQ(*Res, evalBool(*Queries[I], Secret));
    PredicateRef QP = exprPredicate(Queries[I]);
    TrueK = andPredicate(TrueK, *Res ? QP : notPredicate(QP));
    // Tracked ⊆ true knowledge: no tracked point escapes K_i (§3).
    PowerBox Tracked = T.knowledgeFor(Secret);
    PredicateRef Escapee =
        andPredicate(inPowerBoxPredicate(Tracked), notPredicate(TrueK));
    EXPECT_TRUE(countSatExact(*Escapee, Box::top(S)).isZero())
        << "after " << I + 1 << " downgrades";
  }
}

TEST_P(RandomQueries, TapeDecidersMatchTreeWalk) {
  // Differential oracle: every decider gives the same answer, visits the
  // same nodes, and returns the same points whether its query predicate
  // runs the compiled tape or tree-walks the AST.
  QueryGen Gen(GetParam() + 5000);
  Schema S = smallSchema();
  Box Top = Box::top(S);
  for (int I = 0; I != 20; ++I) {
    ExprRef Q = Gen.genQuery();
    TapeRef T = Tape::compile(*Q);
    ASSERT_NE(T, nullptr) << Q->str();
    PredicateRef Walk = exprPredicate(Q, nullptr);
    PredicateRef Compiled = exprPredicate(Q, T);

    SolverBudget CountWalk, CountTape;
    CountResult CW = countSat(*Walk, Top, CountWalk);
    CountResult CT = countSat(*Compiled, Top, CountTape);
    EXPECT_EQ(CW.Count, CT.Count) << Q->str();
    EXPECT_EQ(CW.Exhausted, CT.Exhausted) << Q->str();
    EXPECT_EQ(CountWalk.used(), CountTape.used()) << Q->str();

    SolverBudget FaWalk, FaTape;
    ForallResult FW = checkForall(*Walk, Top, FaWalk);
    ForallResult FT = checkForall(*Compiled, Top, FaTape);
    EXPECT_EQ(FW.Holds, FT.Holds) << Q->str();
    EXPECT_EQ(FW.CounterExample, FT.CounterExample) << Q->str();
    EXPECT_EQ(FaWalk.used(), FaTape.used()) << Q->str();

    SolverBudget ExWalk, ExTape;
    EXPECT_EQ(findWitness(*Walk, Top, ExWalk).Witness,
              findWitness(*Compiled, Top, ExTape).Witness)
        << Q->str();

    SolverBudget DvWalk, DvTape;
    EXPECT_EQ(findWitnessDiverse(*Walk, Top, GetParam(), DvWalk).Witness,
              findWitnessDiverse(*Compiled, Top, GetParam(), DvTape).Witness)
        << Q->str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueries,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110));
