//===- synth/ClassifierSynth.cpp - Multi-output query synthesis -----------===//

#include "synth/ClassifierSynth.h"

#include "expr/Analysis.h"
#include "expr/Eval.h"
#include "solver/RangeEval.h"

#include <optional>

using namespace anosy;

Result<ClassifierSynthesizer>
ClassifierSynthesizer::create(const Schema &S, ExprRef Body,
                              SynthOptions Options, unsigned MaxOutputs) {
  if (!Body)
    return Error(ErrorCode::UnsupportedQuery, "null classifier body");
  if (!Body->isIntSorted())
    return Error(ErrorCode::UnsupportedQuery,
                 "classifiers must be integer-valued queries");
  // The fragment check is shared with boolean queries (§5.1); the body is
  // checked through a trivial comparison wrapper so linearity and field
  // bounds are validated identically.
  if (auto R = admitQuery(*eq(Body, intConst(0)), S.arity()); !R)
    return R.error();

  Box Top = Box::top(S);
  Interval Range = evalRange(*Body, Top);
  BigCount Width = Range.width();
  if (Width.isZero())
    return Error(ErrorCode::UnsupportedQuery, "classifier has no outputs");
  if (!(Width <= static_cast<int64_t>(MaxOutputs)))
    return Error(ErrorCode::UnsupportedQuery,
                 "classifier may take up to " + Width.str() +
                     " outputs; only finitely many (<= " +
                     std::to_string(MaxOutputs) +
                     ") are supported (§5.1)");

  // Keep the feasible outputs: values some secret actually produces. Every
  // value is searched before the results are scanned in value order.
  size_t NumVals = static_cast<size_t>(Range.Hi - Range.Lo + 1);
  std::vector<ExistsResult> Found(NumVals);
  SolverBudget Budget(Options.MaxSolverNodes);
  Budget.Parent = Options.SessionBudget;
  if (Options.DeadlineMs != 0)
    Budget.setDeadlineAfterMs(Options.DeadlineMs);
  for (size_t I = 0; I != NumVals; ++I) {
    PredicateRef Is =
        exprPredicate(eq(Body, intConst(Range.Lo + static_cast<int64_t>(I))));
    Found[I] = findWitness(*Is, Top, Budget);
  }

  std::vector<int64_t> Outputs;
  for (size_t I = 0; I != NumVals; ++I) {
    if (Found[I].Exhausted)
      return Error(ErrorCode::BudgetExhausted,
                   "solver budget exhausted enumerating classifier outputs");
    if (Found[I].Witness)
      Outputs.push_back(Range.Lo + static_cast<int64_t>(I));
  }
  assert(!Outputs.empty() && "range was non-empty");
  return ClassifierSynthesizer(S, std::move(Body), Options,
                               std::move(Outputs));
}

ExprRef ClassifierSynthesizer::outputQuery(int64_t Value) const {
  return eq(Body, intConst(Value));
}

int64_t ClassifierSynthesizer::run(const Point &Secret) const {
  return evalInt(*Body, Secret);
}

Result<std::vector<OutputIndSet<Box>>>
ClassifierSynthesizer::synthesizeInterval(ApproxKind Kind,
                                          SynthStats *Stats) const {
  size_t N = Outputs.size();
  std::vector<std::optional<Result<IndSets<Box>>>> Slots(N);
  std::vector<SynthStats> Local(N);
  for (size_t I = 0; I != N; ++I) {
    auto Sy = Synthesizer::create(S, outputQuery(Outputs[I]), Options);
    if (!Sy) {
      Slots[I].emplace(Sy.error());
      continue;
    }
    Slots[I].emplace(Sy->synthesizeInterval(Kind, Stats ? &Local[I] : nullptr));
  }

  std::vector<OutputIndSet<Box>> Sets;
  for (size_t I = 0; I != N; ++I) {
    // First failure in output order wins.
    if (!*Slots[I])
      return Slots[I]->error();
    if (Stats) {
      Stats->SolverNodes += Local[I].SolverNodes;
      Stats->BoxesSynthesized += Local[I].BoxesSynthesized;
      Stats->Seconds += Local[I].Seconds;
      Stats->Exhausted |= Local[I].Exhausted;
    }
    // Only the True half matters: the False set of "f == v" is the union
    // of the other outputs' sets, which are synthesized in their own
    // right.
    Sets.push_back({Outputs[I], (*Slots[I])->TrueSet});
  }
  return Sets;
}

Result<std::vector<OutputIndSet<PowerBox>>>
ClassifierSynthesizer::synthesizePowerset(ApproxKind Kind, unsigned K,
                                          SynthStats *Stats) const {
  size_t N = Outputs.size();
  std::vector<std::optional<Result<IndSets<PowerBox>>>> Slots(N);
  std::vector<SynthStats> Local(N);
  for (size_t I = 0; I != N; ++I) {
    auto Sy = Synthesizer::create(S, outputQuery(Outputs[I]), Options);
    if (!Sy) {
      Slots[I].emplace(Sy.error());
      continue;
    }
    Slots[I].emplace(
        Sy->synthesizePowerset(Kind, K, Stats ? &Local[I] : nullptr));
  }

  std::vector<OutputIndSet<PowerBox>> Sets;
  for (size_t I = 0; I != N; ++I) {
    if (!*Slots[I])
      return Slots[I]->error();
    if (Stats) {
      Stats->SolverNodes += Local[I].SolverNodes;
      Stats->BoxesSynthesized += Local[I].BoxesSynthesized;
      Stats->Seconds += Local[I].Seconds;
      Stats->Exhausted |= Local[I].Exhausted;
    }
    Sets.push_back({Outputs[I], (*Slots[I])->TrueSet});
  }
  return Sets;
}
