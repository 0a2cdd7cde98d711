//===- perfbench/src/PaperSuite.cpp - The paper suite's checks and counts -===//
//
// B1–B5 × {interval, powerset k = 3}, each registered once with
// verification on: the parent commit's Fig. 5a/5b registrations. Their
// outputs are checked against references independent of the code under
// test, and their solver nodes per pair are counted — exact figures that
// repeat in every run, which solver changes cite. Timing them is left out:
// see perfbench/provenance.json ("dropped").
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Harness.h"
#include "Replay.h"

#include "benchlib/Problems.h"
#include "core/AnosySession.h"
#include "expr/Parser.h"
#include "support/Rng.h"

using namespace perfbench;
using namespace anosy;

namespace {

const char *ExpectedSizesText =
#include "ExpectedSizes.inc"
    ;

constexpr unsigned PowersetK = 3;

struct Pair {
  std::string Key; ///< "B1_interval", "B1_k3", ...
  std::string Source;
  bool Powerset = false;
};

/// What one registration produced.
struct Registered {
  std::string Error;
  uint64_t Nodes = 0;
  int64_t TrueSize = -1, FalseSize = -1;
  unsigned SampleViolations = 0;
};

int64_t sizeOf(const BigCount &C) { return C.fitsInt64() ? C.toInt64() : -1; }

/// Parses, registers with verification, exports the KB, and checks the
/// artifacts: sizes for the caller to compare, boxes sampled against the
/// tree-walk evaluator.
template <typename D> Registered registerPair(const Pair &P, Rng &Sampler) {
  Registered Out;
  auto M = parseModule(P.Source);
  if (!M) {
    Out.Error = M.error().message();
    return Out;
  }
  SessionOptions O;
  pinSerialSession(O);
  O.PowersetSize = PowersetK;
  auto S = AnosySession<D>::create(M.takeValue(), permissivePolicy<D>(), O);
  if (!S) {
    Out.Error = S.error().message();
    return Out;
  }
  if (S->exportKnowledgeBase().empty())
    Out.Error = "empty knowledge base";
  if (S->degradation().degraded())
    Out.Error = "registration degraded: " + S->degradation().str();
  Out.Nodes = S->stats().SolverNodes;

  const QueryDef &Q = S->module().queries().front();
  const IndSets<D> &Ind = S->artifacts(Q.Name)->Ind;
  Out.TrueSize = sizeOf(DomainTraits<D>::size(Ind.TrueSet));
  Out.FalseSize = sizeOf(DomainTraits<D>::size(Ind.FalseSet));
  if constexpr (std::is_same_v<D, Box>) {
    Out.SampleViolations =
        boxSampleViolations(*Q.Body, {Ind.TrueSet}, {}, true, Sampler) +
        boxSampleViolations(*Q.Body, {Ind.FalseSet}, {}, false, Sampler);
  } else {
    Out.SampleViolations =
        boxSampleViolations(*Q.Body, Ind.TrueSet.includes(),
                            Ind.TrueSet.excludes(), true, Sampler) +
        boxSampleViolations(*Q.Body, Ind.FalseSet.includes(),
                            Ind.FalseSet.excludes(), false, Sampler);
  }
  return Out;
}

std::string countsJson(const std::vector<std::string> &Keys,
                       const std::vector<uint64_t> &Counts) {
  std::string Out = "{";
  for (size_t I = 0; I != Keys.size(); ++I)
    Out += (I != 0 ? ", \"" : "\"") + Keys[I] +
           "\": " + std::to_string(Counts[I]);
  return Out + "}";
}

} // namespace

void perfbench::checkPaperSuite(const RunArgs &A, RunResult &R,
                                LayerReport *L) {
  auto Expected = parseExpectedSizes(ExpectedSizesText);
  if (!Expected) {
    R.problem(Expected.error().message());
    return;
  }
  std::vector<Pair> Pairs;
  for (const BenchmarkProblem &BP : mardzielBenchmarks())
    for (bool Powerset : {false, true})
      Pairs.push_back(
          {BP.Id + (Powerset ? "_k3" : "_interval"), BP.Source, Powerset});

  Rng Sampler(A.Seed ^ 0x5a3b1e5ULL);
  std::vector<std::string> Keys;
  std::vector<uint64_t> Nodes, SynthNodes, VerifyNodes;
  for (const Pair &P : Pairs) {
    Registered Reg = P.Powerset ? registerPair<PowerBox>(P, Sampler)
                                : registerPair<Box>(P, Sampler);
    std::string Why =
        !Reg.Error.empty()
            ? P.Key + ": " + Reg.Error
            : checkUnderSizes(*Expected, P.Key, Reg.TrueSize, Reg.FalseSize);
    if (Why.empty() && Reg.SampleViolations != 0)
      Why = P.Key + ": " + std::to_string(Reg.SampleViolations) +
            " sampled points of synthesized boxes answer the wrong way";
    ++R.Attempted;
    if (!Why.empty()) {
      ++R.Failed;
      R.problem(Why);
    }
    Keys.push_back(P.Key);
    Nodes.push_back(Reg.Nodes);
    if (L == nullptr)
      continue;
    // Split the nodes into synthesis and verification by replaying the
    // registration step by step; the serial engine repeats them exactly.
    ReplayOptions RO;
    RO.PowersetK = PowersetK;
    ReplayCounts C =
        P.Powerset ? replayRegistration<PowerBox>(P.Source, RO, nullptr, 0)
                   : replayRegistration<Box>(P.Source, RO, nullptr, 0);
    if (!C.Ok || C.SynthNodes + C.VerifyNodes != Reg.Nodes)
      R.problem(P.Key + ": the step-by-step replay diverged from the "
                        "registration");
    SynthNodes.push_back(C.SynthNodes);
    VerifyNodes.push_back(C.VerifyNodes);
    L->SynthNodesPerPair[P.Key] = static_cast<double>(C.SynthNodes);
    L->SynthNodes += static_cast<double>(C.SynthNodes);
    L->VerifyNodes += static_cast<double>(C.VerifyNodes);
  }
  R.detail("paper_suite_nodes_per_pair", countsJson(Keys, Nodes));
  if (L != nullptr) {
    R.detail("paper_suite_synth_nodes", countsJson(Keys, SynthNodes));
    R.detail("paper_suite_verify_nodes", countsJson(Keys, VerifyNodes));
  }
}
