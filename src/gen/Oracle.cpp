//===- gen/Oracle.cpp - Exhaustive ground-truth oracle --------------------===//
//
// Part of anosy-cpp (see DESIGN.md §9).
//
//===----------------------------------------------------------------------===//

#include "gen/Oracle.h"

#include "baselines/Exhaustive.h"
#include "core/Qif.h"
#include "expr/Eval.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <map>

namespace anosy {

const QueryTruth *GroundTruth::find(const std::string &Name) const {
  for (const QueryTruth &Q : Queries)
    if (Q.Name == Name)
      return &Q;
  return nullptr;
}

GroundTruth computeGroundTruth(const Module &M, int64_t Limit) {
  const Schema &S = M.schema();
  BigCount Total = S.totalSize();
  assert(Total.fitsInt64() && Total.toInt64() <= Limit &&
         "oracle domain too large for enumeration");
  GroundTruth GT;
  GT.DomainSize = Total.toInt64();
  Box Top = Box::top(S);
  for (const QueryDef &Q : M.queries()) {
    QueryTruth T;
    T.Name = Q.Name;
    T.TrueCount = countByEnumeration(*Q.Body, Top, Limit);
    T.FalseCount = GT.DomainSize - T.TrueCount;
    GT.Queries.push_back(std::move(T));
  }
  return GT;
}

void LintScore::merge(const LintScore &O) {
  ConstTP += O.ConstTP;
  ConstFP += O.ConstFP;
  ConstFN += O.ConstFN;
  RejectTP += O.RejectTP;
  RejectFP += O.RejectFP;
  RejectFN += O.RejectFN;
  QueriesScored += O.QueriesScored;
}

LintScore scoreLint(const Module &M, int64_t MinSize, const GroundTruth &GT) {
  LintOptions Options;
  Options.MinSize = MinSize;
  ModuleAnalysis Analysis = analyzeModule(M, Options);

  LintScore Score;
  for (const QueryDef &Q : M.queries()) {
    const QueryAnalysis *QA = Analysis.find(Q.Name);
    const QueryTruth *T = GT.find(Q.Name);
    if (QA == nullptr || T == nullptr)
      continue;
    ++Score.QueriesScored;
    const bool LintConst = QA->SkipSynthesis;
    const bool LintReject = QA->RejectStatically;
    const bool GtConst = T->constantAnswer();
    const bool GtForced = T->refusalForced(MinSize);

    if (LintConst)
      ++(GtConst ? Score.ConstTP : Score.ConstFP);
    else if (GtConst)
      ++Score.ConstFN;

    if (LintReject)
      ++(GtForced ? Score.RejectTP : Score.RejectFP);
    else if (GtForced && !LintConst)
      ++Score.RejectFN;
  }
  return Score;
}

KnowledgePolicy<Box> tracePolicyFor(const TracePolicy &P) {
  switch (P.K) {
  case TracePolicy::Kind::Permissive:
    return permissivePolicy<Box>();
  case TracePolicy::Kind::MinSize:
    return minSizePolicy<Box>(P.MinSize);
  case TracePolicy::Kind::MinEntropy:
    return minEntropyPolicy<Box>(static_cast<double>(P.Bits));
  }
  ANOSY_UNREACHABLE("unknown trace policy kind");
}

int64_t tracePolicyThreshold(const TracePolicy &P) {
  return tracePolicyFor(P).MinSize.value_or(-1);
}

namespace {

/// Exact `size > K` policy decision on an exact posterior cardinality.
bool exactPolicyPass(int64_t Count, int64_t K) { return K < 0 || Count > K; }

std::string describeStep(unsigned Index, const TraceStep &S) {
  return "step " + std::to_string(Index) + " (secret " +
         std::to_string(S.SecretIndex) + ", '" + S.Name + "')";
}

/// True when \p B is a subset of the sorted point set \p K.
bool boxSubsetOf(const Box &B, const std::vector<Point> &K) {
  bool Subset = true;
  forEachPoint(B, [&](const Point &P) {
    if (!std::binary_search(K.begin(), K.end(), P)) {
      Subset = false;
      return false;
    }
    return true;
  });
  return Subset;
}

} // namespace

ReplayResult replayWithOracle(const Module &M, const GeneratedTrace &T,
                              const SessionOptions &Options,
                              bool CheckKbRoundTrip) {
  ReplayResult R;
  const Schema &S = M.schema();
  const int64_t K = tracePolicyThreshold(T.Policy);

  for (size_t I = 0; I != T.Secrets.size(); ++I) {
    if (!S.contains(T.Secrets[I])) {
      R.Mismatches.push_back("secret " + std::to_string(I) +
                             " is outside schema " + S.str());
      return R;
    }
  }

  GroundTruth GT = computeGroundTruth(M);
  auto Session = AnosySession<Box>::create(M, tracePolicyFor(T.Policy),
                                           Options);
  if (!Session) {
    R.Mismatches.push_back("session creation failed: " +
                           Session.error().str());
    return R;
  }

  // Static rejection claims are sound claims about *exact* posteriors:
  // a StaticallyRejected query must be refusal-forced in ground truth.
  for (const QueryDegradation &D : Session->degradation().Queries) {
    if (D.Reason != DegradationReason::StaticallyRejected)
      continue;
    const QueryTruth *QT = GT.find(D.Query);
    if (QT != nullptr && !QT->refusalForced(K))
      R.Mismatches.push_back("static rejection of '" + D.Query +
                             "' is unsound: exact branch counts " +
                             std::to_string(QT->TrueCount) + "/" +
                             std::to_string(QT->FalseCount) +
                             " both exceed threshold " + std::to_string(K));
  }

  // Exact attacker knowledge, keyed by secret *value* exactly like the
  // tracker's map (identical trace secrets share one knowledge set).
  std::vector<Point> AllPoints = enumeratePoints(Box::top(S));
  std::map<Point, std::vector<Point>> Exact;
  for (const Point &P : T.Secrets)
    Exact.emplace(P, AllPoints);

  bool HasClassifierSteps = false;
  for (unsigned I = 0; I != T.Steps.size(); ++I) {
    const TraceStep &Step = T.Steps[I];
    const Point &Secret = T.Secrets[Step.SecretIndex];
    std::vector<Point> &Know = Exact[Secret];
    const QueryDef *Q = M.findQuery(Step.Name);
    const ClassifierDef *C =
        Q == nullptr ? M.findClassifier(Step.Name) : nullptr;

    StepOutcome Out;
    Out.Index = I;
    ++R.Stats.Steps;

    if (Q != nullptr) {
      Out.IsQuery = true;
      const bool ExactAnswer = evalBool(*Q->Body, Secret);
      Result<bool> Ans = Session->downgrade(Secret, Step.Name);
      if (Ans) {
        ++R.Stats.Admitted;
        Out.Admitted = true;
        Out.Value = *Ans ? 1 : 0;
        if (*Ans != ExactAnswer)
          R.Mismatches.push_back(describeStep(I, Step) + ": answered " +
                                 (*Ans ? "true" : "false") +
                                 " but concrete evaluation says " +
                                 (ExactAnswer ? "true" : "false"));
        // Soundness: the monitor admitted after checking the policy on
        // both under-approximated posteriors, so both *exact* posteriors
        // must pass too (approx ⊆ exact + monotone policy).
        std::vector<Point> PostT, PostF;
        for (const Point &P : Know)
          (evalBool(*Q->Body, P) ? PostT : PostF).push_back(P);
        if (!exactPolicyPass(static_cast<int64_t>(PostT.size()), K) ||
            !exactPolicyPass(static_cast<int64_t>(PostF.size()), K))
          R.Mismatches.push_back(
              describeStep(I, Step) + ": admitted but exact posteriors " +
              std::to_string(PostT.size()) + "/" +
              std::to_string(PostF.size()) + " violate threshold " +
              std::to_string(K));
        Know = ExactAnswer ? std::move(PostT) : std::move(PostF);
        Box Tracked = Session->tracker().knowledgeFor(Secret);
        if (!boxSubsetOf(Tracked, Know))
          R.Mismatches.push_back(describeStep(I, Step) +
                                 ": tracked knowledge " + Tracked.str() +
                                 " is not a subset of exact knowledge (" +
                                 std::to_string(Know.size()) + " points)");
      } else {
        ++R.Stats.Refused;
        Out.Code = Ans.error().code();
        if (Ans.error().code() != ErrorCode::PolicyViolation)
          R.Mismatches.push_back(describeStep(I, Step) +
                                 ": refused a registered query with " +
                                 Ans.error().str());
        else if (K < 0)
          R.Mismatches.push_back(describeStep(I, Step) +
                                 ": refused under the permissive policy");
      }
    } else if (C != nullptr) {
      HasClassifierSteps = true;
      const int64_t ExactOutput = evalInt(*C->Body, Secret);
      Result<int64_t> Ans = Session->downgradeClassifier(Secret, Step.Name);
      if (Ans) {
        ++R.Stats.Admitted;
        Out.Admitted = true;
        Out.Value = *Ans;
        if (*Ans != ExactOutput)
          R.Mismatches.push_back(
              describeStep(I, Step) + ": classifier answered " +
              std::to_string(*Ans) + " but concrete evaluation says " +
              std::to_string(ExactOutput));
        std::vector<Point> Post;
        for (const Point &P : Know)
          if (evalInt(*C->Body, P) == ExactOutput)
            Post.push_back(P);
        if (!exactPolicyPass(static_cast<int64_t>(Post.size()), K))
          R.Mismatches.push_back(
              describeStep(I, Step) + ": admitted but the exact posterior (" +
              std::to_string(Post.size()) + " points) violates threshold " +
              std::to_string(K));
        Know = std::move(Post);
        Box Tracked = Session->tracker().knowledgeFor(Secret);
        if (!boxSubsetOf(Tracked, Know))
          R.Mismatches.push_back(describeStep(I, Step) +
                                 ": tracked knowledge " + Tracked.str() +
                                 " is not a subset of exact knowledge (" +
                                 std::to_string(Know.size()) + " points)");
      } else {
        ++R.Stats.Refused;
        Out.Code = Ans.error().code();
        // Degraded classifiers refuse even under permissive policies, so
        // no permissive-never-refuses check here; but the refusal code
        // must be the policy one — VerificationFailure means the
        // registered ind. sets missed the concrete output.
        if (Ans.error().code() != ErrorCode::PolicyViolation)
          R.Mismatches.push_back(describeStep(I, Step) +
                                 ": refused a registered classifier with " +
                                 Ans.error().str());
      }
    } else {
      // Hostile path: the name is not defined. Fig. 2's monitor must
      // refuse with UnknownQuery and leak nothing.
      ++R.Stats.UnknownName;
      Result<bool> Ans = Session->downgrade(Secret, Step.Name);
      if (Ans) {
        ++R.Stats.Admitted;
        Out.Admitted = true;
        Out.Value = *Ans ? 1 : 0;
        R.Mismatches.push_back(describeStep(I, Step) +
                               ": admitted an undefined query name");
      } else {
        ++R.Stats.Refused;
        Out.Code = Ans.error().code();
        if (Ans.error().code() != ErrorCode::UnknownQuery)
          R.Mismatches.push_back(describeStep(I, Step) +
                                 ": undefined name refused with " +
                                 Ans.error().str() +
                                 " instead of UnknownQuery");
      }
    }
    R.Outcomes.push_back(Out);
  }

  // KB round-trip: export, reload, and require identical artifacts. The
  // reloaded session must then replay the whole trace identically —
  // checked only for classifier-free traces, because exported knowledge
  // bases carry queries only and a missing classifier's knowledge update
  // would legitimately shift later decisions. Skipped while the fault
  // harness is armed: reloading re-verifies every record, and an injected
  // undecided obligation makes the reload re-synthesize degraded (still
  // sound, but smaller) ind. sets that legitimately differ — the fault
  // drivers exercise the crash-safe KB file cycle separately.
  if (!CheckKbRoundTrip || faults::armed())
    return R;
  std::string Kb = Session->exportKnowledgeBase();
  auto Reloaded = AnosySession<Box>::createFromKnowledgeBase(
      Kb, tracePolicyFor(T.Policy), Options);
  if (!Reloaded) {
    R.Mismatches.push_back("knowledge base did not round-trip: " +
                           Reloaded.error().str());
    return R;
  }
  for (const QueryDef &Q : M.queries()) {
    const QueryInfo<Box> *A = Session->tracker().queryInfo(Q.Name);
    const QueryInfo<Box> *B = Reloaded->tracker().queryInfo(Q.Name);
    if (A == nullptr || B == nullptr) {
      R.Mismatches.push_back("query '" + Q.Name +
                             "' missing after knowledge-base round-trip");
      continue;
    }
    if (A->Ind.TrueSet != B->Ind.TrueSet || A->Ind.FalseSet != B->Ind.FalseSet)
      R.Mismatches.push_back("ind. sets for '" + Q.Name +
                             "' changed across the knowledge-base "
                             "round-trip");
  }
  if (!HasClassifierSteps) {
    for (unsigned I = 0; I != T.Steps.size(); ++I) {
      const TraceStep &Step = T.Steps[I];
      const StepOutcome &First = R.Outcomes[I];
      Result<bool> Ans =
          Reloaded->downgrade(T.Secrets[Step.SecretIndex], Step.Name);
      bool Same = Ans ? (First.Admitted && First.Value == (*Ans ? 1 : 0))
                      : (!First.Admitted && First.Code == Ans.error().code());
      if (!Same)
        R.Mismatches.push_back(describeStep(I, Step) +
                               ": reloaded session diverged from the "
                               "original replay");
    }
  }
  return R;
}

} // namespace anosy
