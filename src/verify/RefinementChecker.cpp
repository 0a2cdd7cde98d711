//===- verify/RefinementChecker.cpp - Fig. 4 obligation checking ----------===//

#include "verify/RefinementChecker.h"

#include "obs/Instrument.h"

using namespace anosy;

RefinementChecker::RefinementChecker(const Schema &InS, ExprRef Query,
                                     uint64_t MaxSolverNodes,
                                     SolverBudget *InSessionBudget,
                                     uint64_t InDeadlineMs)
    : S(InS), Bounds(Box::top(InS)), MaxSolverNodes(MaxSolverNodes),
      SessionBudget(InSessionBudget), DeadlineMs(InDeadlineMs),
      // exprPredicate asserts that the query is non-null and boolean.
      QueryPred(exprPredicate(std::move(Query))) {}

Certificate
RefinementChecker::checkForallObligation(const std::string &Obligation,
                                         const PredicateRef &P,
                                         const Box &Over) const {
  // Fault-injection site: an injected verifier fault leaves the
  // obligation undecided — exactly the shape of a solver timeout, and
  // exactly what degradation-aware callers must tolerate.
  if (faults::armed() && faults::shouldFail(FaultSite::VerifierObligation)) {
    Certificate C;
    C.Obligation = Obligation;
    C.Valid = false;
    C.Exhausted = true;
    return C;
  }

  SolverBudget Budget;
  Budget.MaxNodes = MaxSolverNodes;
  Budget.Parent = SessionBudget;
  if (DeadlineMs != 0)
    Budget.setDeadlineAfterMs(DeadlineMs);
  ForallResult R = checkForall(*P, Over, Budget);
  NodesUsed += Budget.used();

  Certificate C;
  C.Obligation = Obligation;
  // Holds is meaningless when the search was cut off: never let an
  // exhausted check masquerade as a proof.
  C.Valid = R.Holds && !R.Exhausted;
  C.Exhausted = R.Exhausted;
  C.CounterExample = R.CounterExample;
  return C;
}

template <AbstractDomain D>
PredicateRef RefinementChecker::memberPredicate(const D &Dom) {
  if constexpr (std::is_same_v<D, Box>)
    return inBoxPredicate(Dom);
  else
    return inPowerBoxPredicate(Dom);
}

template <AbstractDomain D>
CertificateBundle RefinementChecker::checkIndSets(const IndSets<D> &Sets,
                                                  ApproxKind Kind) const {
  ANOSY_OBS_SPAN(Span, "anosy.verify.indsets");
  uint64_t NodesBefore = NodesUsed;
  const PredicateRef &Q = QueryPred;
  PredicateRef NotQ = notPredicate(Q);
  PredicateRef InT = memberPredicate(Sets.TrueSet);
  PredicateRef InF = memberPredicate(Sets.FalseSet);

  CertificateBundle Bundle;
  if (Kind == ApproxKind::Under) {
    // Fig. 4 under_indset: members of dT satisfy the query; members of dF
    // falsify it. (The negative index is `true` — no obligation.)
    Bundle.Parts.push_back(checkForallObligation(
        "forall x. x in dT => query x   (under_indset, True)",
        orPredicate(notPredicate(InT), Q), Bounds));
    Bundle.Parts.push_back(checkForallObligation(
        "forall x. x in dF => not (query x)   (under_indset, False)",
        orPredicate(notPredicate(InF), NotQ), Bounds));
  } else {
    // Fig. 4 over_indset: every satisfying secret is inside dT; every
    // falsifying secret is inside dF. (The positive index is `true`.)
    Bundle.Parts.push_back(checkForallObligation(
        "forall x. query x => x in dT   (over_indset, True)",
        orPredicate(NotQ, InT), Bounds));
    Bundle.Parts.push_back(checkForallObligation(
        "forall x. not (query x) => x in dF   (over_indset, False)",
        orPredicate(Q, InF), Bounds));
  }
  ANOSY_OBS_SPAN_ARG(Span, "obligations", Bundle.Parts.size());
  ANOSY_OBS_SPAN_ARG(Span, "solver_nodes", NodesUsed - NodesBefore);
  ANOSY_OBS_SPAN_ARG(Span, "valid", Bundle.valid());
  ANOSY_OBS_COUNT("anosy_verify_obligations_total",
                  "Individual proof obligations checked", Bundle.Parts.size());
  if (Bundle.firstRefuted() != nullptr)
    ANOSY_OBS_COUNT("anosy_verify_refuted_total",
                    "Obligations refuted by a counterexample", 1);
  ANOSY_OBS_COUNT("anosy_solver_nodes_total",
                  "Solver nodes charged (synthesis + verification)",
                  NodesUsed - NodesBefore);
  return Bundle;
}

template <AbstractDomain D>
CertificateBundle RefinementChecker::checkPosterior(const D &Prior,
                                                    const D &PostTrue,
                                                    const D &PostFalse,
                                                    ApproxKind Kind) const {
  const PredicateRef &Q = QueryPred;
  PredicateRef NotQ = notPredicate(Q);
  PredicateRef InPrior = memberPredicate(Prior);
  PredicateRef InT = memberPredicate(PostTrue);
  PredicateRef InF = memberPredicate(PostFalse);

  CertificateBundle Bundle;
  if (Kind == ApproxKind::Under) {
    // Fig. 4 underapprox: members of the posterior satisfy the query (resp.
    // its negation) and belonged to the prior.
    Bundle.Parts.push_back(checkForallObligation(
        "forall x. x in postT => query x && x in p   (underapprox, True)",
        orPredicate(notPredicate(InT), andPredicate(Q, InPrior)), Bounds));
    Bundle.Parts.push_back(checkForallObligation(
        "forall x. x in postF => not (query x) && x in p   "
        "(underapprox, False)",
        orPredicate(notPredicate(InF), andPredicate(NotQ, InPrior)), Bounds));
  } else {
    // Fig. 4 overapprox: any secret that satisfies the query (resp. its
    // negation) and was in the prior must be inside the posterior.
    Bundle.Parts.push_back(checkForallObligation(
        "forall x. query x && x in p => x in postT   (overapprox, True)",
        orPredicate(notPredicate(andPredicate(Q, InPrior)), InT), Bounds));
    Bundle.Parts.push_back(checkForallObligation(
        "forall x. not (query x) && x in p => x in postF   "
        "(overapprox, False)",
        orPredicate(notPredicate(andPredicate(NotQ, InPrior)), InF), Bounds));
  }
  // Fig. 3's refinement on ∩: posteriors are subsets of the prior.
  Certificate SubT;
  SubT.Obligation = "postT subsetOf p   (Fig. 3 intersect refinement)";
  SubT.Valid = DomainTraits<D>::subset(PostTrue, Prior);
  Bundle.Parts.push_back(std::move(SubT));
  Certificate SubF;
  SubF.Obligation = "postF subsetOf p   (Fig. 3 intersect refinement)";
  SubF.Valid = DomainTraits<D>::subset(PostFalse, Prior);
  Bundle.Parts.push_back(std::move(SubF));
  return Bundle;
}

// Explicit instantiations for the two shipped domains.
template CertificateBundle
RefinementChecker::checkIndSets<Box>(const IndSets<Box> &, ApproxKind) const;
template CertificateBundle RefinementChecker::checkIndSets<PowerBox>(
    const IndSets<PowerBox> &, ApproxKind) const;
template CertificateBundle
RefinementChecker::checkPosterior<Box>(const Box &, const Box &, const Box &,
                                       ApproxKind) const;
template CertificateBundle RefinementChecker::checkPosterior<PowerBox>(
    const PowerBox &, const PowerBox &, const PowerBox &, ApproxKind) const;
