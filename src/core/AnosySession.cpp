//===- core/AnosySession.cpp - Domain-independent registration ------------===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
//
// The half of session creation that does not depend on the abstract
// domain: the retry → partial → ⊥ ladder both queries and classifiers
// climb, the budgets it runs under, the solver-free certificate bundles
// and the bookkeeping of what each registration cost. The domain-typed
// passes stay in AnosySession.h: they call ArtifactCache templates, which
// anosy_cache instantiates on top of anosy_core.
//
//===----------------------------------------------------------------------===//

#include "core/AnosySession.h"

#include <cmath>

using namespace anosy;

uint64_t anosy::attemptBudget(uint64_t Base, unsigned Attempt) {
  double Grown = static_cast<double>(Base) *
                 std::pow(4.0, static_cast<double>(Attempt));
  if (Grown >= 9.0e18)
    return UINT64_MAX;
  return static_cast<uint64_t>(Grown);
}

std::unique_ptr<SolverBudget>
anosy::makeSessionBudget(const SessionOptions &O) {
  if (O.MaxSessionNodes == 0 && O.DeadlineMs == 0)
    return nullptr;
  auto B = std::make_unique<SolverBudget>(
      O.MaxSessionNodes != 0 ? O.MaxSessionNodes : UINT64_MAX);
  if (O.DeadlineMs != 0)
    B->setDeadlineAfterMs(O.DeadlineMs);
  return B;
}

/// A two-part bundle of obligations that hold without a solver run.
static CertificateBundle vacuousBundle(std::string TrueWhy,
                                       std::string FalseWhy) {
  CertificateBundle B;
  Certificate T;
  T.Obligation = "forall x. x in dT => query x   " + std::move(TrueWhy);
  T.Valid = true;
  Certificate F;
  F.Obligation = "forall x. x in dF => not (query x)   " + std::move(FalseWhy);
  F.Valid = true;
  B.Parts.push_back(std::move(T));
  B.Parts.push_back(std::move(F));
  return B;
}

CertificateBundle anosy::bottomFallbackBundle() {
  return vacuousBundle("(bottom fallback: dT = empty, vacuously valid)",
                       "(bottom fallback: dF = empty, vacuously valid)");
}

CertificateBundle anosy::constantAnswerBundle(bool Value) {
  const std::string Why = "(static analysis: ";
  return vacuousBundle(
      Why + (Value ? "every secret answers True over the prior)"
                   : "dT = empty, vacuously valid)"),
      Why + (Value ? "dF = empty, vacuously valid)"
                   : "every secret answers False over the prior)"));
}

void anosy::applyCacheSeeds(const CacheSeeds &Seeds, SynthOptions &SOpt) {
  SOpt.TrueRegionSeed = SOpt.TrueRegionSeed
                            ? SOpt.TrueRegionSeed->intersect(Seeds.TrueRegion)
                            : Seeds.TrueRegion;
  SOpt.FalseRegionSeed =
      SOpt.FalseRegionSeed
          ? SOpt.FalseRegionSeed->intersect(Seeds.FalseRegion)
          : Seeds.FalseRegion;
}

Result<LadderOutcome>
anosy::runLadder(const std::string &Name, const SessionOptions &O,
                 const SolverBudget *SessionBudget,
                 const std::function<PassOutcome(uint64_t)> &Strict,
                 const std::function<PassOutcome(uint64_t)> &Partial) {
  const unsigned MaxAttempts = std::max(1u, O.Retry.MaxAttempts);
  const uint64_t BaseNodes = O.Synth.MaxSolverNodes;
  LadderOutcome Out;
  PassOutcome Last;
  for (unsigned Attempt = 0; Attempt != MaxAttempts; ++Attempt) {
    ++Out.Passes;
    Last = Strict(attemptBudget(BaseNodes, Attempt));
    if (!Last.Err)
      return Out;
    if (Last.Err->code() != ErrorCode::BudgetExhausted)
      return *Last.Err; // Hard error: refutation, unsupported query, etc.
    if (SessionBudget != nullptr && SessionBudget->exhausted())
      break; // Retrying against a spent session budget is futile.
  }

  bool FellBack = true;
  if (Partial) {
    ++Out.Passes;
    PassOutcome Kept = Partial(attemptBudget(BaseNodes, MaxAttempts - 1));
    // Only a counterexample is hard here; a partial pass that runs out
    // of anything falls back to ⊥.
    if (Kept.Err && Kept.Err->code() == ErrorCode::VerificationFailure)
      return *Kept.Err;
    FellBack = Kept.Err.has_value();
  }
  Out.Degradation = QueryDegradation{
      Name,
      Last.Undecided ? DegradationReason::VerificationUndecided
                     : DegradationReason::SynthesisExhausted,
      Out.Passes, FellBack, Last.Err->message()};
  // Split the machine-readable code: only a wall-clock expiry maps to
  // the deadline code — node caps and injected faults stay "budget".
  Out.Degradation->DeadlineExpired =
      SessionBudget != nullptr && SessionBudget->deadlineExpired();
  return Out;
}

void anosy::accountRegistration(
    SessionStats &Stats, DegradationReport &Report, const SynthStats &Cost,
    unsigned Attempts, const std::optional<QueryDegradation> &Degradation) {
  Stats.SolverNodes += Cost.SolverNodes;
  Stats.SynthSeconds += Cost.Seconds;
  Stats.Attempts += Attempts;
  ANOSY_OBS_COUNT("anosy_queries_registered_total",
                  "Queries registered into a session tracker", 1);
  if (!Degradation)
    return;
  ++Stats.DegradedQueries;
  ANOSY_OBS_COUNT("anosy_queries_degraded_total",
                  "Queries whose artifacts were degraded", 1);
  Report.Queries.push_back(*Degradation);
}
