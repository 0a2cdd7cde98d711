//===- core/KnowledgeTracker.h - AnosyT state and downgrade -----*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AnosyT monad's state and its bounded downgrade operation — a direct
/// transcription of Fig. 2. The tracker holds the quantitative policy, the
/// `secrets` map from secret values to their current (approximated)
/// attacker knowledge, and the `queries` map from names to QueryInfo.
///
/// `downgrade` behaves exactly like the paper's:
///  1. unknown query name          → "Can't downgrade <name>" error;
///  2. prior = secrets[s] or ⊤;
///  3. (postT, postF) = approx(prior);
///  4. policy must hold on *both* posteriors — the check is independent of
///     the actual query result, so the decision itself leaks nothing;
///  5. on success: run the query, store the matching posterior, return the
///     result; on failure: "Policy Violation" error and the knowledge map
///     is left untouched.
///
/// Knowledge evolution invariant (§3): the stored posterior is always an
/// under-approximation of the attacker's true knowledge
/// K_i = K_{i-1} ∩ {x | query_i x = query_i s}; tests/core/ checks this
/// against exact model counting.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_CORE_KNOWLEDGETRACKER_H
#define ANOSY_CORE_KNOWLEDGETRACKER_H

#include "core/Policy.h"
#include "core/QueryInfo.h"
#include "obs/Instrument.h"
#include "support/Result.h"

#include <map>
#include <string>

namespace anosy {

/// Per-domain compaction hook: bounds representation growth without
/// changing soundness. For PowerBox under-approximations this drops the
/// smallest include boxes once the k1*k2 intersection growth of §6.2
/// exceeds \p MaxBoxes (sound: the set only shrinks).
template <AbstractDomain D> inline void compactKnowledge(D &, size_t) {}
template <>
inline void compactKnowledge<PowerBox>(PowerBox &P, size_t MaxBoxes) {
  if (P.excludes().empty())
    P.pruneForUnder(MaxBoxes);
}

/// The AnosyT state (Fig. 2's AState) plus the bounded downgrade method.
template <AbstractDomain D> class KnowledgeTracker {
public:
  KnowledgeTracker(Schema S, KnowledgePolicy<D> Policy,
                   size_t MaxKnowledgeBoxes = 256)
      : S(std::move(S)), Top(DomainTraits<D>::top(this->S)),
        Policy(std::move(Policy)), MaxKnowledgeBoxes(MaxKnowledgeBoxes) {}

  const Schema &schema() const { return S; }
  const KnowledgePolicy<D> &policy() const { return Policy; }

  /// Registers a query (the paper does this at compile time via the
  /// plugin; AnosySession does it with synthesized+verified ind. sets).
  void registerQuery(QueryInfo<D> Info) {
    Queries.insert_or_assign(Info.Name, std::move(Info));
  }

  bool hasQuery(const std::string &Name) const { return Queries.count(Name); }

  const QueryInfo<D> *queryInfo(const std::string &Name) const {
    auto It = Queries.find(Name);
    return It == Queries.end() ? nullptr : &It->second;
  }

  /// Registers a multi-output classifier (§5.1 extension).
  void registerClassifier(ClassifierInfo<D> Info) {
    ClassifierRegistry.insert_or_assign(Info.Name, std::move(Info));
  }

  const ClassifierInfo<D> *classifierInfo(const std::string &Name) const {
    auto It = ClassifierRegistry.find(Name);
    return It == ClassifierRegistry.end() ? nullptr : &It->second;
  }

  /// The attacker knowledge currently tracked for \p Secret (⊤ before the
  /// first downgrade, per Fig. 2's `fromMaybe T`).
  D knowledgeFor(const Point &Secret) const {
    auto It = Secrets.find(Secret);
    return It == Secrets.end() ? Top : It->second;
  }

  bool hasTrackedKnowledge(const Point &Secret) const {
    return Secrets.count(Secret) != 0;
  }

  /// Fig. 2's bounded downgrade. Returns the query result, or
  /// UnknownQuery / PolicyViolation errors.
  Result<bool> downgrade(const Point &Secret, const std::string &QueryName) {
    assert(S.contains(Secret) && "secret outside its schema");
    ANOSY_OBS_SPAN(Span, "anosy.monitor.downgrade");
    ANOSY_OBS_SPAN_ARG(Span, "query", QueryName);
    auto It = Queries.find(QueryName);
    if (It == Queries.end()) {
      ANOSY_OBS_SPAN_ARG(Span, "decision", "unknown-query");
      ANOSY_OBS_COUNT("anosy_downgrades_unknown_total",
                      "Downgrades refused: query not registered", 1);
      return Error(ErrorCode::UnknownQuery,
                   "Can't downgrade " + QueryName);
    }
    const QueryInfo<D> &Info = It->second;

    // The prior is met where it is stored; only the answered posterior is
    // moved back into its slot.
    Slot Known = locate(Secret);
    auto [PostT, PostF] = Info.approx(Known.Prior);
    compactKnowledge(PostT, MaxKnowledgeBoxes);
    compactKnowledge(PostF, MaxKnowledgeBoxes);

    // The policy is checked on both posteriors, irrespective of the actual
    // response, "to prevent potential leaks due to the security decision"
    // (§3).
    if (!Policy(PostT) || !Policy(PostF)) {
      ANOSY_OBS_SPAN_ARG(Span, "decision", "refused");
      ANOSY_OBS_COUNT("anosy_downgrades_refused_total",
                      "Downgrades refused by the knowledge policy", 1);
      return Error(ErrorCode::PolicyViolation,
                   "Policy Violation: downgrading '" + QueryName +
                       "' would breach policy [" + Policy.Name + "]");
    }

    bool Response = Info.run(Secret);
    store(Known, Secret, Response ? std::move(PostT) : std::move(PostF));
    ANOSY_OBS_SPAN_ARG(Span, "decision", "admitted");
    ANOSY_OBS_COUNT("anosy_downgrades_admitted_total",
                    "Downgrades admitted by the knowledge policy", 1);
    return Response;
  }

  /// Bounded downgrade of a multi-output classifier: the policy must hold
  /// on the posterior of *every* feasible output — the per-output
  /// generalization of Fig. 2's postT/postF check, keeping the decision
  /// independent of the actual answer. On success the actual output is
  /// returned and its posterior stored.
  Result<int64_t> downgradeClassifier(const Point &Secret,
                                      const std::string &Name) {
    assert(S.contains(Secret) && "secret outside its schema");
    ANOSY_OBS_SPAN(Span, "anosy.monitor.downgrade_classifier");
    ANOSY_OBS_SPAN_ARG(Span, "classifier", Name);
    auto It = ClassifierRegistry.find(Name);
    if (It == ClassifierRegistry.end()) {
      ANOSY_OBS_COUNT("anosy_downgrades_unknown_total",
                      "Downgrades refused: query not registered", 1);
      return Error(ErrorCode::UnknownQuery, "Can't downgrade " + Name);
    }
    const ClassifierInfo<D> &Info = It->second;
    // A degraded classifier registers with an empty feasible-output list
    // (DESIGN.md §6): refusing outright is the conservative rejection —
    // no posterior, no leak.
    if (Info.Ind.empty()) {
      ANOSY_OBS_COUNT("anosy_downgrades_refused_total",
                      "Downgrades refused by the knowledge policy", 1);
      return Error(ErrorCode::PolicyViolation,
                   "Policy Violation: classifier '" + Name +
                       "' is degraded (no verified ind. sets); refusing "
                       "to downgrade");
    }

    Slot Known = locate(Secret);
    std::vector<OutputIndSet<D>> Posts = Info.approx(Known.Prior);
    for (OutputIndSet<D> &P : Posts) {
      compactKnowledge(P.Set, MaxKnowledgeBoxes);
      if (!Policy(P.Set)) {
        ANOSY_OBS_COUNT("anosy_downgrades_refused_total",
                        "Downgrades refused by the knowledge policy", 1);
        return Error(ErrorCode::PolicyViolation,
                     "Policy Violation: downgrading classifier '" + Name +
                         "' would breach policy [" + Policy.Name +
                         "] on output " + std::to_string(P.Value));
      }
    }

    int64_t Output = Info.run(Secret);
    for (OutputIndSet<D> &P : Posts)
      if (P.Value == Output) {
        store(Known, Secret, std::move(P.Set));
        ANOSY_OBS_COUNT("anosy_downgrades_admitted_total",
                        "Downgrades admitted by the knowledge policy", 1);
        return Output;
      }
    // The concrete output was not among the feasible set: the registered
    // ind. sets do not describe this classifier, so nothing is admitted
    // and the knowledge is left as it was.
    return Error(ErrorCode::VerificationFailure,
                 "classifier '" + Name + "' produced unregistered output " +
                     std::to_string(Output));
  }

  /// Number of downgrades currently reflected in the secrets map.
  size_t trackedSecretCount() const { return Secrets.size(); }

private:
  /// Where a secret's knowledge lives: its map position (or the insertion
  /// hint for an untracked secret) and the prior to meet, which is ⊤ for
  /// an untracked secret.
  struct Slot {
    typename std::map<Point, D>::iterator Pos;
    bool Tracked;
    const D &Prior;
  };

  /// The one map lookup a downgrade makes.
  Slot locate(const Point &Secret) {
    auto Pos = Secrets.lower_bound(Secret);
    bool Tracked = Pos != Secrets.end() && Pos->first == Secret;
    return {Pos, Tracked, Tracked ? Pos->second : Top};
  }

  /// Moves an admitted posterior into \p Known's slot.
  void store(const Slot &Known, const Point &Secret, D &&Post) {
    if (Known.Tracked)
      Known.Pos->second = std::move(Post);
    else
      Secrets.emplace_hint(Known.Pos, Secret, std::move(Post));
  }

  Schema S;
  D Top; ///< Fig. 2's `fromMaybe T` for untracked secrets, built once.
  KnowledgePolicy<D> Policy;
  size_t MaxKnowledgeBoxes;
  std::map<Point, D> Secrets;
  std::map<std::string, QueryInfo<D>> Queries;
  std::map<std::string, ClassifierInfo<D>> ClassifierRegistry;
};

} // namespace anosy

#endif // ANOSY_CORE_KNOWLEDGETRACKER_H
