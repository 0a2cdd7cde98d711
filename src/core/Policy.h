//===- core/Policy.h - Quantitative declassification policies ---*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantitative policies over (approximated) attacker knowledge (§2.1):
/// predicates on abstract domains such as `size dom > 100`. For the
/// enforcement argument of §3 to go through with under-approximated
/// knowledge, a policy must be *monotone*: growing the knowledge set can
/// only make the policy easier to satisfy. Then policy(P) and P ⊆ K imply
/// policy(K). The minimum-size policies provided here are monotone;
/// user-supplied predicates can be spot-checked with checkMonotoneOnChain.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_CORE_POLICY_H
#define ANOSY_CORE_POLICY_H

#include "domains/AbstractDomain.h"

#include <functional>
#include <optional>
#include <string>

namespace anosy {

/// A named predicate on attacker knowledge.
template <AbstractDomain D> struct KnowledgePolicy {
  std::string Name;
  std::function<bool(const D &)> Check;
  /// For minimum-size-shaped policies (`size dom > MinSize`), the
  /// threshold — exposed so the static leakage analyzer (analysis/
  /// LeakageAnalyzer.h, DESIGN.md §7) can reject queries whose posterior
  /// over-approximation already violates the policy before any synthesis.
  /// Unset for policies whose shape the analyzer cannot reason about.
  std::optional<int64_t> MinSize = std::nullopt;

  bool operator()(const D &Dom) const { return Check(Dom); }
};

/// The paper's qpolicy: the knowledge must keep more than \p MinSize
/// candidate secrets (`size dom > k`). Monotone by sizeLaw.
template <AbstractDomain D>
KnowledgePolicy<D> minSizePolicy(int64_t MinSize) {
  return KnowledgePolicy<D>{
      "size > " + std::to_string(MinSize),
      [MinSize](const D &Dom) {
        return DomainTraits<D>::size(Dom) > MinSize;
      },
      MinSize};
}

/// A policy that always authorizes (useful as the "no policy" baseline).
template <AbstractDomain D> KnowledgePolicy<D> permissivePolicy() {
  return KnowledgePolicy<D>{"permissive", [](const D &) { return true; },
                            std::nullopt};
}

/// Spot-checks monotonicity of \p Policy on the chain D1 ⊆ D2: if the
/// policy accepts the smaller domain it must accept the larger one.
/// Returns false when the pair witnesses non-monotonicity (such policies
/// void the §3 enforcement argument).
template <AbstractDomain D>
bool checkMonotoneOnChain(const KnowledgePolicy<D> &Policy, const D &D1,
                          const D &D2) {
  if (!DomainTraits<D>::subset(D1, D2))
    return true;
  return !Policy(D1) || Policy(D2);
}

} // namespace anosy

#endif // ANOSY_CORE_POLICY_H
