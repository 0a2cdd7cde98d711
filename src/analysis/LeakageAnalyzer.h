//===- analysis/LeakageAnalyzer.h - Static admission analysis ---*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// anosy-lint: the static leakage analyzer (DESIGN.md §7). It runs over a
/// parsed query Module *before any secret is consulted*, computing sound
/// over-approximations of both answer-branch posteriors from the public
/// prior alone (analysis/IntervalRefiner.h), and derives per-query
/// verdicts:
///
///  * PolicyUnsatisfiable — some branch's over-approximated posterior is
///    already ≤ the policy threshold k. By sizeLaw the exact posterior,
///    and hence every sound under-approximation of it, is at least as
///    small, so `size > k` fails on that branch for *every* secret; since
///    Fig. 2's monitor checks the policy on both posteriors regardless of
///    the answer, the query would be refused for every secret and every
///    prior. Statically reject; zero solver calls.
///  * ConstantAnswer — one branch's over-approximation is empty, so the
///    query is constant on the prior and leaks nothing. Skip synthesis:
///    the exact ind. sets are (⊤, ⊥) or (⊥, ⊤).
///  * RelationalHotspot — a comparison atom couples ≥ 2 secret fields
///    (expr/Analysis.h, computed on the NNF form). Not a soundness
///    problem, but the expected-expensive synthesis class (B2-shaped
///    queries); surfaced as a note.
///  * SessionBudgetRisk — the sequence-level pass: chaining abstract
///    meets across the module's query list along the attacker-favoring
///    answer path (always the smaller non-empty branch) bounds worst-case
///    cumulative knowledge. If that chain pins the secret to ≤ k
///    candidates, some answer sequence forces the monitor to refuse
///    mid-session — flagged as a warning with the offending prefix.
///
/// Verdicts are pure functions of (module, options): no randomness, no
/// threads, no solver — deterministic and bit-identical everywhere.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_ANALYSIS_LEAKAGEANALYZER_H
#define ANOSY_ANALYSIS_LEAKAGEANALYZER_H

#include "analysis/IntervalRefiner.h"
#include "analysis/OctagonRefiner.h"
#include "expr/Analysis.h"
#include "expr/Module.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace anosy {

/// Which abstract domain produced a query's verdict. The box tier runs
/// on every query; a query it leaves inconclusive (neither constant nor
/// rejected) escalates to the octagon tier when its NNF has an atom
/// coupling ≥ 2 fields — on any other query every octagon constraint is
/// unary and already inside the box tier's fixpoint.
enum class DomainTier {
  Box,     ///< The interval refiner concluded, or escalation cannot help.
  Octagon, ///< The relational reduced product ran.
};

const char *domainTierName(DomainTier T);

/// What the analyzer concluded about one query (or query sequence).
enum class LintVerdict {
  Clean,
  ConstantAnswer,
  PolicyUnsatisfiable,
  RelationalHotspot,
  SessionBudgetRisk,
};

const char *lintVerdictName(LintVerdict V);

/// Diagnostic severity; CI gates on Error only.
enum class LintSeverity { Note, Warning, Error };

const char *lintSeverityName(LintSeverity S);

/// One reportable finding.
struct LintDiagnostic {
  LintSeverity Severity = LintSeverity::Note;
  LintVerdict Verdict = LintVerdict::Clean;
  std::string Query; ///< Offending query name.
  std::string Message;
  Box Witness; ///< The branch posterior (or chained knowledge) at fault.
  std::string Fix; ///< Suggested remediation.

  std::string str() const;
};

/// The analyzer's one setting.
struct LintOptions {
  /// The policy threshold k of `size dom > k` (minSizePolicy /
  /// minEntropyPolicy); -1 = no policy known, policy verdicts disabled.
  int64_t MinSize = -1;
};

/// Per-query analysis results.
struct QueryAnalysis {
  std::string Name;
  /// Features of the NNF-normalized body (connectives hidden under ⇒/¬
  /// cannot change them — pinned by tests/analysis/NnfFeaturesTest).
  QueryFeatures Features;
  Box TruePosterior;  ///< Over-approximation of the True branch.
  Box FalsePosterior; ///< Over-approximation of the False branch.
  /// Which domain tier concluded the analysis for this query. When it is
  /// Octagon, the posteriors above are the reduced-product boxes (⊆ the
  /// box-only result) and the octagons/cardinality bounds below carry the
  /// relational precision.
  DomainTier Tier = DomainTier::Box;
  Octagon TrueOctagon;  ///< Closed relational posterior (Octagon tier).
  Octagon FalseOctagon; ///< Closed relational posterior (Octagon tier).
  /// Upper bounds on the branch secret counts: the box volume on the box
  /// tier, min(box volume, octagon count) on the octagon tier. Policy
  /// verdicts compare these against KnowledgePolicy::MinSize.
  BigCount TrueCardBound;
  BigCount FalseCardBound;
  LintVerdict Verdict = LintVerdict::Clean;
  /// ConstantAnswer: synthesis can be skipped, ind. sets are exact.
  bool SkipSynthesis = false;
  /// PolicyUnsatisfiable: reject without touching budget or secret.
  bool RejectStatically = false;
  /// The constant value, when SkipSynthesis.
  std::optional<bool> ConstantValue;
};

/// Whole-module analysis: per-query results plus the diagnostic list.
struct ModuleAnalysis {
  std::vector<QueryAnalysis> Queries;
  std::vector<LintDiagnostic> Diagnostics;

  const QueryAnalysis *find(std::string_view Name) const;
  unsigned count(LintSeverity S) const;
  bool hasErrors() const { return count(LintSeverity::Error) != 0; }
};

/// Analyzes every query of \p M against the schema prior ⊤ (classifiers
/// are outside the boolean fragment the refiner handles and are skipped),
/// then runs the sequence pass over the query list in declaration order.
/// Each body is normalized once (normalizeQuery); every pass reads those
/// forms.
ModuleAnalysis analyzeModule(const Module &M, const LintOptions &Options = {});

/// Scans DSL \p Source for lint pragmas of the form
///   `# anosy-lint: min-size=N`
/// and overlays them on \p Base. Unknown keys and values outside int64
/// are ignored (comments stay comments); the last occurrence of a key
/// wins.
LintOptions lintOptionsForSource(std::string_view Source,
                                 LintOptions Base = {});

} // namespace anosy

#endif // ANOSY_ANALYSIS_LEAKAGEANALYZER_H
