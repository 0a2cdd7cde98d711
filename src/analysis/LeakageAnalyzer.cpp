//===- analysis/LeakageAnalyzer.cpp - Static admission analysis -----------===//

#include "analysis/LeakageAnalyzer.h"

#include "obs/Instrument.h"
#include "support/ParseNum.h"

using namespace anosy;

const char *anosy::lintVerdictName(LintVerdict V) {
  switch (V) {
  case LintVerdict::Clean:
    return "clean";
  case LintVerdict::ConstantAnswer:
    return "constant-answer";
  case LintVerdict::PolicyUnsatisfiable:
    return "policy-unsatisfiable";
  case LintVerdict::RelationalHotspot:
    return "relational-hotspot";
  case LintVerdict::SessionBudgetRisk:
    return "session-budget-risk";
  }
  return "unknown";
}

const char *anosy::domainTierName(DomainTier T) {
  switch (T) {
  case DomainTier::Box:
    return "box";
  case DomainTier::Octagon:
    return "octagon";
  }
  return "unknown";
}

const char *anosy::lintSeverityName(LintSeverity S) {
  switch (S) {
  case LintSeverity::Note:
    return "note";
  case LintSeverity::Warning:
    return "warning";
  case LintSeverity::Error:
    return "error";
  }
  return "unknown";
}

std::string LintDiagnostic::str() const {
  std::string Out = lintSeverityName(Severity);
  Out += ": [";
  Out += lintVerdictName(Verdict);
  Out += "] ";
  if (!Query.empty()) {
    Out += Query;
    Out += ": ";
  }
  Out += Message;
  if (Witness.arity() != 0) {
    Out += "  witness=";
    Out += Witness.str();
  }
  if (!Fix.empty()) {
    Out += "  fix: ";
    Out += Fix;
  }
  return Out;
}

const QueryAnalysis *ModuleAnalysis::find(std::string_view Name) const {
  for (const QueryAnalysis &Q : Queries)
    if (Q.Name == Name)
      return &Q;
  return nullptr;
}

unsigned ModuleAnalysis::count(LintSeverity S) const {
  unsigned N = 0;
  for (const LintDiagnostic &D : Diagnostics)
    N += D.Severity == S ? 1 : 0;
  return N;
}

namespace {

/// One query's two tiers over the schema prior ⊤, read off its
/// normalized forms \p N.
QueryAnalysis analyzeBranches(const Schema &S, const std::string &Name,
                              const NormalizedQuery &N, int64_t MinSize) {
  QueryAnalysis QA;
  QA.Name = Name;
  // Features on the NNF form: ⇒ and ¬ are connective sugar the abstract
  // pass never sees, so admission verdicts must not depend on them either.
  QA.Features = analyzeQuery(*N.True);

  // Tier 1 (always): the interval refiner, the cheap path every query
  // takes. Its verdicts stand on their own — escalation never reopens a
  // concluded query, it only sharpens inconclusive ones.
  BranchPosteriors P = branchPosteriors(N, Box::top(S));
  QA.TruePosterior = P.TruePosterior;
  QA.FalsePosterior = P.FalsePosterior;
  QA.TrueCardBound = P.TruePosterior.volume();
  QA.FalseCardBound = P.FalsePosterior.volume();

  bool Concluded = QA.TruePosterior.isEmpty() || QA.FalsePosterior.isEmpty();
  if (!Concluded && MinSize >= 0)
    Concluded = QA.TrueCardBound <= MinSize || QA.FalseCardBound <= MinSize;

  // Tier 2 (escalation): the octagon reduced product, on queries with an
  // atom coupling ≥ 2 fields — the only shape where a relational domain
  // can beat the box. It starts from tier 1's posteriors.
  if (!Concluded && QA.Features.Relational) {
    RelationalPosteriors RP = relationalBranchPosteriors(N, P);
    QA.Tier = DomainTier::Octagon;
    QA.TruePosterior = RP.True.BoxPosterior;
    QA.FalsePosterior = RP.False.BoxPosterior;
    QA.TrueOctagon = RP.True.OctPosterior;
    QA.FalseOctagon = RP.False.OctPosterior;
    QA.TrueCardBound = RP.True.CardBound;
    QA.FalseCardBound = RP.False.CardBound;
  }

  if (QA.TruePosterior.isEmpty() || QA.FalsePosterior.isEmpty()) {
    // One branch provably empty over the prior: the query is constant
    // (an empty over-approximation contains the exact branch).
    QA.Verdict = LintVerdict::ConstantAnswer;
    QA.SkipSynthesis = true;
    QA.ConstantValue = QA.FalsePosterior.isEmpty();
    return QA;
  }
  if (MinSize >= 0 &&
      (QA.TrueCardBound <= MinSize || QA.FalseCardBound <= MinSize)) {
    // Branch cardinality bound already at/below k: by sizeLaw the exact
    // branch, and any sound under-approximation, is no larger, so the
    // `size > k` check fails on that branch for every secret — and the
    // monitor checks both branches regardless of the answer (Fig. 2).
    // On the octagon tier the bound may be far below the box volume
    // (2r(r+1)+1 interior points of a Manhattan ball vs its (2r+1)^2
    // bounding box), which is exactly the location-family recall gap.
    QA.Verdict = LintVerdict::PolicyUnsatisfiable;
    QA.RejectStatically = true;
    return QA;
  }
  if (QA.Features.Relational)
    QA.Verdict = LintVerdict::RelationalHotspot;
  return QA;
}

/// The per-query diagnostics for one analyzed query (no diagnostic for
/// Clean verdicts).
void appendQueryDiagnostics(const QueryAnalysis &QA, const LintOptions &Opt,
                            std::vector<LintDiagnostic> &Out) {
  switch (QA.Verdict) {
  case LintVerdict::Clean:
    return;
  case LintVerdict::ConstantAnswer: {
    LintDiagnostic D;
    D.Severity = LintSeverity::Note;
    D.Verdict = QA.Verdict;
    D.Query = QA.Name;
    D.Message = std::string("query is constant-") +
                (*QA.ConstantValue ? "True" : "False") +
                " over the prior; it leaks nothing and synthesis is "
                "skipped (exact ind. sets installed)";
    D.Witness = *QA.ConstantValue ? QA.FalsePosterior : QA.TruePosterior;
    D.Fix = "drop the query, or widen the secret schema if the constant "
            "range is unintended";
    Out.push_back(std::move(D));
    return;
  }
  case LintVerdict::PolicyUnsatisfiable: {
    bool TrueSide = QA.TrueCardBound <= Opt.MinSize;
    const Box &W = TrueSide ? QA.TruePosterior : QA.FalsePosterior;
    const BigCount &Bound = TrueSide ? QA.TrueCardBound : QA.FalseCardBound;
    LintDiagnostic D;
    D.Severity = LintSeverity::Error;
    D.Verdict = QA.Verdict;
    D.Query = QA.Name;
    D.Message = std::string("the ") + (TrueSide ? "True" : "False") +
                " branch keeps at most " + Bound.str() +
                " candidate secrets <= policy threshold k=" +
                std::to_string(Opt.MinSize) +
                "; the monitor would refuse this query for every secret" +
                " [tier=" + domainTierName(QA.Tier) + "]";
    D.Witness = W;
    D.Fix = "coarsen the query (widen its ranges) or lower the policy's "
            "min-size so both branches keep > k candidates";
    Out.push_back(std::move(D));
    return;
  }
  case LintVerdict::RelationalHotspot: {
    LintDiagnostic D;
    D.Severity = LintSeverity::Note;
    D.Verdict = QA.Verdict;
    D.Query = QA.Name;
    D.Message = "a comparison atom couples >= 2 secret fields; synthesis "
                "explores a non-axis-aligned region (expected-expensive, "
                "B2-shaped)";
    if (QA.Tier == DomainTier::Octagon)
      D.Message += "; octagon tier bounds the True branch to <= " +
                   QA.TrueCardBound.str() + " candidates";
    D.Witness = QA.TruePosterior;
    D.Fix = "consider per-field query decomposition, or budget extra "
            "solver nodes for this query";
    Out.push_back(std::move(D));
    return;
  }
  case LintVerdict::SessionBudgetRisk:
    return; // Emitted by the sequence pass, not per query.
  }
}

/// The sequence-level pass: walk the module's answerable queries in
/// declaration order, always descending into the smaller non-empty branch
/// (the attacker-favoring answer), chaining refinements of the running
/// knowledge box. If the chain pins the secret to ≤ k candidates, a real
/// answer path exists along which Fig. 2's monitor must start refusing —
/// worth a warning at module-review time.
void sequencePass(const Schema &S, const ModuleAnalysis &MA,
                  const std::vector<NormalizedQuery> &Forms,
                  const LintOptions &Opt,
                  std::vector<LintDiagnostic> &Out) {
  if (Opt.MinSize < 0)
    return;
  Box Knowledge = Box::top(S);
  std::string Path;
  for (size_t I = 0; I != Forms.size(); ++I) {
    const QueryAnalysis &QA = MA.Queries[I];
    // Statically-rejected and constant queries never update knowledge
    // under a min-size policy: the monitor refuses them (one posterior
    // is below k or empty), so the attacker learns nothing.
    if (QA.RejectStatically || QA.SkipSynthesis)
      continue;
    BranchPosteriors P = branchPosteriors(Forms[I], Knowledge);
    Box Next;
    bool Answer;
    if (P.TruePosterior.isEmpty()) {
      Next = P.FalsePosterior;
      Answer = false;
    } else if (P.FalsePosterior.isEmpty()) {
      Next = P.TruePosterior;
      Answer = true;
    } else {
      Answer = P.TruePosterior.volume() <= P.FalsePosterior.volume();
      Next = Answer ? P.TruePosterior : P.FalsePosterior;
    }
    if (Next.isEmpty())
      break; // Chain bottomed out (knowledge box already infeasible).
    if (!Path.empty())
      Path += ",";
    Path += QA.Name + "=" + (Answer ? "True" : "False");
    Knowledge = Next;
    if (Knowledge.volume() <= Opt.MinSize) {
      LintDiagnostic D;
      D.Severity = LintSeverity::Warning;
      D.Verdict = LintVerdict::SessionBudgetRisk;
      D.Query = QA.Name;
      D.Message = "the answer path [" + Path +
                  "] pins the secret to at most " +
                  Knowledge.volume().str() +
                  " candidates <= policy threshold k=" +
                  std::to_string(Opt.MinSize) +
                  "; the monitor must refuse at or before this query on "
                  "that path";
      D.Witness = Knowledge;
      D.Fix = "space the queries' regions apart, split the sequence "
              "across sessions, or raise the policy's min-size headroom";
      Out.push_back(std::move(D));
      return;
    }
  }
}

} // namespace

ModuleAnalysis anosy::analyzeModule(const Module &M,
                                    const LintOptions &Options) {
  ANOSY_OBS_SPAN(Span, "anosy.lint.module");
  ModuleAnalysis MA;
  std::vector<NormalizedQuery> Forms;
  Forms.reserve(M.queries().size());
  size_t Rejected = 0;
  for (const QueryDef &Q : M.queries()) {
    Forms.push_back(normalizeQuery(Q.Body));
    QueryAnalysis QA =
        analyzeBranches(M.schema(), Q.Name, Forms.back(), Options.MinSize);
    appendQueryDiagnostics(QA, Options, MA.Diagnostics);
    if (QA.RejectStatically)
      ++Rejected;
    MA.Queries.push_back(std::move(QA));
  }
  sequencePass(M.schema(), MA, Forms, Options, MA.Diagnostics);
  ANOSY_OBS_SPAN_ARG(Span, "queries", MA.Queries.size());
  ANOSY_OBS_SPAN_ARG(Span, "diagnostics", MA.Diagnostics.size());
  ANOSY_OBS_SPAN_ARG(Span, "static_rejections", Rejected);
  ANOSY_OBS_COUNT("anosy_lint_modules_total", "Modules analyzed by the linter",
                  1);
  ANOSY_OBS_COUNT("anosy_lint_static_rejections_total",
                  "Queries the analyzer proved policy-unsatisfiable", Rejected);
  return MA;
}

LintOptions anosy::lintOptionsForSource(std::string_view Source,
                                        LintOptions Base) {
  // Pragmas ride in comments: `# anosy-lint: key=value[, key=value]`.
  constexpr std::string_view Tag = "# anosy-lint:";
  size_t Pos = 0;
  while ((Pos = Source.find(Tag, Pos)) != std::string_view::npos) {
    size_t End = Source.find('\n', Pos);
    std::string_view Line = Source.substr(
        Pos + Tag.size(),
        (End == std::string_view::npos ? Source.size() : End) -
            (Pos + Tag.size()));
    size_t Key = 0;
    while ((Key = Line.find("min-size=", Key)) != std::string_view::npos) {
      Key += 9;
      size_t Len = 0;
      while (Key + Len < Line.size() && Line[Key + Len] >= '0' &&
             Line[Key + Len] <= '9')
        ++Len;
      if (auto V = parseInt64(Line.substr(Key, Len)))
        Base.MinSize = *V;
      Key += Len;
    }
    Pos = End == std::string_view::npos ? Source.size() : End;
  }
  return Base;
}
