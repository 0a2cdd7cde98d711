//===- analysis/LintReport.cpp - Lint diagnostics rendering ---------------===//

#include "analysis/LintReport.h"

#include "obs/Trace.h"

using namespace anosy;

std::string anosy::renderLintText(const std::vector<LintedModule> &Modules) {
  std::string Out;
  unsigned Errors = 0, Warnings = 0, Notes = 0;
  for (const LintedModule &M : Modules) {
    Out += "== " + M.Name + " ==\n";
    for (const QueryAnalysis &Q : M.Analysis.Queries) {
      Out += "  query " + Q.Name + ": " + lintVerdictName(Q.Verdict);
      Out += "  True<=" + Q.TrueCardBound.str();
      Out += " False<=" + Q.FalseCardBound.str();
      Out += "  tier=";
      Out += domainTierName(Q.Tier);
      Out += "\n";
    }
    for (const LintDiagnostic &D : M.Analysis.Diagnostics) {
      Out += "  " + M.Name + ": " + D.str() + "\n";
    }
    Errors += M.Analysis.count(LintSeverity::Error);
    Warnings += M.Analysis.count(LintSeverity::Warning);
    Notes += M.Analysis.count(LintSeverity::Note);
  }
  Out += "lint: " + std::to_string(Errors) + " error(s), " +
         std::to_string(Warnings) + " warning(s), " +
         std::to_string(Notes) + " note(s)\n";
  return Out;
}

namespace {

void appendDiagnosticJson(const LintDiagnostic &D, std::string &Out) {
  Out += "        {\"severity\": \"";
  Out += lintSeverityName(D.Severity);
  Out += "\", \"verdict\": \"";
  Out += lintVerdictName(D.Verdict);
  Out += "\", \"query\": " + obs::jsonQuote(D.Query);
  Out += ", \"message\": " + obs::jsonQuote(D.Message);
  Out += ", \"witness\": " + obs::jsonQuote(D.Witness.str());
  Out += ", \"fix\": " + obs::jsonQuote(D.Fix);
  Out += "}";
}

void appendQueryJson(const QueryAnalysis &Q, std::string &Out) {
  Out += "        {\"name\": " + obs::jsonQuote(Q.Name);
  Out += ", \"verdict\": \"";
  Out += lintVerdictName(Q.Verdict);
  Out += "\", \"relational\": ";
  Out += Q.Features.Relational ? "true" : "false";
  Out += ", \"atoms\": " + std::to_string(Q.Features.NumAtoms);
  Out += ", \"tier\": \"";
  Out += domainTierName(Q.Tier);
  Out += "\"";
  Out += ", \"true_posterior\": {\"box\": " +
         obs::jsonQuote(Q.TruePosterior.str()) + ", \"volume\": \"" +
         Q.TruePosterior.volume().str() + "\", \"card_bound\": \"" +
         Q.TrueCardBound.str() + "\"";
  if (Q.Tier == DomainTier::Octagon)
    Out += ", \"octagon\": " + obs::jsonQuote(Q.TrueOctagon.str());
  Out += "}";
  Out += ", \"false_posterior\": {\"box\": " +
         obs::jsonQuote(Q.FalsePosterior.str()) + ", \"volume\": \"" +
         Q.FalsePosterior.volume().str() + "\", \"card_bound\": \"" +
         Q.FalseCardBound.str() + "\"";
  if (Q.Tier == DomainTier::Octagon)
    Out += ", \"octagon\": " + obs::jsonQuote(Q.FalseOctagon.str());
  Out += "}";
  Out += ", \"skip_synthesis\": ";
  Out += Q.SkipSynthesis ? "true" : "false";
  Out += ", \"reject_statically\": ";
  Out += Q.RejectStatically ? "true" : "false";
  Out += "}";
}

} // namespace

std::string anosy::renderLintJson(const std::vector<LintedModule> &Modules) {
  std::string Out = "{\n  \"modules\": [\n";
  unsigned Errors = 0, Warnings = 0, Notes = 0;
  for (size_t I = 0; I != Modules.size(); ++I) {
    const LintedModule &M = Modules[I];
    Out += "    {\"module\": " + obs::jsonQuote(M.Name) + ",\n";
    Out += "      \"min_size\": " + std::to_string(M.Options.MinSize) +
           ",\n";
    Out += "      \"relational\": \"";
    Out += relationalTierName(M.Options.Relational);
    Out += "\",\n";
    Out += "      \"queries\": [\n";
    for (size_t Q = 0; Q != M.Analysis.Queries.size(); ++Q) {
      appendQueryJson(M.Analysis.Queries[Q], Out);
      Out += Q + 1 != M.Analysis.Queries.size() ? ",\n" : "\n";
    }
    Out += "      ],\n      \"diagnostics\": [\n";
    for (size_t D = 0; D != M.Analysis.Diagnostics.size(); ++D) {
      appendDiagnosticJson(M.Analysis.Diagnostics[D], Out);
      Out += D + 1 != M.Analysis.Diagnostics.size() ? ",\n" : "\n";
    }
    Out += "      ]}";
    Out += I + 1 != Modules.size() ? ",\n" : "\n";
    Errors += M.Analysis.count(LintSeverity::Error);
    Warnings += M.Analysis.count(LintSeverity::Warning);
    Notes += M.Analysis.count(LintSeverity::Note);
  }
  Out += "  ],\n";
  Out += "  \"errors\": " + std::to_string(Errors) + ",\n";
  Out += "  \"warnings\": " + std::to_string(Warnings) + ",\n";
  Out += "  \"notes\": " + std::to_string(Notes) + "\n}\n";
  return Out;
}
