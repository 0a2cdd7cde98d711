//===- analysis/LintReport.h - Lint diagnostics rendering -------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rendering of analyzeModule results for the `anosy_cli lint`
/// subcommand: a compiler-style human listing and a machine-readable JSON
/// report (severity, verdict, query id, witness box, suggested fix) that
/// CI archives and gates on. Both renderings are pure functions of the
/// analysis — byte-identical across runs.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_ANALYSIS_LINTREPORT_H
#define ANOSY_ANALYSIS_LINTREPORT_H

#include "analysis/LeakageAnalyzer.h"

#include <string>
#include <vector>

namespace anosy {

/// One linted module: its display name (file path or "<builtin>"), the
/// options the analyzer ran with, and the results.
struct LintedModule {
  std::string Name;
  LintOptions Options;
  ModuleAnalysis Analysis;
};

/// Compiler-style listing: one line per diagnostic plus a summary line
/// per module and a grand total.
std::string renderLintText(const std::vector<LintedModule> &Modules);

/// The JSON report (schema documented in DESIGN.md §7): per module the
/// per-query verdicts with both posterior volumes, the diagnostics, and
/// severity totals.
std::string renderLintJson(const std::vector<LintedModule> &Modules);

} // namespace anosy

#endif // ANOSY_ANALYSIS_LINTREPORT_H
