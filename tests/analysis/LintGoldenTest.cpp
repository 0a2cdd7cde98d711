//===- tests/analysis/LintGoldenTest.cpp - Pinned lint report bytes -------===//
//
// Pins renderLintText and renderLintJson byte for byte over the shipped
// example modules and the curated corpus, each under its own
// `# anosy-lint:` pragmas, plus B1–B5 at the paper's k = 100. Every
// verdict, posterior, cardinality bound and tier of those modules is in
// the two renderings, so a change to any of them shows up here as a
// diff. On a mismatch the actual rendering is written next to the test's
// temporary files, ready to diff against golden/.
//
//===----------------------------------------------------------------------===//

#include "analysis/LintReport.h"
#include "benchlib/Problems.h"
#include "expr/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace anosy;

namespace {

std::string slurp(const std::filesystem::path &P) {
  std::ifstream In(P, std::ios::binary);
  EXPECT_TRUE(In.good()) << P;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The pinned modules in a fixed order: each directory's `.anosy` files
/// sorted by name, reported under their base names, then B1–B5.
std::vector<LintedModule> lintPinnedModules() {
  std::vector<LintedModule> Mods;
  for (const char *Dir : {ANOSY_MODULES_DIR, ANOSY_CURATED_DIR}) {
    std::vector<std::filesystem::path> Files;
    for (const auto &Entry : std::filesystem::directory_iterator(Dir))
      if (Entry.path().extension() == ".anosy")
        Files.push_back(Entry.path());
    std::sort(Files.begin(), Files.end());
    for (const std::filesystem::path &F : Files) {
      std::string Source = slurp(F);
      auto M = parseModule(Source);
      EXPECT_TRUE(M.ok()) << F << ": " << (M.ok() ? "" : M.error().str());
      if (!M.ok())
        continue;
      LintOptions Opt = lintOptionsForSource(Source);
      Mods.push_back({F.filename().string(), Opt, analyzeModule(*M, Opt)});
    }
  }
  LintOptions Paper;
  Paper.MinSize = 100;
  for (const BenchmarkProblem &P : mardzielBenchmarks())
    Mods.push_back({P.Id, Paper, analyzeModule(P.M, Paper)});
  return Mods;
}

void expectGolden(const std::string &File, const std::string &Actual) {
  std::string Expected =
      slurp(std::filesystem::path(ANOSY_ANALYSIS_GOLDEN_DIR) / File);
  EXPECT_EQ(Expected, Actual) << File;
  if (Expected == Actual)
    return;
  std::string Path = testing::TempDir() + File + ".actual";
  std::ofstream(Path, std::ios::binary) << Actual;
  ADD_FAILURE() << "actual rendering written to " << Path;
}

} // namespace

TEST(LintGolden, TextReportPinned) {
  expectGolden("lint_report.txt", renderLintText(lintPinnedModules()));
}

TEST(LintGolden, JsonReportPinned) {
  expectGolden("lint_report.json", renderLintJson(lintPinnedModules()));
}
