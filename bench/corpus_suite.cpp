//===- bench/corpus_suite.cpp - Corpus trajectory numbers -----------------===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scenario-corpus scorecard (DESIGN.md §9). Generates a deterministic
/// corpus from src/gen, then reports three things:
///
///   1. Shape: module and trace counts per family at the given seed.
///   2. Lint quality: anosy-lint's constant-answer and static-rejection
///      verdicts scored against the exhaustive ground-truth oracle —
///      precision must be 1.0 (both verdicts are soundness claims);
///      recall is the trajectory number we want to see trend upward.
///   3. Soak throughput: oracle-checked session replays per second, the
///      figure that bounds how much corpus a CI soak minute buys.
///
/// Prints the scorecard and a verdict to stdout, and exits 1 on an oracle
/// mismatch, an unsound lint verdict, or a location-family reject-recall
/// of 0. Flags: --seed N, --per-family K, --traces N, --steps N. ctest
/// runs `--seed 7 --per-family 2`.
///
//===----------------------------------------------------------------------===//

#include "gen/Corpus.h"
#include "gen/Oracle.h"
#include "support/ParseNum.h"
#include "support/Stats.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace anosy;

namespace {

struct FamilyRow {
  std::string Family;
  unsigned Modules = 0;
  unsigned Traces = 0;
  LintScore Lint;
};

[[noreturn]] void badFlagValue(const char *Flag, const char *Value) {
  std::fprintf(stderr, "error: invalid value for %s: '%s'\n", Flag, Value);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  CorpusOptions Opt;
  Opt.ModulesPerFamily = 2;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V;
    if (Arg == "--seed" && (V = Next())) {
      auto N = parseUint64(V);
      if (!N)
        badFlagValue("--seed", V);
      Opt.Seed = *N;
    } else if (Arg == "--per-family" && (V = Next())) {
      auto N = parseUnsigned(V);
      if (!N)
        badFlagValue("--per-family", V);
      Opt.ModulesPerFamily = *N;
    } else if (Arg == "--traces" && (V = Next())) {
      auto N = parseUnsigned(V);
      if (!N)
        badFlagValue("--traces", V);
      Opt.TracesPerModule = *N;
    } else if (Arg == "--steps" && (V = Next())) {
      auto N = parseUnsigned(V);
      if (!N)
        badFlagValue("--steps", V);
      Opt.StepsPerTrace = *N;
    } else {
      std::fprintf(stderr, "usage: corpus_suite [--seed N] [--per-family K] "
                           "[--traces N] [--steps N]\n");
      return 2;
    }
  }

  auto C = generateCorpus(Opt);
  if (!C) {
    std::fprintf(stderr, "%s\n", C.error().str().c_str());
    return 1;
  }

  // Per-family lint scorecard against the exhaustive oracle.
  std::vector<FamilyRow> Rows(NumScenarioFamilies);
  for (unsigned F = 0; F != NumScenarioFamilies; ++F)
    Rows[F].Family = scenarioFamilyName(static_cast<ScenarioFamily>(F));
  LintScore Total;
  for (const CorpusEntry &E : C->Entries) {
    FamilyRow &Row = Rows[static_cast<unsigned>(E.Mod.Family)];
    ++Row.Modules;
    Row.Traces += static_cast<unsigned>(E.Traces.size());
    GroundTruth GT = computeGroundTruth(E.Parsed);
    LintScore S = scoreLint(E.Parsed, E.Mod.PolicyMinSize, GT);
    Row.Lint.merge(S);
    Total.merge(S);
  }

  // Soak throughput: oracle-checked replay of every trace in the corpus.
  Stopwatch Clock;
  unsigned Sessions = 0, Mismatches = 0;
  for (const CorpusEntry &E : C->Entries) {
    for (const GeneratedTrace &T : E.Traces) {
      ReplayResult R = replayWithOracle(E.Parsed, T);
      ++Sessions;
      Mismatches += static_cast<unsigned>(R.Mismatches.size());
      for (const std::string &M : R.Mismatches)
        std::fprintf(stderr, "ORACLE MISMATCH %s: %s\n", T.Name.c_str(),
                     M.c_str());
    }
  }
  double SoakSeconds = Clock.seconds();

  std::printf("%-12s %8s %8s %8s %8s %8s %8s\n", "family", "modules",
              "traces", "c_prec", "c_rec", "r_prec", "r_rec");
  for (const FamilyRow &R : Rows)
    std::printf("%-12s %8u %8u %8.3f %8.3f %8.3f %8.3f\n", R.Family.c_str(),
                R.Modules, R.Traces,
                LintScore::precision(R.Lint.ConstTP, R.Lint.ConstFP),
                LintScore::recall(R.Lint.ConstTP, R.Lint.ConstFN),
                LintScore::precision(R.Lint.RejectTP, R.Lint.RejectFP),
                LintScore::recall(R.Lint.RejectTP, R.Lint.RejectFN));
  std::printf("soak: %u sessions in %.2fs (%.1f sessions/s), %u mismatches\n",
              Sessions, SoakSeconds,
              SoakSeconds > 0 ? Sessions / SoakSeconds : 0.0, Mismatches);

  // The recall gate: the location family (Manhattan-ball queries, the
  // paper's §6.2 workload) must reject statically at nonzero recall. A
  // regression back to 0 means the octagon tier silently stopped firing.
  bool RecallGate = true;
  const FamilyRow &Loc = Rows[static_cast<unsigned>(ScenarioFamily::Location)];
  if (Loc.Lint.RejectTP + Loc.Lint.RejectFN != 0 && Loc.Lint.RejectTP == 0) {
    std::fprintf(stderr,
                 "FAIL: location reject-recall is 0 (%u forced rejections "
                 "missed)\n",
                 Loc.Lint.RejectFN);
    RecallGate = false;
  }
  bool Pass = Mismatches == 0 && Total.sound() && RecallGate;
  std::printf("seed %llu: lint %s, location recall gate %s -> %s\n",
              static_cast<unsigned long long>(Opt.Seed),
              Total.sound() ? "sound" : "UNSOUND", RecallGate ? "ok" : "FAIL",
              Pass ? "pass" : "FAIL");
  return Pass ? 0 : 1;
}
