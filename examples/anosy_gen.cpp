//===- examples/anosy_gen.cpp - Corpus & workload generator driver --------===//
//
// The command-line face of src/gen (DESIGN.md §9): deterministic scenario
// corpora, adversarial traffic traces, oracle-checked replay, and the
// randomized fault sweep.
//
//   anosy_gen modules --family F [--seed N] [--count K] [--min-size M]
//                     [--max-domain D] [--out DIR]
//       Emit K scenario modules of family F (location, census, medical,
//       auction, probe, adversarial) to stdout or DIR/<name>.anosy.
//
//   anosy_gen traces <module.anosy> --strategy S [--policy P] [--seed N]
//                     [--steps N]
//       Emit one trace (sweep, repeat, bisect, hostile, interleave;
//       policy permissive | min-size:K | min-entropy:B) to stdout.
//
//   anosy_gen corpus [--seed N] [--per-family K] [--traces N] [--steps N]
//                     [--min-size M] [--max-domain D] --out DIR
//       Emit a full corpus: every family, modules plus paired traces
//       (DIR/<module>.anosy, DIR/<trace>.trace). Byte-deterministic in
//       the options — this is how tests/corpus/ was produced.
//
//   anosy_gen replay <module.anosy> <trace.trace> [--no-kb-check]
//       Replay the trace through an AnosySession<Box> under the trace's
//       policy, cross-checked against the exhaustive oracle. Exit 1 on
//       any oracle mismatch.
//
//   anosy_gen soak [--seed N] [--sessions N] [--dump-dir DIR] ...
//       Generate corpora on rotating seeds and oracle-replay every trace
//       until N sessions have run; prints throughput. On mismatch, dumps
//       the offending module and trace to DIR (for CI artifact upload)
//       and exits 1.
//
//   anosy_gen faults [--seed N] [--scenarios N] [--dump-dir DIR]
//       The randomized failure sweep: each scenario arms the
//       deterministic fault harness (support/FaultInjection.h) with a
//       random site configuration, then runs an oracle-checked replay
//       plus a file-based knowledge-base write/read/recover cycle. Every
//       scenario must end in soundness — degraded answers are fine,
//       wrong answers or crashes are not. Exit 1 on violation, with the
//       scenario's seed printed for exact replay.
//
//===----------------------------------------------------------------------===//

#include "core/ArtifactIO.h"
#include "expr/Parser.h"
#include "gen/Corpus.h"
#include "gen/Oracle.h"
#include "gen/ScenarioGen.h"
#include "gen/TraceGen.h"
#include "support/FaultInjection.h"
#include "support/ParseNum.h"
#include "support/Rng.h"
#include "support/Stats.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace anosy;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: anosy_gen modules --family F [--seed N] [--count K]\n"
      "                 [--min-size M] [--max-domain D] [--out DIR]\n"
      "   or: anosy_gen traces <module.anosy> --strategy S [--policy P]\n"
      "                 [--seed N] [--steps N]\n"
      "   or: anosy_gen corpus [--seed N] [--per-family K] [--traces N]\n"
      "                 [--steps N] [--min-size M] [--max-domain D]\n"
      "                 --out DIR\n"
      "   or: anosy_gen kb <module.anosy> [--min-size N] [--out FILE]\n"
      "   or: anosy_gen replay <module.anosy> <trace.trace> "
      "[--no-kb-check]\n"
      "   or: anosy_gen soak [--seed N] [--sessions N] [--per-family K]\n"
      "                 [--traces N] [--steps N] [--dump-dir DIR]\n"
      "   or: anosy_gen faults [--seed N] [--scenarios N] "
      "[--dump-dir DIR]\n"
      "families: location census medical auction probe adversarial\n"
      "strategies: sweep repeat bisect hostile interleave\n"
      "policies: permissive | min-size:K | min-entropy:B\n");
  return 2;
}

[[noreturn]] void badFlagValue(const char *Flag, const char *Value) {
  std::fprintf(stderr, "error: invalid value for %s: '%s'\n", Flag, Value);
  std::exit(2);
}

uint64_t parseUint64Flag(const char *Flag, const char *Value) {
  auto V = parseUint64(Value);
  if (!V)
    badFlagValue(Flag, Value);
  return *V;
}

unsigned parseUnsignedFlag(const char *Flag, const char *Value) {
  auto V = parseUnsigned(Value);
  if (!V)
    badFlagValue(Flag, Value);
  return *V;
}

int64_t parseInt64Flag(const char *Flag, const char *Value) {
  auto V = parseInt64(Value);
  if (!V)
    badFlagValue(Flag, Value);
  return *V;
}

/// "permissive", "min-size:K", or "min-entropy:B".
TracePolicy parsePolicyFlag(const char *Value) {
  std::string V = Value;
  TracePolicy P;
  if (V == "permissive") {
    P.K = TracePolicy::Kind::Permissive;
    return P;
  }
  size_t Colon = V.find(':');
  if (Colon != std::string::npos) {
    std::string Head = V.substr(0, Colon);
    auto N = parseInt64(V.substr(Colon + 1));
    if (N && *N >= 0 && Head == "min-size") {
      P.K = TracePolicy::Kind::MinSize;
      P.MinSize = *N;
      return P;
    }
    if (N && *N >= 0 && Head == "min-entropy") {
      P.K = TracePolicy::Kind::MinEntropy;
      P.Bits = *N;
      return P;
    }
  }
  badFlagValue("--policy", Value);
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << Text;
  return static_cast<bool>(Out.flush());
}

/// mkdir -p for one level; fine if it already exists.
bool ensureDir(const std::string &Dir) {
  if (::mkdir(Dir.c_str(), 0755) == 0 || errno == EEXIST)
    return true;
  return false;
}

Result<Module> parseModuleFile(const std::string &Path, std::string *SourceOut) {
  std::string Source;
  if (!readFile(Path, Source))
    return Error(ErrorCode::Other, "cannot open " + Path);
  if (SourceOut != nullptr)
    *SourceOut = Source;
  return parseModule(Source);
}

/// Dumps the artifacts a failing replay needs for offline reproduction.
void dumpFailure(const std::string &Dir, const GeneratedModule &Mod,
                 const GeneratedTrace &Trace, const ReplayResult &R) {
  if (Dir.empty() || !ensureDir(Dir))
    return;
  writeFile(Dir + "/" + Mod.Name + ".anosy", Mod.Source);
  writeFile(Dir + "/" + Trace.Name + ".trace", renderTrace(Trace));
  std::string Report;
  for (const std::string &M : R.Mismatches)
    Report += M + "\n";
  writeFile(Dir + "/" + Trace.Name + ".mismatches.txt", Report);
  std::fprintf(stderr, "dumped failing module/trace to %s\n", Dir.c_str());
}

int printReplay(const ReplayResult &R, const std::string &TraceName) {
  std::printf("%s: %u steps, %u admitted, %u refused, %u unknown-name\n",
              TraceName.c_str(), R.Stats.Steps, R.Stats.Admitted,
              R.Stats.Refused, R.Stats.UnknownName);
  for (const std::string &M : R.Mismatches)
    std::fprintf(stderr, "ORACLE MISMATCH: %s\n", M.c_str());
  return R.ok() ? 0 : 1;
}

int runModules(int Argc, char **Argv) {
  ScenarioOptions SOpt;
  unsigned Count = 1;
  std::string OutDir;
  bool FamilySet = false;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V;
    if (Arg == "--family" && (V = Next())) {
      auto F = scenarioFamilyByName(V);
      if (!F)
        badFlagValue("--family", V);
      SOpt.Family = *F;
      FamilySet = true;
    } else if (Arg == "--seed" && (V = Next())) {
      SOpt.Seed = parseUint64Flag("--seed", V);
    } else if (Arg == "--count" && (V = Next())) {
      Count = parseUnsignedFlag("--count", V);
    } else if (Arg == "--min-size" && (V = Next())) {
      SOpt.PolicyMinSize = parseInt64Flag("--min-size", V);
    } else if (Arg == "--max-domain" && (V = Next())) {
      SOpt.MaxDomainSize = parseInt64Flag("--max-domain", V);
    } else if (Arg == "--out" && (V = Next())) {
      OutDir = V;
    } else {
      return usage();
    }
  }
  if (!FamilySet)
    return usage();
  if (!OutDir.empty() && !ensureDir(OutDir)) {
    std::fprintf(stderr, "error: cannot create %s\n", OutDir.c_str());
    return 1;
  }
  for (unsigned I = 0; I != Count; ++I) {
    ScenarioOptions One = SOpt;
    One.Seed = SOpt.Seed + I;
    GeneratedModule Mod = generateScenarioModule(One);
    if (OutDir.empty()) {
      std::printf("%s", Mod.Source.c_str());
    } else {
      std::string Path = OutDir + "/" + Mod.Name + ".anosy";
      if (!writeFile(Path, Mod.Source)) {
        std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
        return 1;
      }
      std::printf("wrote %s\n", Path.c_str());
    }
  }
  return 0;
}

int runTraces(int Argc, char **Argv) {
  std::string ModulePath;
  AttackerStrategy Strategy = AttackerStrategy::Sweep;
  bool StrategySet = false;
  TracePolicy Policy;
  uint64_t Seed = 1;
  unsigned Steps = 12;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V;
    if (Arg == "--strategy" && (V = Next())) {
      auto S = attackerStrategyByName(V);
      if (!S)
        badFlagValue("--strategy", V);
      Strategy = *S;
      StrategySet = true;
    } else if (Arg == "--policy" && (V = Next())) {
      Policy = parsePolicyFlag(V);
    } else if (Arg == "--seed" && (V = Next())) {
      Seed = parseUint64Flag("--seed", V);
    } else if (Arg == "--steps" && (V = Next())) {
      Steps = parseUnsignedFlag("--steps", V);
    } else if (!Arg.empty() && Arg[0] != '-' && ModulePath.empty()) {
      ModulePath = Arg;
    } else {
      return usage();
    }
  }
  if (ModulePath.empty() || !StrategySet)
    return usage();
  auto M = parseModuleFile(ModulePath, nullptr);
  if (!M) {
    std::fprintf(stderr, "%s: %s\n", ModulePath.c_str(),
                 M.error().str().c_str());
    return 1;
  }
  size_t Slash = ModulePath.find_last_of('/');
  std::string Stem =
      Slash == std::string::npos ? ModulePath : ModulePath.substr(Slash + 1);
  if (Stem.size() > 6 && Stem.rfind(".anosy") == Stem.size() - 6)
    Stem.resize(Stem.size() - 6);
  GeneratedTrace T = generateTrace(*M, Stem, Strategy, Policy, Seed, Steps);
  std::printf("%s", renderTrace(T).c_str());
  return 0;
}

int runCorpus(int Argc, char **Argv) {
  CorpusOptions Opt;
  std::string OutDir;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V;
    if (Arg == "--seed" && (V = Next())) {
      Opt.Seed = parseUint64Flag("--seed", V);
    } else if (Arg == "--per-family" && (V = Next())) {
      Opt.ModulesPerFamily = parseUnsignedFlag("--per-family", V);
    } else if (Arg == "--traces" && (V = Next())) {
      Opt.TracesPerModule = parseUnsignedFlag("--traces", V);
    } else if (Arg == "--steps" && (V = Next())) {
      Opt.StepsPerTrace = parseUnsignedFlag("--steps", V);
    } else if (Arg == "--min-size" && (V = Next())) {
      Opt.PolicyMinSize = parseInt64Flag("--min-size", V);
    } else if (Arg == "--max-domain" && (V = Next())) {
      Opt.MaxDomainSize = parseInt64Flag("--max-domain", V);
    } else if (Arg == "--out" && (V = Next())) {
      OutDir = V;
    } else {
      return usage();
    }
  }
  if (OutDir.empty())
    return usage();
  if (!ensureDir(OutDir)) {
    std::fprintf(stderr, "error: cannot create %s\n", OutDir.c_str());
    return 1;
  }
  auto C = generateCorpus(Opt);
  if (!C) {
    std::fprintf(stderr, "%s\n", C.error().str().c_str());
    return 1;
  }
  size_t Modules = 0, Traces = 0;
  for (const CorpusEntry &E : C->Entries) {
    if (!writeFile(OutDir + "/" + E.Mod.Name + ".anosy", E.Mod.Source)) {
      std::fprintf(stderr, "error: cannot write %s/%s.anosy\n",
                   OutDir.c_str(), E.Mod.Name.c_str());
      return 1;
    }
    ++Modules;
    for (const GeneratedTrace &T : E.Traces) {
      if (!writeFile(OutDir + "/" + T.Name + ".trace", renderTrace(T))) {
        std::fprintf(stderr, "error: cannot write %s/%s.trace\n",
                     OutDir.c_str(), T.Name.c_str());
        return 1;
      }
      ++Traces;
    }
  }
  std::printf("corpus seed %llu: wrote %zu modules, %zu traces to %s\n",
              static_cast<unsigned long long>(Opt.Seed), Modules, Traces,
              OutDir.c_str());
  return 0;
}

// Synthesizes a session for the module and writes its exported knowledge
// base — how the generated .akb seeds in tests/fuzz/kb_corpus were made.
int runKb(int Argc, char **Argv) {
  std::string ModulePath, OutPath;
  int64_t MinSize = -1;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V;
    if (Arg == "--out" && (V = Next()))
      OutPath = V;
    else if (Arg == "--min-size" && (V = Next()))
      MinSize = parseInt64Flag("--min-size", V);
    else if (!Arg.empty() && Arg[0] != '-' && ModulePath.empty())
      ModulePath = Arg;
    else
      return usage();
  }
  if (ModulePath.empty())
    return usage();
  auto M = parseModuleFile(ModulePath, nullptr);
  if (!M) {
    std::fprintf(stderr, "%s: %s\n", ModulePath.c_str(),
                 M.error().str().c_str());
    return 1;
  }
  TracePolicy Policy;
  if (MinSize >= 0) {
    Policy.K = TracePolicy::Kind::MinSize;
    Policy.MinSize = MinSize;
  } else {
    Policy.K = TracePolicy::Kind::Permissive;
  }
  auto Session = AnosySession<Box>::create(*M, tracePolicyFor(Policy), {});
  if (!Session) {
    std::fprintf(stderr, "%s: %s\n", ModulePath.c_str(),
                 Session.error().str().c_str());
    return 1;
  }
  std::string Kb = Session->exportKnowledgeBase();
  if (OutPath.empty()) {
    std::printf("%s", Kb.c_str());
    return 0;
  }
  if (auto W = writeKnowledgeBaseFileAtomic(OutPath, Kb); !W) {
    std::fprintf(stderr, "%s: %s\n", OutPath.c_str(),
                 W.error().str().c_str());
    return 1;
  }
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}

int runReplay(int Argc, char **Argv) {
  std::string ModulePath, TracePath;
  bool KbCheck = true;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--no-kb-check")
      KbCheck = false;
    else if (!Arg.empty() && Arg[0] != '-' && ModulePath.empty())
      ModulePath = Arg;
    else if (!Arg.empty() && Arg[0] != '-' && TracePath.empty())
      TracePath = Arg;
    else
      return usage();
  }
  if (ModulePath.empty() || TracePath.empty())
    return usage();
  auto M = parseModuleFile(ModulePath, nullptr);
  if (!M) {
    std::fprintf(stderr, "%s: %s\n", ModulePath.c_str(),
                 M.error().str().c_str());
    return 1;
  }
  std::string TraceText;
  if (!readFile(TracePath, TraceText)) {
    std::fprintf(stderr, "error: cannot open %s\n", TracePath.c_str());
    return 1;
  }
  auto T = parseTrace(TraceText);
  if (!T) {
    std::fprintf(stderr, "%s: %s\n", TracePath.c_str(),
                 T.error().str().c_str());
    return 1;
  }
  ReplayResult R = replayWithOracle(*M, *T, {}, KbCheck);
  return printReplay(R, T->Name);
}

int runSoak(int Argc, char **Argv) {
  uint64_t Seed = 1;
  unsigned Sessions = 50;
  std::string DumpDir;
  CorpusOptions Shape;
  Shape.ModulesPerFamily = 1;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V;
    if (Arg == "--seed" && (V = Next())) {
      Seed = parseUint64Flag("--seed", V);
    } else if (Arg == "--sessions" && (V = Next())) {
      Sessions = parseUnsignedFlag("--sessions", V);
    } else if (Arg == "--per-family" && (V = Next())) {
      Shape.ModulesPerFamily = parseUnsignedFlag("--per-family", V);
    } else if (Arg == "--traces" && (V = Next())) {
      Shape.TracesPerModule = parseUnsignedFlag("--traces", V);
    } else if (Arg == "--steps" && (V = Next())) {
      Shape.StepsPerTrace = parseUnsignedFlag("--steps", V);
    } else if (Arg == "--dump-dir" && (V = Next())) {
      DumpDir = V;
    } else {
      return usage();
    }
  }

  Stopwatch Clock;
  unsigned Ran = 0;
  uint64_t Round = 0;
  unsigned Failures = 0;
  while (Ran < Sessions) {
    Shape.Seed = Seed + Round++;
    auto C = generateCorpus(Shape);
    if (!C) {
      std::fprintf(stderr, "corpus seed %llu: %s\n",
                   static_cast<unsigned long long>(Shape.Seed),
                   C.error().str().c_str());
      return 1;
    }
    for (const CorpusEntry &E : C->Entries) {
      for (const GeneratedTrace &T : E.Traces) {
        if (Ran >= Sessions)
          break;
        ReplayResult R = replayWithOracle(E.Parsed, T);
        ++Ran;
        if (!R.ok()) {
          ++Failures;
          std::fprintf(stderr, "FAIL %s (corpus seed %llu):\n",
                       T.Name.c_str(),
                       static_cast<unsigned long long>(Shape.Seed));
          for (const std::string &M : R.Mismatches)
            std::fprintf(stderr, "  %s\n", M.c_str());
          dumpFailure(DumpDir, E.Mod, T, R);
        }
      }
    }
  }
  double Secs = Clock.seconds();
  std::printf("soak: %u sessions in %.2fs (%.1f sessions/s), %u failures, "
              "base seed %llu\n",
              Ran, Secs, Secs > 0 ? Ran / Secs : 0.0, Failures,
              static_cast<unsigned long long>(Seed));
  return Failures == 0 ? 0 : 1;
}

/// One randomized fault scenario; returns false on an invariant breach.
bool faultScenario(uint64_t Seed, const std::string &DumpDir) {
  Rng R(Seed ^ 0xfa017ULL);

  // A random harness configuration: each site independently enabled.
  FaultConfig FC;
  FC.Seed = Seed;
  bool Any = false;
  for (unsigned S = 0; S != NumFaultSites; ++S) {
    if (R.range(0, 2) == 0)
      continue;
    FC.Sites[S].OneIn = static_cast<uint64_t>(1) << R.range(0, 6);
    FC.Sites[S].MaxFaults = static_cast<uint64_t>(R.range(0, 3));
    Any = true;
  }
  if (!Any)
    FC.Sites[static_cast<unsigned>(FaultSite::SolverCharge)].OneIn = 4;

  // A small scenario module and trace, rotated by seed.
  ScenarioOptions SOpt;
  SOpt.Family = static_cast<ScenarioFamily>(Seed % NumScenarioFamilies);
  SOpt.Seed = Seed;
  SOpt.MaxDomainSize = 2'000;
  GeneratedModule Mod = generateScenarioModule(SOpt);
  auto M = parseModule(Mod.Source);
  if (!M) {
    std::fprintf(stderr, "fault scenario %llu: generated module does not "
                         "parse: %s\n",
                 static_cast<unsigned long long>(Seed),
                 M.error().str().c_str());
    return false;
  }
  TracePolicy Policy;
  Policy.MinSize = SOpt.PolicyMinSize;
  GeneratedTrace T = generateTrace(
      *M, Mod.Name,
      static_cast<AttackerStrategy>((Seed / 3) % NumAttackerStrategies),
      Policy, Seed, 8);

  // Invariant 1: with the harness armed, the replay may degrade — refuse
  // more, fall to ⊥ — but every oracle soundness check must still hold.
  faults::configure(FC);
  ReplayResult Replay = replayWithOracle(*M, T);
  bool Ok = Replay.ok();
  if (!Ok) {
    std::fprintf(stderr, "FAIL fault scenario %llu (replay):\n",
                 static_cast<unsigned long long>(Seed));
    for (const std::string &Msg : Replay.Mismatches)
      std::fprintf(stderr, "  %s\n", Msg.c_str());
    dumpFailure(DumpDir, Mod, T, Replay);
  }

  // Invariant 2: the crash-safe knowledge-base file cycle. Writes either
  // land completely or fail cleanly; reads surface corruption as clean
  // errors or recoverable records — never a crash, never silent misuse.
  auto Session =
      AnosySession<Box>::create(*M, tracePolicyFor(T.Policy), {});
  if (Session) {
    std::string Kb = Session->exportKnowledgeBase();
    std::string Path = "/tmp/anosy_gen_faults_" +
                       std::to_string(static_cast<unsigned long long>(Seed)) +
                       ".akb";
    auto W = writeKnowledgeBaseFileAtomic(Path, Kb);
    if (W) {
      auto Text = readKnowledgeBaseFile(Path);
      if (Text) {
        // Corrupted reads must be caught by the v2 checksums: loading
        // either succeeds (possibly resynthesizing damaged records) or
        // fails with a clean whole-file error.
        auto Reloaded = AnosySession<Box>::createFromKnowledgeBase(
            *Text, tracePolicyFor(T.Policy), {});
        (void)Reloaded;
      }
    }
    // With the harness disarmed, a previously successful atomic write
    // must read back byte-identical.
    faults::reset();
    if (W) {
      auto Clean = readKnowledgeBaseFile(Path);
      if (!Clean || *Clean != Kb) {
        std::fprintf(stderr,
                     "FAIL fault scenario %llu: atomic KB write did not "
                     "read back intact\n",
                     static_cast<unsigned long long>(Seed));
        Ok = false;
      }
    }
    std::remove(Path.c_str());
  }
  faults::reset();
  return Ok;
}

int runFaults(int Argc, char **Argv) {
  uint64_t Seed = 1;
  unsigned Scenarios = 25;
  std::string DumpDir;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V;
    if (Arg == "--seed" && (V = Next())) {
      Seed = parseUint64Flag("--seed", V);
    } else if (Arg == "--scenarios" && (V = Next())) {
      Scenarios = parseUnsignedFlag("--scenarios", V);
    } else if (Arg == "--dump-dir" && (V = Next())) {
      DumpDir = V;
    } else {
      return usage();
    }
  }
  Stopwatch Clock;
  unsigned Failures = 0;
  for (unsigned I = 0; I != Scenarios; ++I)
    if (!faultScenario(Seed + I, DumpDir))
      ++Failures;
  std::printf("faults: %u scenarios in %.2fs, %u failures, base seed %llu\n",
              Scenarios, Clock.seconds(), Failures,
              static_cast<unsigned long long>(Seed));
  return Failures == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  if (std::strcmp(Argv[1], "modules") == 0)
    return runModules(Argc, Argv);
  if (std::strcmp(Argv[1], "traces") == 0)
    return runTraces(Argc, Argv);
  if (std::strcmp(Argv[1], "corpus") == 0)
    return runCorpus(Argc, Argv);
  if (std::strcmp(Argv[1], "kb") == 0)
    return runKb(Argc, Argv);
  if (std::strcmp(Argv[1], "replay") == 0)
    return runReplay(Argc, Argv);
  if (std::strcmp(Argv[1], "soak") == 0)
    return runSoak(Argc, Argv);
  if (std::strcmp(Argv[1], "faults") == 0)
    return runFaults(Argc, Argv);
  return usage();
}
