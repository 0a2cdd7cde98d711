//===- examples/anosy_cli.cpp - The ANOSY compiler driver -----------------===//
//
// The command-line face of the pipeline — what the paper's GHC plugin
// does to a Haskell module, as a standalone tool over query-DSL files:
//
//   anosy_cli <file.anosy> [--domain interval|powerset] [--k N]
//             [--kind under|over] [--objective volume|balanced|pareto]
//             [--emit-smtlib] [--no-verify] [--export <kb-file>]
//             [--timeout-ms N] [--max-session-nodes N]
//             [--retry N] [--fault-inject SPEC]
//             [--min-size N] [--static-admission]
//             [--trace-out FILE] [--metrics-out FILE] [--probe-monitor]
//   anosy_cli lint [files.anosy...] [--json] [--min-size N]
//
// For each query in the module it prints the refinement-type spec, the
// sketch, the synthesized (hole-filled) program, the verification
// certificates, and optionally the SMT-LIB constraint system SYNTH
// solved. `classify` declarations get one ind. set per feasible output
// (§5.1 extension). --export writes the verified under-approximations to
// a v2 (checksummed) knowledge base, atomically, loadable without
// re-synthesis (core/ArtifactIO.h). With no file argument it runs on the
// built-in §2 module.
//
// Failure domains (DESIGN.md §6): --timeout-ms arms a wall-clock
// deadline, --max-session-nodes a cumulative solver-node cap, --retry N
// retries exhausted queries with a 4x budget before degrading. Under
// those flags the tool degrades per query — ⊥ artifacts and a printed
// degradation note — instead of aborting. --fault-inject (or the
// ANOSY_FAULT_INJECT environment variable) arms the deterministic fault
// harness, e.g. "seed=7,solver-charge@100,kb-write@1x2".
//
// Static analysis (DESIGN.md §7): `anosy_cli lint` runs the leakage
// analyzer over query modules without touching a solver — per query, the
// interval posteriors of both responses, plus admission verdicts
// (policy-unsatisfiable, constant-answer, relational-hotspot,
// session-budget-risk). --json emits a machine-readable report; the exit
// status is 1 when any error-severity diagnostic fires. The policy
// threshold comes from --min-size or an `# anosy-lint: min-size=N`
// pragma in the module. In the pipeline, --min-size N enforces a
// minimum-size policy, and --static-admission rejects policy-unsatisfiable
// queries before synthesis (zero solver nodes).
//
// Observability (DESIGN.md §8): --trace-out FILE records the run's phase
// spans (parse → lint → synthesis → verify → monitor → KB write) as
// Chrome trace_event JSON, loadable in chrome://tracing; --metrics-out
// FILE dumps the counters/gauges/histograms in the Prometheus text
// format. Either flag flips the obs runtime switch on and routes the run
// through the session facade. --trace-out implies --probe-monitor: one
// downgrade per query/classifier at the schema-center secret, so the
// trace covers the monitor-decision phase too. Numeric flag values are
// parsed strictly (support/ParseNum.h): non-numeric or out-of-range
// tokens are usage errors (exit 2), not silently-zero configurations.
//
//===----------------------------------------------------------------------===//

#include "analysis/LeakageAnalyzer.h"
#include "analysis/LintReport.h"
#include "core/AnosySession.h"
#include "core/ArtifactIO.h"
#include "expr/Parser.h"
#include "expr/SmtLib.h"
#include "obs/Instrument.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"
#include "support/ParseNum.h"
#include "support/Stats.h"
#include "synth/ClassifierSynth.h"
#include "synth/Synthesizer.h"
#include "verify/RefinementChecker.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace anosy;

namespace {

struct CliOptions {
  std::string Path;
  bool Powerset = false;
  unsigned K = 3;
  ApproxKind Kind = ApproxKind::Under;
  GrowObjective Objective = GrowObjective::Balanced;
  bool EmitSmtLib = false;
  bool Verify = true;
  std::string ExportPath;
  /// Degradation knobs (0 = unlimited / single attempt).
  uint64_t TimeoutMs = 0;
  uint64_t MaxSessionNodes = 0;
  unsigned Retry = 1;
  std::string FaultSpec;
  /// Minimum-size policy threshold; -1 keeps the permissive policy.
  int64_t MinSize = -1;
  /// Static admission (DESIGN.md §7).
  bool StaticAdmission = false;
  /// Observability outputs (DESIGN.md §8); either one enables the obs
  /// runtime switch and forces the session path.
  std::string TraceOut;
  std::string MetricsOut;
  /// One downgrade per query/classifier at the schema-center secret, so a
  /// traced run covers the monitor-decision phase. Implied by --trace-out.
  bool ProbeMonitor = false;

  bool degradable() const {
    return TimeoutMs != 0 || MaxSessionNodes != 0 || Retry > 1;
  }

  bool needsSession() const {
    return degradable() || !ExportPath.empty() || StaticAdmission ||
           MinSize >= 0 || !TraceOut.empty() || !MetricsOut.empty() ||
           ProbeMonitor;
  }
};

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [file.anosy] [--domain interval|powerset] [--k N]\n"
      "          [--kind under|over] [--objective volume|balanced|pareto]\n"
      "          [--emit-smtlib] [--no-verify] [--export <kb-file>]\n"
      "          [--timeout-ms N] [--max-session-nodes N] [--retry N]\n"
      "          [--fault-inject seed=S,<site>@<one-in>[x<max>],...]\n"
      "          [--min-size N] [--static-admission]\n"
      "          [--trace-out FILE]   (Chrome trace_event JSON; implies\n"
      "                              --probe-monitor)\n"
      "          [--metrics-out FILE] (Prometheus text exposition)\n"
      "          [--probe-monitor]    (one downgrade per query at the\n"
      "                              schema-center secret)\n"
      "   or: %s lint [files.anosy...] [--json] [--min-size N]\n",
      Argv0, Argv0);
  return 2;
}

/// Strict numeric flag parsing (support/ParseNum.h). The old atoi/strtoll
/// calls read `--retry 1O` as 1 and `--k abc` as 0 — silently wrong
/// configurations. A bad value now names the flag and the offending text
/// and exits with the usage status.
[[noreturn]] void badFlagValue(const char *Flag, const char *Value) {
  std::fprintf(stderr, "error: invalid value for %s: '%s'\n", Flag, Value);
  std::exit(2);
}

unsigned parseUnsignedFlag(const char *Flag, const char *Value) {
  auto V = parseUnsigned(Value);
  if (!V)
    badFlagValue(Flag, Value);
  return *V;
}

uint64_t parseUint64Flag(const char *Flag, const char *Value) {
  auto V = parseUint64(Value);
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

const char *builtinModule() {
  return R"(secret UserLoc { x: int[0, 400], y: int[0, 400] }
def nearby(ox: int, oy: int): bool = abs(x - ox) + abs(y - oy) <= 100
query nearby200 = nearby(200, 200)
)";
}

/// `anosy_cli lint`: the solver-free static leakage analyzer over one or
/// more modules (the built-in §2 module with no files). Exit status 1
/// when any error-severity diagnostic fires, 2 on bad usage, and 1 on
/// unreadable/unparsable inputs.
int runLint(int Argc, char **Argv) {
  std::vector<std::string> Files;
  bool Json = false;
  int64_t MinSize = -1;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--min-size") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      MinSize = parseInt64Flag("--min-size", V);
    } else if (Arg == "--help" || Arg == "-h") {
      return usage(Argv[0]);
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown lint flag %s\n", Arg.c_str());
      return usage(Argv[0]);
    } else {
      Files.push_back(Arg);
    }
  }

  std::vector<LintedModule> Mods;
  auto LintOne = [&](const std::string &Name,
                     const std::string &Source) -> bool {
    auto M = parseModule(Source);
    if (!M) {
      std::fprintf(stderr, "%s: %s\n", Name.c_str(),
                   M.error().str().c_str());
      return false;
    }
    LintOptions Base;
    Base.MinSize = MinSize;
    // A `# anosy-lint: min-size=N` pragma in the module wins over the
    // command line: the module author knows the deployment policy.
    LintOptions LOpt = lintOptionsForSource(Source, Base);
    Mods.push_back({Name, LOpt, analyzeModule(*M, LOpt)});
    return true;
  };

  if (Files.empty()) {
    if (!LintOne("<builtin>", builtinModule()))
      return 1;
  } else {
    for (const std::string &Path : Files) {
      std::ifstream In(Path);
      if (!In) {
        std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
        return 1;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      // Report under the file's base name so output is stable no matter
      // where the module tree is checked out.
      size_t Slash = Path.find_last_of('/');
      std::string Name =
          Slash == std::string::npos ? Path : Path.substr(Slash + 1);
      if (!LintOne(Name, Buf.str()))
        return 1;
    }
  }

  std::string Out = Json ? renderLintJson(Mods) : renderLintText(Mods);
  std::fputs(Out.c_str(), stdout);
  for (const LintedModule &LM : Mods)
    if (LM.Analysis.hasErrors())
      return 1;
  return 0;
}

/// The degradation-aware pipeline (DESIGN.md §6): one AnosySession under
/// the requested budgets; exhausted queries degrade (partial or ⊥
/// artifacts, with a printed note) instead of aborting the run. Also the
/// path every --export takes: the session's verified artifacts are
/// written as a checksummed v2 knowledge base, atomically.
template <AbstractDomain D>
int sessionRun(const Module &M, const CliOptions &Opt,
               const SynthOptions &SOpt) {
  SessionOptions SO;
  SO.PowersetSize = Opt.K;
  SO.Synth = SOpt;
  SO.Verify = Opt.Verify;
  SO.MaxSessionNodes = Opt.MaxSessionNodes;
  SO.DeadlineMs = Opt.TimeoutMs;
  SO.Retry.MaxAttempts = Opt.Retry;
  SO.StaticAdmission = Opt.StaticAdmission;

  KnowledgePolicy<D> Policy = Opt.MinSize >= 0
                                  ? minSizePolicy<D>(Opt.MinSize)
                                  : permissivePolicy<D>();
  auto S = AnosySession<D>::create(M, std::move(Policy), SO);
  if (!S) {
    std::fprintf(stderr, "session failed: %s\n", S.error().str().c_str());
    return 1;
  }

  if (SO.StaticAdmission && !S->analysis().Diagnostics.empty()) {
    std::printf("--- static analysis ---\n");
    for (const LintDiagnostic &Diag : S->analysis().Diagnostics)
      std::printf("%s\n", Diag.str().c_str());
    std::printf("\n");
  }

  for (const QueryDef &Q : M.queries()) {
    std::printf("=== query %s ===\n", Q.Name.c_str());
    std::printf("    %s\n\n", Q.Body->str(M.schema()).c_str());
    if (Opt.EmitSmtLib)
      std::printf("--- SYNTH constraints (SMT-LIB2, True hole) ---\n%s\n",
                  toSynthConstraintScript(*Q.Body, M.schema(),
                                          /*Polarity=*/true, /*Under=*/true)
                      .c_str());
    const QueryArtifacts<D> *Art = S->artifacts(Q.Name);
    if (Art == nullptr)
      continue;
    std::printf("--- synthesized (under, %u attempt%s, %llu solver "
                "nodes) ---\n%s\n",
                Art->Attempts, Art->Attempts == 1 ? "" : "s",
                static_cast<unsigned long long>(Art->Stats.SolverNodes),
                Art->SynthesizedSource.c_str());
    if (Art->Degradation)
      std::printf("!!! degraded: %s\n", Art->Degradation->str().c_str());
    if (Opt.Verify)
      std::printf("--- verification ---\n%s\n",
                  Art->Certificates.str().c_str());
    std::printf("\n");
  }

  for (const ClassifierDef &C : M.classifiers()) {
    std::printf("=== classifier %s ===\n    %s\n\n", C.Name.c_str(),
                C.Body->str(M.schema()).c_str());
    const ClassifierInfo<D> *Info = S->tracker().classifierInfo(C.Name);
    if (Info == nullptr)
      continue;
    if (Info->Ind.empty())
      std::printf("  (degraded: no verified output sets; downgrades on "
                  "this classifier will be refused)\n");
    for (const OutputIndSet<D> &O : Info->Ind)
      std::printf("  output %lld: %s\n", static_cast<long long>(O.Value),
                  O.Set.str().c_str());
    std::printf("\n");
  }

  if (Opt.ProbeMonitor) {
    // One bounded downgrade per query and classifier against the
    // schema-center secret: a traced run then exercises the monitor
    // decision (admit or refuse) without a separate driver. Probes mutate
    // only this session's in-memory knowledge map — the knowledge base
    // exported below is derived from the verified artifacts, not from
    // tracked secrets.
    Point Secret = Box::top(M.schema()).center();
    std::printf("--- monitor probes (secret = schema center) ---\n");
    // A refusal backed by a ⊥ fallback is reported with its
    // machine-readable reason code (deadline/budget/statically-rejected/
    // ...), so drivers can tell "policy refused" from "artifact degraded"
    // without parsing prose.
    auto RefusalNote = [&](const std::string &Name) {
      const QueryDegradation *QD = S->degradation().find(Name);
      return QD != nullptr && QD->FellBack
                 ? std::string(" bottom [code=") + reasonCodeName(QD->code()) +
                       "]"
                 : std::string();
    };
    for (const QueryDef &Q : M.queries()) {
      auto R = S->downgrade(Secret, Q.Name);
      if (R)
        std::printf("  %s -> %s\n", Q.Name.c_str(), *R ? "true" : "false");
      else
        std::printf("  %s -> refused%s (%s)\n", Q.Name.c_str(),
                    RefusalNote(Q.Name).c_str(), R.error().str().c_str());
    }
    for (const ClassifierDef &C : M.classifiers()) {
      auto R = S->downgradeClassifier(Secret, C.Name);
      if (R)
        std::printf("  %s -> %lld\n", C.Name.c_str(),
                    static_cast<long long>(*R));
      else
        std::printf("  %s -> refused%s (%s)\n", C.Name.c_str(),
                    RefusalNote(C.Name).c_str(), R.error().str().c_str());
    }
    std::printf("\n");
  }

  const SessionStats &St = S->stats();
  std::printf("session: %llu solver nodes, %.3fs synthesis, "
              "%u attempts, %u degraded\n",
              static_cast<unsigned long long>(St.SolverNodes),
              St.SynthSeconds, St.Attempts, St.DegradedQueries);
  if (S->degradation().degraded())
    std::printf("degradation report:\n%s", S->degradation().str().c_str());

  if (!Opt.ExportPath.empty()) {
    std::string Text = S->exportKnowledgeBase();
    auto W = writeKnowledgeBaseFileAtomic(Opt.ExportPath, Text);
    if (!W) {
      std::fprintf(stderr, "export failed: %s\n", W.error().str().c_str());
      return 1;
    }
    std::printf("exported knowledge base to %s (%zu bytes, v2, atomic)\n",
                Opt.ExportPath.c_str(), Text.size());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::strcmp(Argv[1], "lint") == 0)
    return runLint(Argc, Argv);

  CliOptions Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--domain") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opt.Powerset = std::strcmp(V, "powerset") == 0;
    } else if (Arg == "--k") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opt.K = parseUnsignedFlag("--k", V);
      // k = 0 boxes is not a smaller powerset, it is no synthesis at all.
      if (Opt.K == 0)
        badFlagValue("--k", V);
    } else if (Arg == "--kind") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opt.Kind =
          std::strcmp(V, "over") == 0 ? ApproxKind::Over : ApproxKind::Under;
    } else if (Arg == "--objective") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      if (std::strcmp(V, "volume") == 0)
        Opt.Objective = GrowObjective::Volume;
      else if (std::strcmp(V, "pareto") == 0)
        Opt.Objective = GrowObjective::ParetoWidth;
      else
        Opt.Objective = GrowObjective::Balanced;
    } else if (Arg == "--export") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opt.ExportPath = V;
    } else if (Arg == "--timeout-ms") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opt.TimeoutMs = parseUint64Flag("--timeout-ms", V);
    } else if (Arg == "--max-session-nodes") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opt.MaxSessionNodes = parseUint64Flag("--max-session-nodes", V);
    } else if (Arg == "--retry") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opt.Retry = parseUnsignedFlag("--retry", V);
    } else if (Arg == "--fault-inject") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opt.FaultSpec = V;
    } else if (Arg == "--min-size") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opt.MinSize = parseInt64Flag("--min-size", V);
    } else if (Arg == "--trace-out") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opt.TraceOut = V;
    } else if (Arg.rfind("--trace-out=", 0) == 0) {
      Opt.TraceOut = Arg.substr(std::strlen("--trace-out="));
      if (Opt.TraceOut.empty())
        badFlagValue("--trace-out", "");
    } else if (Arg == "--metrics-out") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opt.MetricsOut = V;
    } else if (Arg.rfind("--metrics-out=", 0) == 0) {
      Opt.MetricsOut = Arg.substr(std::strlen("--metrics-out="));
      if (Opt.MetricsOut.empty())
        badFlagValue("--metrics-out", "");
    } else if (Arg == "--probe-monitor") {
      Opt.ProbeMonitor = true;
    } else if (Arg == "--static-admission") {
      Opt.StaticAdmission = true;
    } else if (Arg == "--emit-smtlib") {
      Opt.EmitSmtLib = true;
    } else if (Arg == "--no-verify") {
      Opt.Verify = false;
    } else if (Arg == "--help" || Arg == "-h") {
      return usage(Argv[0]);
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", Arg.c_str());
      return usage(Argv[0]);
    } else {
      Opt.Path = Arg;
    }
  }

  // A traced session should show the full span taxonomy, monitor decision
  // included, so --trace-out implies --probe-monitor. The runtime switch
  // flips before parsing so the parse span lands in the trace too.
  if (!Opt.TraceOut.empty())
    Opt.ProbeMonitor = true;
  if (!Opt.TraceOut.empty() || !Opt.MetricsOut.empty())
    obs::setEnabled(true);

  // Fault harness: the environment arms it first, an explicit flag wins.
  if (auto E = faults::initFromEnv(); !E) {
    std::fprintf(stderr, "ANOSY_FAULT_INJECT: %s\n", E.error().str().c_str());
    return 2;
  }
  if (!Opt.FaultSpec.empty()) {
    auto C = faults::parseSpec(Opt.FaultSpec);
    if (!C) {
      std::fprintf(stderr, "--fault-inject: %s\n", C.error().str().c_str());
      return 2;
    }
    faults::configure(*C);
  }
  if (faults::armed())
    std::printf("(fault injection armed)\n\n");

  std::string Source;
  if (Opt.Path.empty()) {
    Source = builtinModule();
    std::printf("(no input file: using the built-in §2 module)\n\n");
  } else {
    std::ifstream In(Opt.Path);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", Opt.Path.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
  }

  ANOSY_OBS_SPAN(ParseSpan, "anosy.parse.module");
  ANOSY_OBS_SPAN_ARG(ParseSpan, "bytes", Source.size());
  auto M = parseModule(Source);
  if (!M) {
    std::fprintf(stderr, "%s\n", M.error().str().c_str());
    return 1;
  }
  ANOSY_OBS_SPAN_ARG(ParseSpan, "queries", M->queries().size());
  ANOSY_OBS_SPAN_ARG(ParseSpan, "classifiers", M->classifiers().size());
  ParseSpan.end();
  const Schema &S = M->schema();
  std::printf("secret schema: %s  (%s possible secrets)\n\n",
              S.str().c_str(), S.totalSize().sci().c_str());

  SynthOptions SOpt;
  SOpt.Objective = Opt.Objective;

  // Budgeted runs, exports, policies, and static admission go through the
  // session facade: graceful degradation, retries, the crash-safe v2
  // knowledge-base writer, and the pre-synthesis leakage analyzer.
  if (Opt.needsSession()) {
    if (Opt.Kind != ApproxKind::Under) {
      std::fprintf(stderr, "--timeout-ms/--max-session-nodes/--retry/"
                           "--export/--min-size/--static-admission/"
                           "--trace-out/--metrics-out/--probe-monitor "
                           "drive enforcement (under) artifacts; rerun "
                           "with --kind under\n");
      return 1;
    }
    int RC = Opt.Powerset ? sessionRun<PowerBox>(*M, Opt, SOpt)
                          : sessionRun<Box>(*M, Opt, SOpt);
    if (!Opt.TraceOut.empty()) {
      auto W = obs::TraceRecorder::global().writeFile(Opt.TraceOut);
      if (!W) {
        std::fprintf(stderr, "--trace-out: %s\n", W.error().str().c_str());
        return 1;
      }
      std::printf("wrote %zu trace events to %s\n",
                  obs::TraceRecorder::global().eventCount(),
                  Opt.TraceOut.c_str());
    }
    if (!Opt.MetricsOut.empty()) {
      auto W = obs::MetricsRegistry::global().writeFile(Opt.MetricsOut);
      if (!W) {
        std::fprintf(stderr, "--metrics-out: %s\n", W.error().str().c_str());
        return 1;
      }
      std::printf("wrote metrics to %s\n", Opt.MetricsOut.c_str());
    }
    return RC;
  }

  for (const QueryDef &Q : M->queries()) {
    std::printf("=== query %s ===\n", Q.Name.c_str());
    std::printf("    %s\n\n", Q.Body->str(S).c_str());

    if (Opt.EmitSmtLib) {
      std::printf("--- SYNTH constraints (SMT-LIB2, True hole) ---\n%s\n",
                  toSynthConstraintScript(*Q.Body, S, /*Polarity=*/true,
                                          Opt.Kind == ApproxKind::Under)
                      .c_str());
    }

    auto Sy = Synthesizer::create(S, Q.Body, SOpt);
    if (!Sy) {
      std::printf("rejected: %s\n\n", Sy.error().str().c_str());
      continue;
    }
    IndSetSketch Sketch(Q.Name, S, Opt.Kind);
    std::printf("--- sketch ---\n%s\n\n", Sketch.renderTemplate().c_str());

    Stopwatch W;
    SynthStats Stats;
    std::string Filled;
    CertificateBundle Certs;
    if (Opt.Powerset) {
      auto Sets = Sy->synthesizePowerset(Opt.Kind, Opt.K, &Stats);
      if (!Sets) {
        std::printf("synthesis failed: %s\n\n", Sets.error().str().c_str());
        continue;
      }
      Filled = Sketch.renderFilled(Sets->TrueSet, Sets->FalseSet);
      if (Opt.Verify)
        Certs = RefinementChecker(S, Q.Body, SOpt.MaxSolverNodes)
                    .checkIndSets(*Sets, Opt.Kind);
    } else {
      auto Sets = Sy->synthesizeInterval(Opt.Kind, &Stats);
      if (!Sets) {
        std::printf("synthesis failed: %s\n\n", Sets.error().str().c_str());
        continue;
      }
      Filled = Sketch.renderFilled(Sets->TrueSet, Sets->FalseSet);
      if (Opt.Verify)
        Certs = RefinementChecker(S, Q.Body, SOpt.MaxSolverNodes)
                    .checkIndSets(*Sets, Opt.Kind);
    }
    double Secs = W.seconds();

    std::printf("--- synthesized (%s, %s domain%s) in %.3fs, "
                "%llu solver nodes ---\n%s\n\n",
                approxKindName(Opt.Kind),
                Opt.Powerset ? "powerset" : "interval",
                Opt.Powerset ? (", k=" + std::to_string(Opt.K)).c_str() : "",
                Secs, static_cast<unsigned long long>(Stats.SolverNodes),
                Filled.c_str());
    if (Opt.Verify) {
      std::printf("--- verification ---\n%s\n", Certs.str().c_str());
      if (!Certs.valid())
        return 1;
    }
  }

  // §5.1 extension: classifiers get one ind. set per feasible output.
  for (const ClassifierDef &C : M->classifiers()) {
    std::printf("=== classifier %s ===\n    %s\n\n", C.Name.c_str(),
                C.Body->str(S).c_str());
    auto Cs = ClassifierSynthesizer::create(S, C.Body, SOpt);
    if (!Cs) {
      std::printf("rejected: %s\n\n", Cs.error().str().c_str());
      continue;
    }
    Stopwatch W;
    if (Opt.Powerset) {
      auto Sets = Cs->synthesizePowerset(Opt.Kind, Opt.K);
      if (!Sets) {
        std::printf("synthesis failed: %s\n\n", Sets.error().str().c_str());
        continue;
      }
      for (const OutputIndSet<PowerBox> &O : *Sets)
        std::printf("  output %lld: %s\n", static_cast<long long>(O.Value),
                    O.Set.str().c_str());
    } else {
      auto Sets = Cs->synthesizeInterval(Opt.Kind);
      if (!Sets) {
        std::printf("synthesis failed: %s\n\n", Sets.error().str().c_str());
        continue;
      }
      for (const OutputIndSet<Box> &O : *Sets)
        std::printf("  output %lld: %s\n", static_cast<long long>(O.Value),
                    O.Set.str().c_str());
    }
    std::printf("  (synthesized in %.3fs)\n\n", W.seconds());
  }

  return 0;
}
