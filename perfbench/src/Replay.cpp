//===- perfbench/src/Replay.cpp - Layer-by-layer registration -------------===//

#include "Replay.h"

#include "analysis/LeakageAnalyzer.h"
#include "cache/QueryKey.h"
#include "compile/CompiledEval.h"
#include "core/AnosySession.h"
#include "core/ArtifactIO.h"
#include "expr/Parser.h"
#include "verify/RefinementChecker.h"

using namespace perfbench;
using namespace anosy;

namespace {

template <typename D>
std::optional<IndSets<D>> synthesize(const Schema &S, const ExprRef &Body,
                                     const SynthOptions &SOpt, unsigned K,
                                     uint64_t &Nodes) {
  auto Synth = Synthesizer::create(S, Body, SOpt);
  if (!Synth)
    return std::nullopt;
  SynthStats Stats;
  std::optional<IndSets<D>> Out;
  if constexpr (std::is_same_v<D, Box>) {
    if (auto Sets = Synth->synthesizeInterval(ApproxKind::Under, &Stats))
      Out = Sets.takeValue();
  } else {
    if (auto Sets = Synth->synthesizePowerset(ApproxKind::Under, K, &Stats))
      Out = Sets.takeValue();
  }
  Nodes += Stats.SolverNodes;
  return Out;
}

template <typename D> KnowledgePolicy<D> policyFor(int64_t MinSize) {
  return MinSize >= 0 ? minSizePolicy<D>(MinSize) : permissivePolicy<D>();
}

} // namespace

template <typename D>
ReplayCounts perfbench::replayRegistration(const std::string &Source,
                                           const ReplayOptions &O,
                                           SpanLog *Log, uint64_t Req) {
  ReplayCounts C;
  Span Root(Log, "attr.register", Req);
  const uint64_t P = Root.id();

  std::optional<Module> M;
  {
    Span Sp(Log, "expr.parse", Req, P);
    auto Parsed = parseModule(Source);
    if (!Parsed) {
      C.Ok = false;
      return C;
    }
    M = Parsed.takeValue();
  }
  const Schema &S = M->schema();

  ModuleAnalysis Analysis;
  if (O.Lint) {
    Span Sp(Log, "analysis.lint", Req, P);
    LintOptions LOpt;
    LOpt.MinSize = O.MinSize;
    Analysis = analyzeModule(*M, LOpt);
  }

  if (O.CreateCache != nullptr) {
    SessionOptions SOpt;
    pinSerialSession(SOpt);
    SOpt.PowersetSize = O.PowersetK;
    SOpt.StaticAdmission = O.Lint;
    SOpt.Cache = O.CreateCache;
    Span Sp(Log, "core.create", Req, P);
    auto Session = AnosySession<D>::create(*M, policyFor<D>(O.MinSize), SOpt);
    C.Ok = C.Ok && static_cast<bool>(Session);
  }

  const unsigned K = std::is_same_v<D, PowerBox> ? O.PowersetK : 0u;
  std::vector<QueryInfo<D>> Infos;
  for (const QueryDef &Q : M->queries()) {
    QueryInfo<D> Info;
    Info.Name = Q.Name;
    Info.QueryExpr = Q.Body;
    Info.Ind = {DomainTraits<D>::bottom(S), DomainTraits<D>::bottom(S)};
    const QueryAnalysis *QA = O.Lint ? Analysis.find(Q.Name) : nullptr;
    bool Decided = QA != nullptr && (QA->RejectStatically ||
                                     (QA->SkipSynthesis && QA->ConstantValue));
    if (Decided) {
      Infos.push_back(std::move(Info));
      continue;
    }

    std::optional<CanonicalQuery> Key;
    std::optional<IndSets<D>> Hit;
    SynthOptions SOpt;
    if (O.Cache != nullptr) {
      {
        Span Sp(Log, "cache.canon", Req, P);
        Key = canonicalizeQuery(S, Q.Body, DomainTraits<D>::Name, K);
      }
      Span Sp(Log, "cache.lookup", Req, P);
      Hit = O.Cache->template lookup<D>(*Key);
      if (!Hit)
        if (auto Seeds = O.Cache->template lookupSeeds<D>(*Key)) {
          SOpt.TrueRegionSeed = Seeds->TrueRegion;
          SOpt.FalseRegionSeed = Seeds->FalseRegion;
        }
    }
    {
      Span Sp(Log, "compile.tape", Req, P);
      Info.CompiledQuery = getOrCompileTape(Q.Body);
    }
    const bool FromCache = Hit.has_value();
    if (!FromCache) {
      Span Sp(Log, "synth", Req, P);
      Hit = synthesize<D>(S, Q.Body, SOpt, O.PowersetK, C.SynthNodes);
    }
    if (!Hit) {
      C.Ok = false;
      continue;
    }
    {
      Span Sp(Log, "verify", Req, P);
      RefinementChecker Checker(S, Q.Body);
      CertificateBundle B = Checker.checkIndSets(*Hit, ApproxKind::Under);
      C.VerifyNodes += Checker.solverNodesUsed();
      C.Ok = C.Ok && B.valid();
    }
    if (O.Cache != nullptr && !FromCache) {
      Span Sp(Log, "cache.store", Req, P);
      (void)O.Cache->template store<D>(*Key, *Hit);
    }
    Info.Ind = std::move(*Hit);
    Infos.push_back(std::move(Info));
  }

  std::string Kb;
  {
    Span Sp(Log, "core.kb_serialize", Req, P);
    Kb = serializeKnowledgeBaseV2(S, Infos);
  }
  if (!O.KbPath.empty()) {
    Span Sp(Log, "core.kb_write", Req, P);
    C.Ok = C.Ok && static_cast<bool>(writeKnowledgeBaseFileAtomic(O.KbPath, Kb));
  }
  return C;
}

template ReplayCounts perfbench::replayRegistration<Box>(const std::string &,
                                                         const ReplayOptions &,
                                                         SpanLog *, uint64_t);
template ReplayCounts
perfbench::replayRegistration<PowerBox>(const std::string &,
                                        const ReplayOptions &, SpanLog *,
                                        uint64_t);
