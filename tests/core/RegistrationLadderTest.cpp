//===- tests/core/RegistrationLadderTest.cpp - Degradation ladder pins ----===//
//
// Pins what registration decides on every rung of the retry → partial →
// ⊥ ladder (DESIGN.md §6), for queries and for a classifier, at the
// interval domain and at k = 3. Each scenario renders its degradation
// records, session stats, per-artifact attempts, node counts and cache
// flags, the classifier's output sets and a hash of the exported
// knowledge base; golden/registration_ladder.txt holds the expected
// renderings. No scenario arms a deadline, so every value is
// deterministic. On a mismatch the actual renderings are written next to
// the test's temporary files, ready to diff against the golden.
//
//===----------------------------------------------------------------------===//

#include "benchlib/Problems.h"
#include "cache/ArtifactCache.h"
#include "core/AnosySession.h"
#include "expr/Parser.h"
#include "support/Checksum.h"
#include "support/FaultInjection.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include <gtest/gtest.h>

using namespace anosy;

namespace {

/// Two queries and a 3-output classifier over the §2 location secret.
const char *LadderSource = R"(
secret UserLoc { x: int[0, 400], y: int[0, 400] }
def nearby(ox: int, oy: int): bool = abs(x - ox) + abs(y - oy) <= 100
query nearby200 = nearby(200, 200)
query nearby300 = nearby(300, 200)
classify band = if x < 100 then 0 else if x + y < 500 then 1 else 2
)";

/// The same module over a narrower prior: one cache family, seeded misses.
const char *NarrowSource = R"(
secret UserLoc { x: int[50, 400], y: int[0, 400] }
def nearby(ox: int, oy: int): bool = abs(x - ox) + abs(y - oy) <= 100
query nearby200 = nearby(200, 200)
query nearby300 = nearby(300, 200)
classify band = if x < 100 then 0 else if x + y < 500 then 1 else 2
)";

Module parse(const std::string &Source) {
  auto M = parseModule(Source);
  EXPECT_TRUE(M.ok()) << (M.ok() ? "" : M.error().str());
  return M.takeValue();
}

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string oneLine(const std::string &S) {
  std::string Out;
  for (char C : S)
    Out += C == '\n' ? std::string("\\n") : std::string(1, C);
  return Out;
}

std::string cacheFlags(bool Hit, bool Missed, bool Seeded) {
  std::string F;
  if (Hit)
    F += "hit";
  if (Missed)
    F += F.empty() ? "miss" : "+miss";
  if (Seeded)
    F += F.empty() ? "seeded" : "+seeded";
  return F.empty() ? "-" : F;
}

/// Everything the ladder decided for one session creation.
template <AbstractDomain D>
std::string render(const Result<AnosySession<D>> &S) {
  if (!S)
    return "error " + oneLine(S.error().str()) + "\n";
  std::string Out;
  const SessionStats &St = S->stats();
  Out += "stats nodes=" + std::to_string(St.SolverNodes) +
         " attempts=" + std::to_string(St.Attempts) +
         " degraded=" + std::to_string(St.DegradedQueries) +
         " hits=" + std::to_string(St.CacheHits) +
         " misses=" + std::to_string(St.CacheMisses) +
         " seeded=" + std::to_string(St.CacheSeededQueries) +
         " verify=" + std::to_string(St.CacheVerifyNodes);
  if (const SolverBudget *B = S->sessionBudget())
    Out += " budget_used=" + std::to_string(B->used());
  Out += "\n";
  for (const QueryDef &Q : S->module().queries()) {
    const QueryArtifacts<D> *A = S->artifacts(Q.Name);
    if (A == nullptr) {
      Out += "query " + Q.Name + " absent\n";
      continue;
    }
    Out += "query " + Q.Name + " attempts=" + std::to_string(A->Attempts) +
           " nodes=" + std::to_string(A->Stats.SolverNodes) +
           " boxes=" + std::to_string(A->Stats.BoxesSynthesized) +
           " cache=" + cacheFlags(A->FromCache, A->CacheMissed,
                                  A->CacheSeeded) +
           " verify=" + std::to_string(A->CacheVerifyNodes) +
           " certs=" + hex(fnv1a64(A->Certificates.str())) + " src=" +
           (A->SynthesizedSource.empty()
                ? std::string("-")
                : hex(fnv1a64(A->SynthesizedSource))) +
           "\n";
  }
  for (const ClassifierDef &C : S->module().classifiers()) {
    const ClassifierInfo<D> *Info = S->tracker().classifierInfo(C.Name);
    Out += "classifier " + C.Name + ":";
    if (Info == nullptr)
      Out += " absent";
    else
      for (const OutputIndSet<D> &O : Info->Ind)
        Out += " " + std::to_string(O.Value) + "=" + O.Set.str();
    Out += "\n";
  }
  for (const QueryDegradation &Q : S->degradation().Queries)
    Out += "degraded " + oneLine(Q.str()) +
           (Q.DeadlineExpired ? " [deadline-expired]" : "") + "\n";
  Out += "kb " + hex(fnv1a64(S->exportKnowledgeBase())) + "\n";
  return Out;
}

/// The golden renderings, by scenario name.
const std::map<std::string, std::string> &golden() {
  static const std::map<std::string, std::string> Blocks = [] {
    std::map<std::string, std::string> Out;
    std::ifstream In(std::string(ANOSY_CORE_GOLDEN_DIR) +
                     "/registration_ladder.txt");
    EXPECT_TRUE(In.good()) << "missing golden file registration_ladder.txt";
    std::string Line, Name;
    while (std::getline(In, Line)) {
      if (Line.rfind("== ", 0) == 0)
        Name = Line.substr(3);
      else if (!Name.empty())
        Out[Name] += Line + "\n";
    }
    return Out;
  }();
  return Blocks;
}

/// Collects one family's renderings and compares them with the golden.
class Ladder {
public:
  explicit Ladder(std::string Family) : Family(std::move(Family)) {}

  ~Ladder() {
    bool Mismatch = false;
    for (const auto &[Name, Text] : Actual) {
      auto It = golden().find(Name);
      std::string Expected = It == golden().end() ? "" : It->second;
      EXPECT_EQ(Expected, Text) << "scenario " << Name;
      Mismatch |= Expected != Text;
    }
    if (!Mismatch)
      return;
    std::string Path = testing::TempDir() + "registration_ladder." + Family +
                       ".actual.txt";
    std::ofstream Out(Path);
    for (const auto &[Name, Text] : Actual)
      Out << "== " << Name << "\n" << Text;
    ADD_FAILURE() << "actual renderings written to " << Path;
  }

  template <AbstractDomain D>
  void record(const std::string &Name, const Result<AnosySession<D>> &S) {
    Actual.emplace_back(Family + "/" + Name, render(S));
  }

private:
  std::string Family;
  std::vector<std::pair<std::string, std::string>> Actual;
};

template <AbstractDomain D> const char *tag() {
  return std::is_same_v<D, Box> ? "interval" : "k3";
}

template <AbstractDomain D>
Result<AnosySession<D>> create(const std::string &Source,
                               const SessionOptions &Options) {
  return AnosySession<D>::create(parse(Source), minSizePolicy<D>(100),
                                 Options);
}

template <AbstractDomain D> void solverBudgets(Ladder &L) {
  for (uint64_t Nodes : {5u, 50u, 500u, 5000u}) {
    for (const char *Variant : {"alone", "retry40", "cap", "retry40+cap"}) {
      SessionOptions O;
      O.Synth.MaxSolverNodes = Nodes;
      std::string V = Variant;
      if (V.find("retry40") != std::string::npos)
        O.Retry.MaxAttempts = 40;
      if (V.find("cap") != std::string::npos)
        O.MaxSessionNodes = 3000;
      L.record<D>(std::string(tag<D>()) + "/" + std::to_string(Nodes) + "/" +
                      Variant,
                  create<D>(LadderSource, O));
    }
  }
}

template <AbstractDomain D> void faultSites(Ladder &L) {
  for (FaultSite Site : {FaultSite::VerifierObligation,
                         FaultSite::SolverCharge, FaultSite::GrowerRestart})
    for (uint64_t OneIn : {1u, 3u, 50u})
      for (uint64_t Seed : {1u, 2u})
        for (unsigned Retry : {1u, 3u}) {
          SessionOptions O;
          O.Retry.MaxAttempts = Retry;
          FaultConfig C;
          C.Seed = Seed;
          C.Sites[static_cast<unsigned>(Site)] = {OneIn, UINT64_MAX};
          faults::configure(C);
          auto S = create<D>(LadderSource, O);
          faults::reset();
          L.record<D>(std::string(tag<D>()) + "/" + faultSiteName(Site) +
                          "@" + std::to_string(OneIn) + "/seed" +
                          std::to_string(Seed) + "/retry" +
                          std::to_string(Retry),
                      S);
        }
}

template <AbstractDomain D> void staticAdmission(Ladder &L) {
  SessionOptions O;
  O.StaticAdmission = true;
  for (const BenchmarkProblem &B : mardzielBenchmarks())
    L.record<D>(std::string(tag<D>()) + "/" + B.Id,
                AnosySession<D>::create(B.M, minSizePolicy<D>(100), O));
  L.record<D>(std::string(tag<D>()) + "/constant",
              create<D>("secret S { x: int[0, 10] }\n"
                        "query always = x >= 0\n"
                        "query never = x > 10\n",
                        O));
}

template <AbstractDomain D> void cacheSessions(Ladder &L) {
  std::string Root =
      testing::TempDir() + "anosy_ladder_cache_" + tag<D>();
  std::filesystem::remove_all(Root);
  ArtifactCache Cache(Root);
  SessionOptions O;
  O.Cache = &Cache;
  std::string Prefix = std::string(tag<D>()) + "/";
  L.record<D>(Prefix + "cold", create<D>(LadderSource, O));
  L.record<D>(Prefix + "warm", create<D>(LadderSource, O));
  L.record<D>(Prefix + "related", create<D>(NarrowSource, O));
  O.Synth.MaxSolverNodes = 5;
  L.record<D>(Prefix + "tiny", create<D>(LadderSource, O));
  std::filesystem::remove_all(Root);
}

/// Flips one digit in nearby300's first box list: the record keeps its
/// shape but fails its checksum.
std::string corruptRecord(std::string Text) {
  size_t P = Text.find("true include [", Text.find("query nearby300"));
  while (P < Text.size() && (Text[P] < '0' || Text[P] > '9'))
    ++P;
  Text[P] = Text[P] == '9' ? '8' : char(Text[P] + 1);
  return Text;
}

/// Garbles nearby300's query line: the record cannot be recovered.
std::string loseRecord(std::string Text) {
  size_t P = Text.find("query nearby300 = ");
  Text.replace(P, Text.find('\n', P) - P, "query nearby300 = @@@");
  return Text;
}

template <AbstractDomain D> void kbSalvage(Ladder &L) {
  auto Source = create<D>(LadderSource, SessionOptions{});
  ASSERT_TRUE(Source.ok());
  std::string Intact = Source->exportKnowledgeBase();
  // Tampered: checksums recomputed over a too-large True set, so only
  // re-verification can catch it.
  std::vector<QueryInfo<D>> Infos;
  for (const char *Name : {"nearby200", "nearby300"})
    Infos.push_back(*Source->tracker().queryInfo(Name));
  Infos[0].Ind.TrueSet = DomainTraits<D>::top(Source->module().schema());
  std::string Tampered =
      serializeKnowledgeBaseV2(Source->module().schema(), Infos);

  const std::pair<const char *, std::string> Kbs[] = {
      {"intact", Intact},
      {"corrupt", corruptRecord(Intact)},
      {"lost", loseRecord(Intact)},
      {"tampered", Tampered}};
  for (const auto &[Kind, Text] : Kbs)
    for (bool Verify : {true, false})
      for (uint64_t Nodes : {uint64_t(200'000'000), uint64_t(5)}) {
        SessionOptions O;
        O.Verify = Verify;
        O.Synth.MaxSolverNodes = Nodes;
        L.record<D>(std::string(tag<D>()) + "/" + Kind +
                        (Verify ? "/verify" : "/no-verify") +
                        (Nodes == 5 ? "/tiny" : "/default"),
                    AnosySession<D>::createFromKnowledgeBase(
                        Text, minSizePolicy<D>(100), O));
      }
}

} // namespace

TEST(RegistrationLadder, SolverBudgets) {
  Ladder L("budget");
  solverBudgets<Box>(L);
  solverBudgets<PowerBox>(L);
}

TEST(RegistrationLadder, FaultSites) {
  Ladder L("fault");
  faultSites<Box>(L);
  faultSites<PowerBox>(L);
}

TEST(RegistrationLadder, StaticAdmission) {
  Ladder L("static");
  staticAdmission<Box>(L);
  staticAdmission<PowerBox>(L);
}

TEST(RegistrationLadder, CacheSessions) {
  Ladder L("cache");
  cacheSessions<Box>(L);
  cacheSessions<PowerBox>(L);
}

TEST(RegistrationLadder, KnowledgeBaseSalvage) {
  Ladder L("kb");
  kbSalvage<Box>(L);
  kbSalvage<PowerBox>(L);
}

TEST(RegistrationLadder, GoldenReachesEveryRung) {
  // The scenarios above are only a pin if they exercise the ladder: both
  // kinds must land on each of their rungs somewhere in the golden.
  std::string All;
  for (const auto &[Name, Text] : golden())
    All += Text;
  for (const char *Rung :
       {"nearby200: synthesis-exhausted -> partial artifact kept",
        "nearby200: synthesis-exhausted -> bottom fallback",
        "nearby200: verification-undecided -> partial artifact kept",
        "nearby200: verification-undecided -> bottom fallback",
        "band: synthesis-exhausted -> bottom fallback",
        "band: verification-undecided -> bottom fallback",
        "statically-rejected", "loaded-artifact-invalid",
        "knowledge-base-corrupt", "cache=hit", "cache=miss+seeded"})
    EXPECT_NE(All.find(Rung), std::string::npos) << Rung;
}
