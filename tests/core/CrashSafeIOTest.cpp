//===- tests/core/CrashSafeIOTest.cpp - v2 KB integrity + atomic writes ---===//

#include "core/ArtifactIO.h"

#include "core/AnosySession.h"
#include "expr/Parser.h"
#include "support/FaultInjection.h"
#include "verify/RefinementChecker.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace anosy;

namespace {

struct FaultScope {
  ~FaultScope() { faults::reset(); }
};

Module nearbyModule() {
  auto M = parseModule(R"(
    secret UserLoc { x: int[0, 400], y: int[0, 400] }
    def nearby(ox: int, oy: int): bool = abs(x - ox) + abs(y - oy) <= 100
    query nearby200 = nearby(200, 200)
    query nearby300 = nearby(300, 200)
  )");
  EXPECT_TRUE(M.ok());
  return M.takeValue();
}

std::vector<QueryInfo<Box>> synthesizeAll(const Module &M) {
  std::vector<QueryInfo<Box>> Infos;
  for (const QueryDef &Q : M.queries()) {
    auto Sy = Synthesizer::create(M.schema(), Q.Body);
    EXPECT_TRUE(Sy.ok());
    QueryInfo<Box> Info;
    Info.Name = Q.Name;
    Info.QueryExpr = Q.Body;
    auto Sets = Sy->synthesizeInterval(ApproxKind::Under);
    EXPECT_TRUE(Sets.ok());
    Info.Ind = Sets.takeValue();
    Infos.push_back(std::move(Info));
  }
  return Infos;
}

std::string v2Text() {
  Module M = nearbyModule();
  return serializeKnowledgeBaseV2(M.schema(), synthesizeAll(M));
}

/// Flips one digit inside the second record's first box list, leaving the
/// file structurally well-formed but checksum-inconsistent.
std::string flipDigitInRecord2(std::string Text) {
  size_t Rec2 = Text.find("query nearby300");
  EXPECT_NE(Rec2, std::string::npos);
  size_t Lists = Text.find("true include [", Rec2);
  EXPECT_NE(Lists, std::string::npos);
  size_t P = Lists;
  while (P < Text.size() && (Text[P] < '0' || Text[P] > '9'))
    ++P;
  EXPECT_LT(P, Text.size());
  Text[P] = Text[P] == '9' ? '8' : char(Text[P] + 1);
  return Text;
}

} // namespace

TEST(CrashSafeIO, V2RoundTripsStrictly) {
  std::string Text = v2Text();
  EXPECT_NE(Text.find("anosy-knowledge-base v2 domain interval"),
            std::string::npos);
  EXPECT_NE(Text.find("record-checksum fnv1a64:"), std::string::npos);
  EXPECT_NE(Text.find("trailer fnv1a64:"), std::string::npos);
  auto KB = parseKnowledgeBase<Box>(Text);
  ASSERT_TRUE(KB.ok()) << KB.error().str();
  ASSERT_EQ(KB->Queries.size(), 2u);
  EXPECT_EQ(KB->Queries[0].Name, "nearby200");
  EXPECT_EQ(KB->Queries[1].Name, "nearby300");
}

TEST(CrashSafeIO, V2PowersetRoundTrips) {
  Module M = nearbyModule();
  std::vector<QueryInfo<PowerBox>> Infos;
  for (const QueryDef &Q : M.queries()) {
    auto Sy = Synthesizer::create(M.schema(), Q.Body);
    ASSERT_TRUE(Sy.ok());
    QueryInfo<PowerBox> Info;
    Info.Name = Q.Name;
    Info.QueryExpr = Q.Body;
    auto Sets = Sy->synthesizePowerset(ApproxKind::Under, 3);
    ASSERT_TRUE(Sets.ok());
    Info.Ind = Sets.takeValue();
    Infos.push_back(std::move(Info));
  }
  std::string Text = serializeKnowledgeBaseV2(M.schema(), Infos);
  auto KB = parseKnowledgeBase<PowerBox>(Text);
  ASSERT_TRUE(KB.ok()) << KB.error().str();
  ASSERT_EQ(KB->Queries.size(), 2u);
  EXPECT_TRUE(KB->Queries[0].Ind.TrueSet == Infos[0].Ind.TrueSet);
}

TEST(CrashSafeIO, V1FilesStillLoad) {
  Module M = nearbyModule();
  std::string Text = serializeKnowledgeBase(M.schema(), synthesizeAll(M));
  auto KB = parseKnowledgeBase<Box>(Text);
  ASSERT_TRUE(KB.ok()) << KB.error().str();
  EXPECT_EQ(KB->Queries.size(), 2u);
  auto Rec = recoverKnowledgeBase<Box>(Text);
  ASSERT_TRUE(Rec.ok()) << Rec.error().str();
  EXPECT_EQ(Rec->Version, 1);
  EXPECT_TRUE(Rec->TrailerValid); // v1 has no trailer to be invalid.
  EXPECT_EQ(Rec->Intact.size(), 2u);
  EXPECT_TRUE(Rec->Damaged.empty());
  EXPECT_TRUE(Rec->Lost.empty());
}

TEST(CrashSafeIO, BitFlipIsDetectedStrictly) {
  std::string Text = flipDigitInRecord2(v2Text());
  auto KB = parseKnowledgeBase<Box>(Text);
  ASSERT_FALSE(KB.ok());
  EXPECT_NE(KB.error().message().find("checksum"), std::string::npos);
}

TEST(CrashSafeIO, BitFlipDamagesOnlyThatRecord) {
  auto Rec = recoverKnowledgeBase<Box>(flipDigitInRecord2(v2Text()));
  ASSERT_TRUE(Rec.ok()) << Rec.error().str();
  ASSERT_EQ(Rec->Intact.size(), 1u);
  EXPECT_EQ(Rec->Intact[0].Name, "nearby200");
  ASSERT_EQ(Rec->Damaged.size(), 1u);
  EXPECT_EQ(Rec->Damaged[0].Name, "nearby300");
  EXPECT_TRUE(Rec->Lost.empty());
  // Changing a record invalidates the whole-file trailer too.
  EXPECT_FALSE(Rec->TrailerValid);
}

TEST(CrashSafeIO, TruncationBeforeTrailer) {
  std::string Text = v2Text();
  size_t Trailer = Text.rfind("trailer fnv1a64:");
  ASSERT_NE(Trailer, std::string::npos);
  std::string Cut = Text.substr(0, Trailer);
  // Strict: a v2 file without its trailer is rejected.
  EXPECT_FALSE(parseKnowledgeBase<Box>(Cut).ok());
  // Salvage: both records survive; the missing trailer is reported.
  auto Rec = recoverKnowledgeBase<Box>(Cut);
  ASSERT_TRUE(Rec.ok());
  EXPECT_EQ(Rec->Intact.size(), 2u);
  EXPECT_FALSE(Rec->TrailerValid);
}

TEST(CrashSafeIO, MidRecordTruncationSalvagesThePrefix) {
  std::string Text = v2Text();
  // Cut in the middle of the second record's artifact lines.
  size_t Rec2 = Text.find("query nearby300");
  ASSERT_NE(Rec2, std::string::npos);
  size_t Cut = Text.find("false include", Rec2);
  ASSERT_NE(Cut, std::string::npos);
  std::string Truncated = Text.substr(0, Cut);
  EXPECT_FALSE(parseKnowledgeBase<Box>(Truncated).ok());
  auto Rec = recoverKnowledgeBase<Box>(Truncated);
  ASSERT_TRUE(Rec.ok());
  ASSERT_EQ(Rec->Intact.size(), 1u);
  EXPECT_EQ(Rec->Intact[0].Name, "nearby200");
  // nearby300's query line survives, so it is damaged, not lost.
  ASSERT_EQ(Rec->Damaged.size(), 1u);
  EXPECT_EQ(Rec->Damaged[0].Name, "nearby300");
  EXPECT_FALSE(Rec->TrailerValid);
}

TEST(CrashSafeIO, GarbledQueryLineIsLostByName) {
  std::string Text = v2Text();
  size_t Pos = Text.find("query nearby300 = ");
  ASSERT_NE(Pos, std::string::npos);
  size_t Eol = Text.find('\n', Pos);
  Text.replace(Pos, Eol - Pos, "query nearby300 = @@@garbage@@@");
  auto Rec = recoverKnowledgeBase<Box>(Text);
  ASSERT_TRUE(Rec.ok());
  EXPECT_EQ(Rec->Intact.size(), 1u);
  ASSERT_EQ(Rec->Lost.size(), 1u);
  EXPECT_EQ(Rec->Lost[0], "nearby300");
}

TEST(CrashSafeIO, SalvagedIntactRecordsStillVerify) {
  auto Rec = recoverKnowledgeBase<Box>(flipDigitInRecord2(v2Text()));
  ASSERT_TRUE(Rec.ok());
  for (const QueryInfo<Box> &Info : Rec->Intact) {
    RefinementChecker Checker(Rec->S, Info.QueryExpr);
    EXPECT_TRUE(Checker.checkIndSets(Info.Ind, ApproxKind::Under).valid())
        << Info.Name;
  }
}

TEST(CrashSafeIO, AtomicWriteReplacesAndRoundTrips) {
  std::string Path = testing::TempDir() + "anosy_kb_atomic_test.akb";
  std::string Text = v2Text();
  auto W = writeKnowledgeBaseFileAtomic(Path, Text);
  ASSERT_TRUE(W.ok()) << W.error().str();
  auto Back = readKnowledgeBaseFile(Path);
  ASSERT_TRUE(Back.ok()) << Back.error().str();
  EXPECT_EQ(*Back, Text);
  // Overwrite with different content: full replacement, no append.
  std::string Smaller = serializeKnowledgeBaseV2(
      nearbyModule().schema(), std::vector<QueryInfo<Box>>{});
  ASSERT_TRUE(writeKnowledgeBaseFileAtomic(Path, Smaller).ok());
  auto Back2 = readKnowledgeBaseFile(Path);
  ASSERT_TRUE(Back2.ok());
  EXPECT_EQ(*Back2, Smaller);
  ::remove(Path.c_str());
}

TEST(CrashSafeIO, TornWriteLeavesPreviousFileReadable) {
  FaultScope Scope;
  std::string Path = testing::TempDir() + "anosy_kb_torn_test.akb";
  std::string Original = v2Text();
  ASSERT_TRUE(writeKnowledgeBaseFileAtomic(Path, Original).ok());

  // Arm the kb-write fault: the next write tears before the rename.
  FaultConfig C;
  C.Seed = 1;
  C.Sites[static_cast<unsigned>(FaultSite::KbWrite)] = {1, UINT64_MAX};
  faults::configure(C);
  auto W = writeKnowledgeBaseFileAtomic(Path, "replacement that never lands");
  EXPECT_FALSE(W.ok());
  faults::reset();

  // The destination is byte-identical to the pre-crash content and still
  // parses strictly.
  auto Back = readKnowledgeBaseFile(Path);
  ASSERT_TRUE(Back.ok());
  EXPECT_EQ(*Back, Original);
  EXPECT_TRUE(parseKnowledgeBase<Box>(*Back).ok());
  ::remove(Path.c_str());
  ::remove((Path + ".tmp").c_str());
}

TEST(CrashSafeIO, InjectedReadCorruptionIsCaughtByChecksums) {
  FaultScope Scope;
  std::string Path = testing::TempDir() + "anosy_kb_read_fault_test.akb";
  std::string Text = v2Text();
  ASSERT_TRUE(writeKnowledgeBaseFileAtomic(Path, Text).ok());

  FaultConfig C;
  C.Seed = 2;
  C.Sites[static_cast<unsigned>(FaultSite::KbRead)] = {1, UINT64_MAX};
  faults::configure(C);
  auto Back = readKnowledgeBaseFile(Path);
  faults::reset();
  ASSERT_TRUE(Back.ok());
  EXPECT_NE(*Back, Text); // one bit differs
  // The flip can land anywhere; strict v2 parsing must reject the file
  // (header/schema damage and checksum damage are both detected).
  EXPECT_FALSE(parseKnowledgeBase<Box>(*Back).ok());
  ::remove(Path.c_str());
}

TEST(CrashSafeIO, SessionExportReloadsWithoutResynthesis) {
  Module M = nearbyModule();
  auto S = AnosySession<Box>::create(M, minSizePolicy<Box>(100));
  ASSERT_TRUE(S.ok()) << S.error().str();
  std::string Text = S->exportKnowledgeBase();

  auto Reloaded = AnosySession<Box>::createFromKnowledgeBase(
      Text, minSizePolicy<Box>(100));
  ASSERT_TRUE(Reloaded.ok()) << Reloaded.error().str();
  EXPECT_FALSE(Reloaded->degradation().degraded())
      << Reloaded->degradation().str();
  // Same downgrade decisions as the synthesizing session.
  Point Secret{300, 200};
  for (const char *Name : {"nearby200", "nearby300"}) {
    auto A = S->downgrade(Secret, Name);
    auto B = Reloaded->downgrade(Secret, Name);
    ASSERT_EQ(A.ok(), B.ok()) << Name;
    if (A.ok()) {
      EXPECT_EQ(*A, *B);
    }
  }
  // Loaded without re-verification, every record still carries the
  // rendered sketch the synthesizing session produced.
  SessionOptions NoVerify;
  NoVerify.Verify = false;
  auto Unverified = AnosySession<Box>::createFromKnowledgeBase(
      Text, minSizePolicy<Box>(100), NoVerify);
  ASSERT_TRUE(Unverified.ok()) << Unverified.error().str();
  for (const char *Name : {"nearby200", "nearby300"}) {
    ASSERT_NE(Unverified->artifacts(Name), nullptr) << Name;
    EXPECT_FALSE(S->artifacts(Name)->SynthesizedSource.empty()) << Name;
    EXPECT_EQ(Unverified->artifacts(Name)->SynthesizedSource,
              S->artifacts(Name)->SynthesizedSource)
        << Name;
  }
}

TEST(CrashSafeIO, CorruptRecordIsResynthesizedOnLoad) {
  Module M = nearbyModule();
  auto S = AnosySession<Box>::create(M, minSizePolicy<Box>(100));
  ASSERT_TRUE(S.ok());
  std::string Text = flipDigitInRecord2(S->exportKnowledgeBase());

  auto Reloaded = AnosySession<Box>::createFromKnowledgeBase(
      Text, minSizePolicy<Box>(100));
  ASSERT_TRUE(Reloaded.ok()) << Reloaded.error().str();
  const QueryDegradation *Deg = Reloaded->degradation().find("nearby300");
  ASSERT_NE(Deg, nullptr);
  EXPECT_EQ(Deg->Reason, DegradationReason::KnowledgeBaseCorrupt);
  // The resynthesized artifacts are real, not ⊥: downgrades work.
  const QueryArtifacts<Box> *Art = Reloaded->artifacts("nearby300");
  ASSERT_NE(Art, nullptr);
  EXPECT_TRUE(Art->Certificates.valid());
  EXPECT_FALSE(Art->Ind.TrueSet.isEmpty());
  auto R = Reloaded->downgrade({300, 200}, "nearby300");
  ASSERT_TRUE(R.ok()) << R.error().str();
  EXPECT_TRUE(*R);
}

TEST(CrashSafeIO, UnrecoverableRecordIsDroppedAndReported) {
  Module M = nearbyModule();
  auto S = AnosySession<Box>::create(M, minSizePolicy<Box>(100));
  ASSERT_TRUE(S.ok());
  std::string Text = S->exportKnowledgeBase();
  size_t Pos = Text.find("query nearby300 = ");
  ASSERT_NE(Pos, std::string::npos);
  size_t Eol = Text.find('\n', Pos);
  Text.replace(Pos, Eol - Pos, "query nearby300 = @@@garbage@@@");

  auto Reloaded = AnosySession<Box>::createFromKnowledgeBase(
      Text, minSizePolicy<Box>(100));
  ASSERT_TRUE(Reloaded.ok()) << Reloaded.error().str();
  const QueryDegradation *Deg = Reloaded->degradation().find("nearby300");
  ASSERT_NE(Deg, nullptr);
  EXPECT_EQ(Deg->Reason, DegradationReason::KnowledgeBaseCorrupt);
  EXPECT_TRUE(Deg->FellBack);
  // The query is gone: downgrading it is UnknownQuery, not a leak.
  auto R = Reloaded->downgrade({300, 200}, "nearby300");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().code(), ErrorCode::UnknownQuery);
  // The intact sibling is unaffected.
  EXPECT_TRUE(Reloaded->downgrade({300, 200}, "nearby200").ok());
}

TEST(CrashSafeIO, TamperedIntactRecordFailsReverificationAndResynthesizes) {
  // A record can be *internally consistent* (checksums recomputed by the
  // attacker) yet semantically wrong. Re-verification catches it.
  Module M = nearbyModule();
  auto Infos = synthesizeAll(M);
  Infos[0].Ind.TrueSet = Box({{0, 400}, {0, 400}}); // too big: refutable
  std::string Text = serializeKnowledgeBaseV2(M.schema(), Infos);
  // Strict parse accepts it (integrity is fine)...
  ASSERT_TRUE(parseKnowledgeBase<Box>(Text).ok());
  // ...but the loading session re-verifies, refutes, and resynthesizes.
  auto Reloaded = AnosySession<Box>::createFromKnowledgeBase(
      Text, minSizePolicy<Box>(100));
  ASSERT_TRUE(Reloaded.ok()) << Reloaded.error().str();
  const QueryDegradation *Deg = Reloaded->degradation().find("nearby200");
  ASSERT_NE(Deg, nullptr);
  EXPECT_EQ(Deg->Reason, DegradationReason::LoadedArtifactInvalid);
  const QueryArtifacts<Box> *Art = Reloaded->artifacts("nearby200");
  ASSERT_NE(Art, nullptr);
  EXPECT_TRUE(Art->Certificates.valid());
  auto R = Reloaded->downgrade({200, 200}, "nearby200");
  ASSERT_TRUE(R.ok()) << R.error().str();
  EXPECT_TRUE(*R);
}
