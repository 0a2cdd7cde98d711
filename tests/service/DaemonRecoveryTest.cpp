//===- tests/service/DaemonRecoveryTest.cpp - Multi-tenant crash salvage --===//
//
// Satellite 3: KB v2 salvage at daemon startup under multi-tenant crash
// simulation. A daemon dies mid-flush (fault injection keeps the old
// file; manual corruption simulates a torn disk); the restarted daemon
// must re-verify every tenant's KB, resynthesize damaged records, and
// keep serving every tenant.
//
//===----------------------------------------------------------------------===//

#include "service/Daemon.h"

#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

using namespace anosy;
using namespace anosy::service;

namespace {

struct FaultScope {
  ~FaultScope() { faults::reset(); }
};

/// Three tenants over distinct small modules (distinct thresholds too, so
/// recovery must restore per-tenant policy from the sidecars).
struct TenantSpec {
  const char *Name;
  const char *Source;
  int64_t MinSize;
  const char *Query;
  Point Secret;
};

const TenantSpec Tenants[3] = {
    {"alpha",
     "secret A { x: int[0, 100] }\n"
     "query mid = x >= 40 && x <= 70\n",
     8, "mid", {50}},
    {"beta",
     "secret B { y: int[0, 60], z: int[0, 10] }\n"
     "query corner = y >= 30 && z >= 5\n",
     4, "corner", {45, 7}},
    {"gamma",
     "secret C { w: int[0, 200] }\n"
     "query low = w <= 120\n",
     16, "low", {30}},
};

ServiceRequest makeRegister(const TenantSpec &T) {
  ServiceRequest R;
  R.Kind = RequestKind::Register;
  R.Tenant = T.Name;
  R.ModuleSource = T.Source;
  R.MinSize = T.MinSize;
  return R;
}

ServiceRequest makeDowngrade(const TenantSpec &T) {
  ServiceRequest R;
  R.Kind = RequestKind::Downgrade;
  R.Tenant = T.Name;
  R.Name = T.Query;
  R.Secret = T.Secret;
  return R;
}

/// TempDir() persists across test invocations, so every test scrubs its
/// data directory first — leftover tenant KBs from a previous run would
/// collide with this run's registrations at salvage time.
std::string freshDir(const std::string &Name) {
  std::string Dir = testing::TempDir() + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

DaemonOptions dirOptions(const std::string &Dir) {
  DaemonOptions Opt;
  Opt.Workers = 0;
  Opt.DataDir = Dir;
  return Opt;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Ss;
  Ss << In.rdbuf();
  return Ss.str();
}

void spit(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
}

/// Flips one digit inside the named record's box list: structurally
/// well-formed, checksum-inconsistent — the shape a torn sector leaves.
std::string flipDigitInRecord(std::string Text, const std::string &Query) {
  size_t Rec = Text.find("query " + Query);
  EXPECT_NE(Rec, std::string::npos);
  size_t Lists = Text.find("true include [", Rec);
  EXPECT_NE(Lists, std::string::npos);
  size_t P = Lists;
  while (P < Text.size() && (Text[P] < '0' || Text[P] > '9'))
    ++P;
  EXPECT_LT(P, Text.size());
  Text[P] = Text[P] == '9' ? '8' : char(Text[P] + 1);
  return Text;
}

/// Registers all three tenants and answers one downgrade each; returns
/// the admitted answers.
std::vector<bool> seedTenants(MonitorDaemon &D) {
  std::vector<bool> Answers;
  for (const TenantSpec &T : Tenants) {
    ServiceResponse Reg = D.call(makeRegister(T));
    EXPECT_EQ(Reg.Status, ResponseStatus::Ok) << T.Name << ": " << Reg.Detail;
    ServiceResponse A = D.call(makeDowngrade(T));
    EXPECT_EQ(A.Status, ResponseStatus::Ok) << T.Name << ": " << A.Detail;
    Answers.push_back(A.BoolValue);
  }
  return Answers;
}

/// Seeds all three tenants into a fresh \p Name directory, drains, then
/// overwrites alpha's policy sidecar with \p Meta (or deletes it when
/// unset). Returns the directory.
std::string seedThenEditAlphaSidecar(const std::string &Name,
                                     const std::optional<std::string> &Meta) {
  std::string Dir = freshDir(Name);
  {
    MonitorDaemon D(dirOptions(Dir));
    EXPECT_TRUE(D.start().ok());
    (void)seedTenants(D);
    EXPECT_EQ(D.drain().FlushFailures, 0u);
  }
  if (Meta)
    spit(Dir + "/alpha.meta", *Meta);
  else
    EXPECT_TRUE(std::filesystem::remove(Dir + "/alpha.meta"));
  return Dir;
}

} // namespace

TEST(DaemonRecovery, CrashMidFlushKeepsLastValidKb) {
  // A flush that dies before the atomic rename (service-flush fault,
  // exhausting every retry) leaves the previous valid KB on disk; the
  // "killed" daemon's tenants all come back on restart.
  FaultScope Scope;
  std::string Dir = freshDir("anosyd_crash_flush");
  {
    MonitorDaemon D(dirOptions(Dir));
    ASSERT_TRUE(D.start().ok());
    (void)seedTenants(D); // registration flushed v1 of every KB

    // From here every flush attempt dies before the write — the crash
    // window between serialize and rename, repeated until "power loss".
    FaultConfig C;
    C.Seed = 3;
    C.Sites[static_cast<unsigned>(FaultSite::ServiceFlush)] = {1,
                                                               UINT64_MAX};
    faults::configure(C);
    ServiceRequest F;
    F.Kind = RequestKind::Flush;
    F.Tenant = "alpha";
    ServiceResponse R = D.call(std::move(F));
    EXPECT_EQ(R.Status, ResponseStatus::Error);
    EXPECT_GT(D.stats().FlushFailures, 0u);
    // The daemon dies with the harness still armed: the drain's final
    // flushes fail too, like a kill mid-shutdown.
  }
  faults::reset();

  MonitorDaemon Fresh(dirOptions(Dir));
  auto Rec = Fresh.start();
  ASSERT_TRUE(Rec.ok());
  EXPECT_EQ(Rec->TenantsRecovered, 3u);
  EXPECT_EQ(Rec->TenantsFailed, 0u);
  EXPECT_EQ(Rec->DamagedRecords, 0u);
  for (const TenantSpec &T : Tenants) {
    ServiceResponse A = Fresh.call(makeDowngrade(T));
    EXPECT_EQ(A.Status, ResponseStatus::Ok) << T.Name << ": " << A.Detail;
  }
}

TEST(DaemonRecovery, MultiTenantSalvageResynthesizesDamage) {
  // The full satellite scenario: three tenants on disk; a simulated
  // crash corrupts one record of beta's KB and truncates gamma's file
  // mid-record. Restart must recover every tenant — alpha clean, beta and
  // gamma by resynthesizing their damaged records — and every tenant must
  // answer again with its original policy.
  std::string Dir = freshDir("anosyd_crash_multi");
  std::vector<bool> Before;
  {
    MonitorDaemon D(dirOptions(Dir));
    ASSERT_TRUE(D.start().ok());
    Before = seedTenants(D);
    DrainReport Drain = D.drain();
    ASSERT_EQ(Drain.FlushFailures, 0u);
  }

  // Simulated torn disk: beta gets a checksum-inconsistent record,
  // gamma loses the tail of its file (but keeps the header).
  std::string BetaPath = Dir + "/beta.akb";
  spit(BetaPath, flipDigitInRecord(slurp(BetaPath), "corner"));
  std::string GammaPath = Dir + "/gamma.akb";
  std::string GammaText = slurp(GammaPath);
  size_t Cut = GammaText.find("record-checksum");
  ASSERT_NE(Cut, std::string::npos);
  spit(GammaPath, GammaText.substr(0, Cut));

  MonitorDaemon Fresh(dirOptions(Dir));
  auto Rec = Fresh.start();
  ASSERT_TRUE(Rec.ok());
  EXPECT_EQ(Rec->TenantsRecovered, 3u);
  EXPECT_EQ(Rec->TenantsFailed, 0u);
  EXPECT_GT(Rec->DamagedRecords, 0u);

  // Beta's damaged record was resynthesized — the damage is reported
  // with its machine-readable code, and the query answers again.
  const AnosySession<Box> *Beta = Fresh.tenantSession("beta");
  ASSERT_NE(Beta, nullptr);
  const QueryDegradation *Deg = Beta->degradation().find("corner");
  ASSERT_NE(Deg, nullptr);
  EXPECT_EQ(Deg->Reason, DegradationReason::KnowledgeBaseCorrupt);
  EXPECT_EQ(Deg->code(), ReasonCode::KbCorrupt);
  EXPECT_FALSE(Deg->FellBack); // resynthesized, not ⊥

  // Every tenant answers exactly what it answered before the crash.
  for (size_t I = 0; I != 3; ++I) {
    ServiceResponse A = Fresh.call(makeDowngrade(Tenants[I]));
    ASSERT_EQ(A.Status, ResponseStatus::Ok)
        << Tenants[I].Name << ": " << A.Detail;
    EXPECT_EQ(A.BoolValue, Before[I]) << Tenants[I].Name;
  }

  // The salvage repair-flush already rewrote the damaged KBs: a third
  // life starts fully clean.
  Fresh.drain();
  MonitorDaemon Third(dirOptions(Dir));
  auto Rec3 = Third.start();
  ASSERT_TRUE(Rec3.ok());
  EXPECT_EQ(Rec3->TenantsRecovered, 3u);
  EXPECT_EQ(Rec3->DamagedRecords, 0u);
}

TEST(DaemonRecovery, UnreadableKbIsReportedNotFatal) {
  // A KB that fails whole-file parsing (destroyed header) is a per-tenant
  // failure with a message; the daemon still starts and serves the rest.
  std::string Dir = freshDir("anosyd_crash_unreadable");
  {
    MonitorDaemon D(dirOptions(Dir));
    ASSERT_TRUE(D.start().ok());
    (void)seedTenants(D);
    D.drain();
  }
  spit(Dir + "/alpha.akb", "not a knowledge base at all\n");

  MonitorDaemon Fresh(dirOptions(Dir));
  auto Rec = Fresh.start();
  ASSERT_TRUE(Rec.ok());
  EXPECT_EQ(Rec->TenantsRecovered, 2u);
  EXPECT_EQ(Rec->TenantsFailed, 1u);
  bool SawAlpha = false;
  for (const RecoveredTenant &T : Rec->Tenants)
    if (T.Tenant == "alpha") {
      SawAlpha = true;
      EXPECT_FALSE(T.Ok);
      EXPECT_FALSE(T.Error.empty());
    }
  EXPECT_TRUE(SawAlpha);

  // The surviving tenants serve; the lost one is an explicit error.
  EXPECT_EQ(Fresh.call(makeDowngrade(Tenants[1])).Status,
            ResponseStatus::Ok);
  EXPECT_EQ(Fresh.call(makeDowngrade(Tenants[0])).Status,
            ResponseStatus::Error);
}

TEST(DaemonRecovery, BadPolicySidecarFailsTenantClosed) {
  // A KB must not come back under no policy. A missing sidecar, a letter
  // O for a zero, and an int64 overflow each fail alpha alone, with an
  // error naming the sidecar; alpha is then an unknown tenant while beta
  // and gamma keep answering.
  const std::optional<std::string> Metas[] = {
      std::nullopt, "min-size 1O0\n",
      "min-size 123456789012345678901234567890\n"};
  for (const std::optional<std::string> &Meta : Metas) {
    SCOPED_TRACE(Meta.value_or("(missing)"));
    std::string Dir = seedThenEditAlphaSidecar("anosyd_meta_bad", Meta);
    MonitorDaemon Fresh(dirOptions(Dir));
    auto Rec = Fresh.start();
    ASSERT_TRUE(Rec.ok());
    EXPECT_EQ(Rec->TenantsRecovered, 2u);
    EXPECT_EQ(Rec->TenantsFailed, 1u);
    for (const RecoveredTenant &T : Rec->Tenants) {
      EXPECT_EQ(T.Ok, T.Tenant != "alpha") << T.Tenant;
      if (T.Tenant == "alpha") {
        EXPECT_NE(T.Error.find("alpha.meta"), std::string::npos) << T.Error;
      }
    }
    ServiceResponse A = Fresh.call(makeDowngrade(Tenants[0]));
    EXPECT_EQ(A.Status, ResponseStatus::Error);
    EXPECT_NE(A.Detail.find("unknown tenant"), std::string::npos) << A.Detail;
    for (size_t I = 1; I != 3; ++I)
      EXPECT_EQ(Fresh.call(makeDowngrade(Tenants[I])).Status,
                ResponseStatus::Ok)
          << Tenants[I].Name;
  }
}

TEST(DaemonRecovery, PolicySidecarSetsRecoveredPolicy) {
  // alpha answers `mid` at x = 50 with a 31-secret posterior: refused
  // under `size > 100`, admitted with no policy (-1).
  struct Case {
    const char *Meta;
    std::optional<int64_t> MinSize;
    ResponseStatus Answer;
  };
  for (const Case &C : {Case{"min-size 100\n", 100, ResponseStatus::Refused},
                        Case{"min-size -1\n", std::nullopt,
                             ResponseStatus::Ok}}) {
    SCOPED_TRACE(C.Meta);
    std::string Dir = seedThenEditAlphaSidecar("anosyd_meta_policy", C.Meta);
    MonitorDaemon Fresh(dirOptions(Dir));
    auto Rec = Fresh.start();
    ASSERT_TRUE(Rec.ok());
    EXPECT_EQ(Rec->TenantsRecovered, 3u);
    EXPECT_EQ(Rec->TenantsFailed, 0u);
    const AnosySession<Box> *Alpha = Fresh.tenantSession("alpha");
    ASSERT_NE(Alpha, nullptr);
    EXPECT_EQ(Alpha->tracker().policy().MinSize, C.MinSize);
    EXPECT_EQ(Fresh.call(makeDowngrade(Tenants[0])).Status, C.Answer);
  }
}
