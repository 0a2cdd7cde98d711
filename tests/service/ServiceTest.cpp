//===- tests/service/ServiceTest.cpp - anosyd unit tests ------------------===//
//
// Deterministic (manual-pump mode, no threads) tests of the daemon's
// vocabulary, front door, bounded-queue shedding, deadlines, quotas,
// machine-readable reason codes, and flush/restart persistence, plus one
// registration deadline met on a worker thread.
//
//===----------------------------------------------------------------------===//

#include "service/Daemon.h"

#include "core/Degradation.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <thread>

using namespace anosy;
using namespace anosy::service;

namespace {

struct FaultScope {
  ~FaultScope() { faults::reset(); }
};

/// TempDir() persists across test invocations, so tests that use a data
/// directory scrub it first — leftover tenant KBs from a previous run
/// would collide with this run's registrations at salvage time.
std::string freshDir(const std::string &Name) {
  std::string Dir = testing::TempDir() + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

const char *TinyModule = R"(
secret S { x: int[0, 60] }
query high = x >= 30
classify band = if x < 20 then 0 else if x < 40 then 1 else 2
)";

/// A daemon in manual-pump mode: no worker threads, so every test
/// observation is deterministic.
DaemonOptions pumpOptions(size_t QueueCapacity = 16) {
  DaemonOptions Opt;
  Opt.Workers = 0;
  Opt.QueueCapacity = QueueCapacity;
  return Opt;
}

ServiceRequest registerRequest(const std::string &Tenant,
                               const char *Source = TinyModule,
                               int64_t MinSize = -1) {
  ServiceRequest R;
  R.Kind = RequestKind::Register;
  R.Tenant = Tenant;
  R.ModuleSource = Source;
  R.MinSize = MinSize;
  return R;
}

ServiceRequest downgradeRequest(const std::string &Tenant,
                                const std::string &Name, Point Secret) {
  ServiceRequest R;
  R.Kind = RequestKind::Downgrade;
  R.Tenant = Tenant;
  R.Name = Name;
  R.Secret = std::move(Secret);
  return R;
}

} // namespace

// === Vocabulary =========================================================

TEST(ServiceVocabulary, Names) {
  EXPECT_STREQ(requestKindName(RequestKind::Register), "register");
  EXPECT_STREQ(requestKindName(RequestKind::Downgrade), "downgrade");
  EXPECT_STREQ(requestKindName(RequestKind::Classify), "classify");
  EXPECT_STREQ(requestKindName(RequestKind::Flush), "flush");
  EXPECT_STREQ(responseStatusName(ResponseStatus::Ok), "ok");
  EXPECT_STREQ(responseStatusName(ResponseStatus::Refused), "refused");
  EXPECT_STREQ(responseStatusName(ResponseStatus::Bottom), "bottom");
  EXPECT_STREQ(responseStatusName(ResponseStatus::Overloaded), "overloaded");
  EXPECT_STREQ(responseStatusName(ResponseStatus::Error), "error");
}

TEST(ServiceVocabulary, ReasonCodeNames) {
  EXPECT_STREQ(reasonCodeName(ReasonCode::None), "none");
  EXPECT_STREQ(reasonCodeName(ReasonCode::Deadline), "deadline");
  EXPECT_STREQ(reasonCodeName(ReasonCode::Budget), "budget");
  EXPECT_STREQ(reasonCodeName(ReasonCode::Shed), "shed");
  EXPECT_STREQ(reasonCodeName(ReasonCode::StaticallyRejected),
               "statically-rejected");
  EXPECT_STREQ(reasonCodeName(ReasonCode::Undecided), "undecided");
  EXPECT_STREQ(reasonCodeName(ReasonCode::KbCorrupt), "kb-corrupt");
  EXPECT_STREQ(reasonCodeName(ReasonCode::ArtifactInvalid),
               "artifact-invalid");
}

// The satellite-6 regression: every ⊥ fallback must map to the right
// machine-readable code, and the deadline/budget split is carried by
// DeadlineExpired, not guessed from prose.
TEST(ServiceVocabulary, DegradationReasonCodeMapping) {
  QueryDegradation D{"q", DegradationReason::SynthesisExhausted, 3, true,
                     ""};
  EXPECT_EQ(D.code(), ReasonCode::Budget);
  D.DeadlineExpired = true;
  EXPECT_EQ(D.code(), ReasonCode::Deadline);

  D.Reason = DegradationReason::VerificationUndecided;
  EXPECT_EQ(D.code(), ReasonCode::Deadline);
  D.DeadlineExpired = false;
  EXPECT_EQ(D.code(), ReasonCode::Undecided);

  D.Reason = DegradationReason::KnowledgeBaseCorrupt;
  EXPECT_EQ(D.code(), ReasonCode::KbCorrupt);
  D.Reason = DegradationReason::LoadedArtifactInvalid;
  EXPECT_EQ(D.code(), ReasonCode::ArtifactInvalid);
  D.Reason = DegradationReason::StaticallyRejected;
  EXPECT_EQ(D.code(), ReasonCode::StaticallyRejected);

  // The human-readable rendering carries the code too.
  EXPECT_NE(D.str().find("[code=statically-rejected]"), std::string::npos);
}

TEST(ServiceVocabulary, RenderJsonShapes) {
  ServiceResponse R;
  R.Id = 7;
  R.Status = ResponseStatus::Ok;
  R.HasBool = true;
  R.BoolValue = true;
  EXPECT_EQ(R.renderJson(), "{\"id\":7,\"status\":\"ok\",\"value\":true}");

  ServiceResponse B;
  B.Id = 8;
  B.Status = ResponseStatus::Bottom;
  B.Reason = ReasonCode::Deadline;
  EXPECT_EQ(B.renderJson(),
            "{\"id\":8,\"status\":\"bottom\",\"reason\":\"deadline\"}");

  ServiceResponse S;
  S.Id = 9;
  S.Status = ResponseStatus::Overloaded;
  S.Reason = ReasonCode::Shed;
  S.Detail = "queue \"full\"";
  EXPECT_EQ(S.renderJson(), "{\"id\":9,\"status\":\"overloaded\",\"reason\":"
                            "\"shed\",\"detail\":\"queue \\\"full\\\"\"}");

  ServiceResponse Reg;
  Reg.Id = 10;
  Reg.Status = ResponseStatus::Ok;
  Reg.Queries = 2;
  Reg.Classifiers = 1;
  Reg.Degraded.push_back({"q1", ReasonCode::Budget, true});
  EXPECT_EQ(Reg.renderJson(),
            "{\"id\":10,\"status\":\"ok\",\"queries\":2,\"classifiers\":1,"
            "\"degraded\":[{\"query\":\"q1\",\"code\":\"budget\","
            "\"bottom\":true}]}");
}

// === Front door and execution ===========================================

TEST(MonitorDaemon, RegisterDowngradeClassify) {
  MonitorDaemon D(pumpOptions());
  ASSERT_TRUE(D.start().ok());

  ServiceResponse Reg = D.call(registerRequest("acme"));
  ASSERT_EQ(Reg.Status, ResponseStatus::Ok) << Reg.Detail;
  EXPECT_EQ(Reg.Queries, 1u);
  EXPECT_EQ(Reg.Classifiers, 1u);
  EXPECT_TRUE(Reg.Degraded.empty()) << Reg.renderJson();

  ServiceResponse Hi = D.call(downgradeRequest("acme", "high", {45}));
  ASSERT_EQ(Hi.Status, ResponseStatus::Ok) << Hi.Detail;
  ASSERT_TRUE(Hi.HasBool);
  EXPECT_TRUE(Hi.BoolValue);

  ServiceResponse Lo = D.call(downgradeRequest("acme", "high", {3}));
  ASSERT_EQ(Lo.Status, ResponseStatus::Ok) << Lo.Detail;
  ASSERT_TRUE(Lo.HasBool);
  EXPECT_FALSE(Lo.BoolValue);

  ServiceRequest C;
  C.Kind = RequestKind::Classify;
  C.Tenant = "acme";
  C.Name = "band";
  C.Secret = {25};
  ServiceResponse Band = D.call(std::move(C));
  ASSERT_EQ(Band.Status, ResponseStatus::Ok) << Band.Detail;
  ASSERT_TRUE(Band.HasInt);
  EXPECT_EQ(Band.IntValue, 1);

  DaemonStats St = D.stats();
  EXPECT_EQ(St.Ok, 4u);
  EXPECT_EQ(St.Shed, 0u);
  EXPECT_EQ(St.Errors, 0u);
}

TEST(MonitorDaemon, FrontDoorRejections) {
  MonitorDaemon D(pumpOptions());
  ASSERT_TRUE(D.start().ok());

  // Unknown tenants never reach the queue.
  ServiceResponse Unknown = D.call(downgradeRequest("ghost", "high", {1}));
  EXPECT_EQ(Unknown.Status, ResponseStatus::Error);
  EXPECT_NE(Unknown.Detail.find("unknown tenant"), std::string::npos);

  // Unparseable modules are refused at the door, not at execution.
  ServiceResponse Bad = D.call(registerRequest("bad", "query = = ="));
  EXPECT_EQ(Bad.Status, ResponseStatus::Error);
  EXPECT_NE(Bad.Detail.find("front door"), std::string::npos);

  // So are modules whose arithmetic can leave int64 (the parser's int64
  // rule): registered, this one's certificates would contradict its own
  // runtime answers.
  ServiceResponse Wide = D.call(registerRequest(
      "wide", "secret S { x: int[-3, 3] }\n"
              "query q = x * 4611686018427387904 >= 0\n",
      1));
  EXPECT_EQ(Wide.Status, ResponseStatus::Error);
  EXPECT_NE(Wide.Detail.find("query 'q'"), std::string::npos) << Wide.Detail;
  EXPECT_NE(Wide.Detail.find("int64"), std::string::npos) << Wide.Detail;

  // Duplicate tenants are refused.
  ASSERT_EQ(D.call(registerRequest("acme")).Status, ResponseStatus::Ok);
  ServiceResponse Dup = D.call(registerRequest("acme"));
  EXPECT_EQ(Dup.Status, ResponseStatus::Error);
  EXPECT_NE(Dup.Detail.find("already registered"), std::string::npos);

  // Unknown query names are sound refusals (the hostile-trace path).
  ServiceResponse NoQ = D.call(downgradeRequest("acme", "nope", {1}));
  EXPECT_EQ(NoQ.Status, ResponseStatus::Refused);
}

TEST(MonitorDaemon, TenantNamesStayInsideTheDataDirectory) {
  // A tenant name becomes a file stem under the data directory, so a
  // Register whose name is not 1-64 bytes of [A-Za-z0-9_-] is refused
  // before its module is parsed: it writes nothing and installs nothing.
  std::string Root = freshDir("anosyd_tenant_names");
  DaemonOptions Opt = pumpOptions();
  Opt.DataDir = Root + "/data";
  MonitorDaemon D(Opt);
  ASSERT_TRUE(D.start().ok());
  for (const std::string &Bad : {std::string("../evil"), std::string("a/b"),
                                 std::string(".hidden"),
                                 std::string(65, 'a')}) {
    ServiceResponse R = D.call(registerRequest(Bad));
    EXPECT_EQ(R.Status, ResponseStatus::Error) << Bad;
    EXPECT_NE(R.Detail.find("invalid tenant name"), std::string::npos)
        << R.Detail;
  }
  EXPECT_TRUE(D.tenantNames().empty());

  ServiceResponse Ok = D.call(registerRequest("acme_1-x"));
  ASSERT_EQ(Ok.Status, ResponseStatus::Ok) << Ok.Detail;
  EXPECT_EQ(D.tenantNames(), std::vector<std::string>{"acme_1-x"});
  std::vector<std::string> Files;
  for (const auto &E : std::filesystem::recursive_directory_iterator(Root))
    if (!E.is_directory())
      Files.push_back(std::filesystem::relative(E.path(), Root).string());
  std::sort(Files.begin(), Files.end());
  EXPECT_EQ(Files, (std::vector<std::string>{"data/acme_1-x.akb",
                                             "data/acme_1-x.meta"}));
}

TEST(MonitorDaemon, QueueFullShedsDeterministically) {
  MonitorDaemon D(pumpOptions(/*QueueCapacity=*/4));
  ASSERT_TRUE(D.start().ok());
  ASSERT_EQ(D.call(registerRequest("acme")).Status, ResponseStatus::Ok);

  // Ten submissions against a capacity-4 queue with no pump in between:
  // exactly 4 enqueue, exactly 6 shed, and the shed futures are resolved
  // immediately (never a hang).
  std::vector<std::future<ServiceResponse>> Futs;
  for (int I = 0; I != 10; ++I)
    Futs.push_back(D.submit(downgradeRequest("acme", "high", {45})));
  EXPECT_EQ(D.queueDepth(), 4u);

  unsigned Shed = 0;
  for (auto &F : Futs)
    if (F.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      ServiceResponse R = F.get();
      EXPECT_EQ(R.Status, ResponseStatus::Overloaded);
      EXPECT_EQ(R.Reason, ReasonCode::Shed);
      ++Shed;
    }
  EXPECT_EQ(Shed, 6u);
  EXPECT_EQ(D.stats().Shed, 6u);

  // The pump resolves the backlog; every queued request answers Ok.
  EXPECT_EQ(D.pump(), 4u);
  EXPECT_EQ(D.queueDepth(), 0u);
  EXPECT_EQ(D.stats().Ok, 5u); // register + 4 queued downgrades
}

TEST(MonitorDaemon, TenantInFlightQuotaSheds) {
  DaemonOptions Opt = pumpOptions();
  Opt.Quotas.MaxInFlight = 2;
  MonitorDaemon D(Opt);
  ASSERT_TRUE(D.start().ok());
  ASSERT_EQ(D.call(registerRequest("acme")).Status, ResponseStatus::Ok);

  auto F1 = D.submit(downgradeRequest("acme", "high", {45}));
  auto F2 = D.submit(downgradeRequest("acme", "high", {45}));
  auto F3 = D.submit(downgradeRequest("acme", "high", {45}));
  ServiceResponse R3 = F3.get();
  EXPECT_EQ(R3.Status, ResponseStatus::Overloaded);
  EXPECT_NE(R3.Detail.find("quota"), std::string::npos);
  D.pump();
  EXPECT_EQ(F1.get().Status, ResponseStatus::Ok);
  EXPECT_EQ(F2.get().Status, ResponseStatus::Ok);

  // In-flight is released after execution: the tenant serves again.
  EXPECT_EQ(D.call(downgradeRequest("acme", "high", {45})).Status,
            ResponseStatus::Ok);
}

TEST(MonitorDaemon, KnowledgeBaseQuotaRejectsRegistration) {
  DaemonOptions Opt = pumpOptions();
  Opt.Quotas.MaxKbBytes = 16; // no real KB fits
  MonitorDaemon D(Opt);
  ASSERT_TRUE(D.start().ok());
  ServiceResponse R = D.call(registerRequest("acme"));
  EXPECT_EQ(R.Status, ResponseStatus::Error);
  EXPECT_NE(R.Detail.find("quota exceeded"), std::string::npos);
  EXPECT_TRUE(D.tenantNames().empty());
}

TEST(MonitorDaemon, DeadlineExpiredInQueueAnswersBottom) {
  MonitorDaemon D(pumpOptions());
  ASSERT_TRUE(D.start().ok());
  ASSERT_EQ(D.call(registerRequest("acme")).Status, ResponseStatus::Ok);

  ServiceRequest R = downgradeRequest("acme", "high", {45});
  R.DeadlineMs = 1;
  auto F = D.submit(std::move(R));
  // Let the deadline lapse while the request sits in the queue; the pump
  // must answer ⊥/deadline without executing it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  D.pump();
  ServiceResponse Resp = F.get();
  EXPECT_EQ(Resp.Status, ResponseStatus::Bottom);
  EXPECT_EQ(Resp.Reason, ReasonCode::Deadline);
  EXPECT_FALSE(Resp.HasBool);
  EXPECT_EQ(D.stats().DeadlineExpired, 1u);
}

TEST(MonitorDaemon, WorkerRegistrationStopsAtItsDeadline) {
  // No thread watches a registration: its own solver charges read the
  // clock. A 200-term sum registers once without a deadline, then again
  // with a quarter of that time as its deadline: the front door and the
  // queue stay well inside it (sanitizers slow them down as much as the
  // solver), and the solver stops on the worker, coded `deadline`.
  std::string Src = "secret S { x: int[0, 100000], y: int[0, 100000] }\n"
                    "query longsum = x";
  for (unsigned I = 1; I != 200; ++I)
    Src += I % 2 != 0 ? " + y" : " + x";
  Src += " <= 5000007\n";

  DaemonOptions Opt;
  Opt.Workers = 1;
  MonitorDaemon D(Opt);
  ASSERT_TRUE(D.start().ok());
  ServiceResponse Free = D.call(registerRequest("free", Src.c_str()));
  ASSERT_EQ(Free.Status, ResponseStatus::Ok) << Free.Detail;
  ASSERT_TRUE(Free.Degraded.empty()) << Free.renderJson();

  ServiceRequest R = registerRequest("acme", Src.c_str());
  R.DeadlineMs = std::max<uint64_t>(1, Free.Seconds * 1000 / 4);
  ServiceResponse Reg = D.call(std::move(R));
  ASSERT_EQ(Reg.Status, ResponseStatus::Ok) << Reg.Detail;
  ASSERT_EQ(Reg.Degraded.size(), 1u) << Reg.renderJson();
  EXPECT_EQ(Reg.Degraded[0].Name, "longsum");
  EXPECT_EQ(Reg.Degraded[0].Code, ReasonCode::Deadline) << Reg.renderJson();
}

// === Reason codes on degraded artifacts (satellite 6) ===================

TEST(MonitorDaemon, StaticallyRejectedCarriesReasonCode) {
  // Both posteriors of `high` over a 10-point domain sit far below the
  // min-size-100 policy, so lint admission rejects it before synthesis;
  // the registration reports the ⊥ artifact with its code, and the
  // downgrade answers Bottom with the same code.
  const char *Narrow = R"(
secret S { x: int[0, 9] }
query high = x >= 5
)";
  MonitorDaemon D(pumpOptions());
  ASSERT_TRUE(D.start().ok());
  ServiceResponse Reg = D.call(registerRequest("acme", Narrow, 100));
  ASSERT_EQ(Reg.Status, ResponseStatus::Ok) << Reg.Detail;
  ASSERT_EQ(Reg.Degraded.size(), 1u);
  EXPECT_EQ(Reg.Degraded[0].Name, "high");
  EXPECT_EQ(Reg.Degraded[0].Code, ReasonCode::StaticallyRejected);
  EXPECT_TRUE(Reg.Degraded[0].FellBack);
  EXPECT_NE(Reg.renderJson().find("\"code\":\"statically-rejected\""),
            std::string::npos);

  ServiceResponse R = D.call(downgradeRequest("acme", "high", {7}));
  EXPECT_EQ(R.Status, ResponseStatus::Bottom);
  EXPECT_EQ(R.Reason, ReasonCode::StaticallyRejected);
  EXPECT_NE(R.renderJson().find("\"reason\":\"statically-rejected\""),
            std::string::npos);
}

TEST(MonitorDaemon, BudgetExhaustionCarriesBudgetCode) {
  // A 1-node session budget exhausts synthesis instantly; without a
  // wall-clock deadline the ⊥ must be coded "budget", not "deadline".
  DaemonOptions Opt = pumpOptions();
  Opt.Session.MaxSessionNodes = 1;
  MonitorDaemon D(Opt);
  ASSERT_TRUE(D.start().ok());
  ServiceResponse Reg = D.call(registerRequest("acme"));
  ASSERT_EQ(Reg.Status, ResponseStatus::Ok) << Reg.Detail;
  ASSERT_FALSE(Reg.Degraded.empty());
  bool SawBudget = false;
  for (const DegradedQueryJson &Q : Reg.Degraded) {
    EXPECT_NE(Q.Code, ReasonCode::Deadline) << Q.Name;
    if (Q.Code == ReasonCode::Budget)
      SawBudget = true;
  }
  EXPECT_TRUE(SawBudget) << Reg.renderJson();
}

// === Persistence across restart =========================================

TEST(MonitorDaemon, FlushAndRestartSalvage) {
  std::string Dir = freshDir("anosyd_restart_test");
  DaemonOptions Opt = pumpOptions();
  Opt.DataDir = Dir;

  ServiceResponse FirstAnswer;
  {
    MonitorDaemon D(Opt);
    ASSERT_TRUE(D.start().ok());
    ASSERT_EQ(D.call(registerRequest("acme", TinyModule, 8)).Status,
              ResponseStatus::Ok);
    FirstAnswer = D.call(downgradeRequest("acme", "high", {45}));
    ASSERT_EQ(FirstAnswer.Status, ResponseStatus::Ok);
    DrainReport Drain = D.drain();
    EXPECT_EQ(Drain.TenantsFlushed, 1u);
    EXPECT_EQ(Drain.FlushFailures, 0u);
  }

  // A fresh daemon over the same data directory recovers the tenant —
  // same policy (from the sidecar), same answers, no resynthesis needed.
  MonitorDaemon D2(Opt);
  auto Rec = D2.start();
  ASSERT_TRUE(Rec.ok());
  ASSERT_EQ(Rec->TenantsRecovered, 1u);
  EXPECT_EQ(Rec->TenantsFailed, 0u);
  EXPECT_EQ(Rec->DamagedRecords, 0u);
  ASSERT_EQ(Rec->Tenants.size(), 1u);
  EXPECT_EQ(Rec->Tenants[0].Tenant, "acme");

  ServiceResponse Again = D2.call(downgradeRequest("acme", "high", {45}));
  ASSERT_EQ(Again.Status, ResponseStatus::Ok) << Again.Detail;
  EXPECT_EQ(Again.BoolValue, FirstAnswer.BoolValue);
}

TEST(MonitorDaemon, DrainIsIdempotentAndStopsIntake) {
  MonitorDaemon D(pumpOptions());
  ASSERT_TRUE(D.start().ok());
  ASSERT_EQ(D.call(registerRequest("acme")).Status, ResponseStatus::Ok);
  DrainReport First = D.drain();
  DrainReport Second = D.drain();
  EXPECT_EQ(First.Drained, Second.Drained);

  // Post-drain submissions are refused as Overloaded/shed, not hung.
  ServiceResponse R = D.call(downgradeRequest("acme", "high", {45}));
  EXPECT_EQ(R.Status, ResponseStatus::Overloaded);
  EXPECT_EQ(R.Reason, ReasonCode::Shed);
  EXPECT_NE(R.Detail.find("draining"), std::string::npos);
}

TEST(MonitorDaemon, OutOfSchemaSecretIsRefusedNotFatal) {
  // A secret outside the tenant's schema (or with the wrong arity) is a
  // malformed request; the tracker layer asserts on such points, so the
  // daemon must refuse them at the front line instead of crashing.
  MonitorDaemon Daemon(pumpOptions());
  ASSERT_TRUE(Daemon.start().ok());
  ASSERT_EQ(Daemon.call(registerRequest("acme")).Status, ResponseStatus::Ok);

  ServiceResponse R = Daemon.call(downgradeRequest("acme", "high", {400}));
  EXPECT_EQ(R.Status, ResponseStatus::Refused);
  EXPECT_NE(R.Detail.find("schema"), std::string::npos) << R.Detail;

  R = Daemon.call(downgradeRequest("acme", "high", {1, 2}));
  EXPECT_EQ(R.Status, ResponseStatus::Refused);

  // The daemon is unharmed: a well-formed request still answers.
  R = Daemon.call(downgradeRequest("acme", "high", {45}));
  EXPECT_EQ(R.Status, ResponseStatus::Ok);
  EXPECT_TRUE(R.BoolValue);
}
