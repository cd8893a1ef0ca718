#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/impliance.h"

namespace impliance::core {
namespace {

namespace fs = std::filesystem;
using model::MakeRecordDocument;
using model::MakeTextDocument;
using model::Value;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("impliance_sec_" + name + "_" +
               std::to_string(reinterpret_cast<uintptr_t>(this)))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  fs::path path_;
};

// --------------------------------------------------------- AccessController

TEST(AccessControllerTest, AdminCanReadEverything) {
  AccessController access;
  EXPECT_TRUE(access.CanRead(AccessController::kAdmin, "anything"));
  EXPECT_TRUE(access.HasPrincipal(AccessController::kAdmin));
}

TEST(AccessControllerTest, GrantsAndRevokes) {
  AccessController access;
  access.CreatePrincipal("alice");
  EXPECT_FALSE(access.CanRead("alice", "claims"));
  ASSERT_TRUE(access.GrantRead("alice", "claims").ok());
  EXPECT_TRUE(access.CanRead("alice", "claims"));
  EXPECT_FALSE(access.CanRead("alice", "orders"));
  ASSERT_TRUE(access.RevokeRead("alice", "claims").ok());
  EXPECT_FALSE(access.CanRead("alice", "claims"));
}

TEST(AccessControllerTest, WildcardGrant) {
  AccessController access;
  access.CreatePrincipal("auditor");
  ASSERT_TRUE(access.GrantRead("auditor", "*").ok());
  EXPECT_TRUE(access.CanRead("auditor", "claims"));
  EXPECT_TRUE(access.CanRead("auditor", "transcripts"));
}

TEST(AccessControllerTest, UnknownPrincipalDeniedEverywhere) {
  AccessController access;
  EXPECT_FALSE(access.CanRead("mallory", "anything"));
  EXPECT_TRUE(access.GrantRead("mallory", "x").IsNotFound());
  EXPECT_FALSE(access.HasPrincipal("mallory"));
}

// ----------------------------------------------------------------- AuditLog

TEST(AuditLogTest, RecordsAndQueriesBack) {
  AuditLog audit;
  audit.Record("alice", "keyword", "find claims", {1, 2, 3});
  audit.Record("bob", "sql", "SELECT *", {2});
  EXPECT_EQ(audit.size(), 2u);

  auto touching = audit.QueriesTouching(2);
  ASSERT_EQ(touching.size(), 2u);
  EXPECT_EQ(touching[0].principal, "alice");
  EXPECT_EQ(touching[1].principal, "bob");
  EXPECT_TRUE(audit.QueriesTouching(99).empty());

  auto by_alice = audit.ByPrincipal("alice");
  ASSERT_EQ(by_alice.size(), 1u);
  EXPECT_EQ(by_alice[0].interface, "keyword");
  EXPECT_GT(by_alice[0].seq, 0u);
}

TEST(AuditLogTest, KeepsOnlyTheMostRecentEntries) {
  AuditLog audit;
  obs::Counter* evicted = obs::Registry::Global().GetCounter("audit.evicted");
  const uint64_t evicted_before = evicted->Value();
  constexpr size_t kExtra = 100;
  constexpr size_t kTotal = AuditLog::kCapacity + kExtra;
  uint64_t last_seq = 0;
  for (size_t i = 0; i < kTotal; ++i) {
    // Document i is touched by query i only.
    const uint64_t seq = audit.Record(i % 2 == 0 ? "alice" : "bob", "get",
                                      std::to_string(i), {i});
    EXPECT_GT(seq, last_seq);
    last_seq = seq;
  }
  EXPECT_EQ(audit.size(), AuditLog::kCapacity);
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(evicted->Value() - evicted_before, kExtra);
  }

  // The newest entries survive, oldest first; the oldest are gone.
  const std::vector<AuditLog::Entry> by_bob = audit.ByPrincipal("bob");
  ASSERT_EQ(by_bob.size(), AuditLog::kCapacity / 2);
  EXPECT_EQ(by_bob.back().query, std::to_string(kTotal - 1));
  EXPECT_EQ(by_bob.back().seq, last_seq);
  EXPECT_EQ(by_bob.front().query, std::to_string(kExtra + 1));
  EXPECT_TRUE(audit.QueriesTouching(0).empty());
  EXPECT_TRUE(audit.QueriesTouching(kExtra - 1).empty());

  const std::vector<AuditLog::Entry> recent = audit.QueriesTouching(kTotal - 2);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].principal, "alice");
  EXPECT_EQ(recent[0].query, std::to_string(kTotal - 2));
  EXPECT_EQ(recent[0].seq, last_seq - 1);
  ASSERT_EQ(audit.QueriesTouching(kExtra).size(), 1u);
}

// ------------------------------------------------------- Facade integration

TEST(ImplianceSecurityTest, SearchFilteredByPrincipal) {
  TempDir dir("search");
  auto impliance = std::move(Impliance::Open({.data_dir = dir.path()})).value();
  ASSERT_TRUE(impliance
                  ->Infuse(MakeTextDocument("hr_review", "",
                                            "confidential salary memo"))
                  .ok());
  ASSERT_TRUE(impliance
                  ->Infuse(MakeTextDocument("newsletter", "",
                                            "public salary survey results"))
                  .ok());

  impliance->access_control().CreatePrincipal("intern");
  ASSERT_TRUE(
      impliance->access_control().GrantRead("intern", "newsletter").ok());

  // Admin sees both; intern sees only the newsletter.
  EXPECT_EQ(impliance->Search("salary", 10).size(), 2u);
  auto intern_hits = impliance->SearchAs("intern", "salary", 10);
  ASSERT_TRUE(intern_hits.ok());
  ASSERT_EQ(intern_hits->size(), 1u);
  EXPECT_EQ((*intern_hits)[0].kind, "newsletter");

  // Unknown principal is rejected outright.
  EXPECT_TRUE(impliance->SearchAs("nobody", "salary", 10)
                  .status().IsInvalidArgument());
}

TEST(ImplianceSecurityTest, SqlDeniedOnUnreadableKind) {
  TempDir dir("sql");
  auto impliance = std::move(Impliance::Open({.data_dir = dir.path()})).value();
  ASSERT_TRUE(impliance->InfuseContent("salaries", "name,amount\nada,100\n")
                  .ok());
  impliance->access_control().CreatePrincipal("intern");

  auto denied = impliance->SqlAs("intern", "SELECT amount FROM salaries");
  EXPECT_TRUE(denied.status().IsAborted());

  ASSERT_TRUE(
      impliance->access_control().GrantRead("intern", "salaries").ok());
  auto allowed = impliance->SqlAs("intern", "SELECT amount FROM salaries");
  ASSERT_TRUE(allowed.ok());
  EXPECT_EQ(allowed->size(), 1u);
}

TEST(ImplianceSecurityTest, GetAsEnforcesKindPolicy) {
  TempDir dir("get");
  auto impliance = std::move(Impliance::Open({.data_dir = dir.path()})).value();
  auto id = impliance->Infuse(MakeTextDocument("secret", "", "classified"));
  ASSERT_TRUE(id.ok());
  impliance->access_control().CreatePrincipal("intern");
  EXPECT_TRUE(impliance->GetAs("intern", *id).status().IsAborted());
  ASSERT_TRUE(impliance->access_control().GrantRead("intern", "secret").ok());
  EXPECT_TRUE(impliance->GetAs("intern", *id).ok());
}

TEST(ImplianceSecurityTest, QueriesAreAudited) {
  TempDir dir("audit");
  auto impliance = std::move(Impliance::Open({.data_dir = dir.path()})).value();
  auto id = impliance->Infuse(MakeTextDocument("memo", "", "project kestrel"));
  ASSERT_TRUE(id.ok());

  impliance->Search("kestrel", 5);
  ASSERT_TRUE(impliance->Sql("SELECT COUNT(*) FROM memo").ok());

  // Who touched this document?
  auto touching = impliance->audit_log().QueriesTouching(*id);
  ASSERT_EQ(touching.size(), 1u);  // the keyword search surfaced it
  EXPECT_EQ(touching[0].interface, "keyword");
  EXPECT_EQ(touching[0].principal, AccessController::kAdmin);
  EXPECT_EQ(touching[0].query, "kestrel");
  // SQL was audited too (without row-level ids).
  EXPECT_GE(impliance->audit_log().size(), 2u);
}

TEST(ImplianceSecurityTest, DeniedSqlIsAuditedAsDenied) {
  TempDir dir("audit_denied");
  auto impliance = std::move(Impliance::Open({.data_dir = dir.path()})).value();
  ASSERT_TRUE(impliance->InfuseContent("x", "a,b\n1,2\n").ok());
  impliance->access_control().CreatePrincipal("intern");
  EXPECT_FALSE(impliance->SqlAs("intern", "SELECT a FROM x").ok());
  auto entries = impliance->audit_log().ByPrincipal("intern");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].interface, "sql(denied)");
}

// ------------------------------------------------------------------ Lineage

TEST(ImplianceLineageTest, AnnotationTracesToBase) {
  TempDir dir("lineage");
  auto impliance = std::move(Impliance::Open({.data_dir = dir.path()})).value();
  auto base = impliance->Infuse(
      MakeTextDocument("email", "", "wire $99.00 to pay@acme.com"));
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(impliance->RunDiscovery().ok());

  auto annotations = impliance->AnnotationsFor(*base);
  ASSERT_FALSE(annotations.empty());

  auto lineage = impliance->Lineage(annotations[0].id);
  ASSERT_EQ(lineage.size(), 2u);
  EXPECT_EQ(lineage[0].doc, annotations[0].id);
  EXPECT_EQ(lineage[0].relation, "");
  EXPECT_EQ(lineage[1].doc, *base);
  EXPECT_EQ(lineage[1].relation, "annotates");

  // A base document's lineage is itself.
  auto base_lineage = impliance->Lineage(*base);
  ASSERT_EQ(base_lineage.size(), 1u);
  EXPECT_EQ(base_lineage[0].doc, *base);
}

}  // namespace
}  // namespace impliance::core
