// Tests for audit::InvariantAuditor: a healthy pipeline audits clean after
// real selections, and seeded corruptions are caught with the right
// violation class. The auditor is the only component that can see dense /
// hashed cache divergence from the outside, so its own detection power
// needs pinning.

#include "audit/auditor.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/recursive_selector.h"
#include "costmodel/cost_model.h"
#include "costmodel/what_if.h"
#include "workload/scalable_generator.h"

namespace idxsel::audit {
namespace {

class AuditFixture : public ::testing::Test {
 protected:
  AuditFixture() {
    workload::ScalableWorkloadParams params;
    params.num_tables = 2;
    params.attributes_per_table = 8;
    params.queries_per_table = 15;
    w_ = workload::GenerateScalableWorkload(params);
    model_ = std::make_unique<costmodel::CostModel>(&w_);
    backend_ = std::make_unique<costmodel::ModelBackend>(model_.get());
  }

  workload::Workload w_;
  std::unique_ptr<costmodel::CostModel> model_;
  std::unique_ptr<costmodel::ModelBackend> backend_;
};

TEST_F(AuditFixture, FreshEngineAuditsClean) {
  costmodel::WhatIfEngine engine(&w_, backend_.get());
  const InvariantAuditor auditor(&engine);
  const AuditReport report = auditor.AuditAll();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.ids_checked, 0u);  // posting lists always audited
}

TEST_F(AuditFixture, PostingListsAuditClean) {
  costmodel::WhatIfEngine engine(&w_, backend_.get());
  const InvariantAuditor auditor(&engine);
  const AuditReport report = auditor.AuditPostingLists();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.ids_checked, w_.num_attributes());
}

TEST_F(AuditFixture, SelectionLeavesCoherentCaches) {
  // Drive the real pipeline (which also exercises the in-loop audit hook
  // when the build runs !NDEBUG), then audit the final cache state.
  costmodel::WhatIfEngine engine(&w_, backend_.get());
  core::RecursiveOptions opts;
  opts.budget = 1e7;
  (void)core::SelectRecursive(engine, opts);
  const InvariantAuditor auditor(&engine);
  const AuditReport report = auditor.AuditAll();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST_F(AuditFixture, ReportSummaryAndMergeAccumulate) {
  AuditReport a;
  a.ids_checked = 2;
  EXPECT_TRUE(a.ok());
  EXPECT_NE(a.Summary().find("audit ok"), std::string::npos);
  a.AddViolation("first");
  AuditReport b;
  b.slots_checked = 3;
  b.AddViolation("second");
  a.Merge(b);
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.violation_count, 2u);
  EXPECT_EQ(a.slots_checked, 3u);
  const std::string summary = a.Summary();
  EXPECT_NE(summary.find("first"), std::string::npos);
  EXPECT_NE(summary.find("second"), std::string::npos);
}

TEST(AuditGateTest, ScopedToggleRestores) {
  const bool before = Enabled();
  {
    ScopedAuditEnabled on(true);
    EXPECT_TRUE(Enabled());
    {
      ScopedAuditEnabled off(false);
      EXPECT_FALSE(Enabled());
    }
    EXPECT_TRUE(Enabled());
  }
  EXPECT_EQ(Enabled(), before);
}

TEST_F(AuditFixture, CorruptArenaTupleIsCaught) {
  costmodel::WhatIfEngine engine(&w_, backend_.get());
  // A duplicated attribute violates the tuple invariant the masks rely
  // on. Interning it through the public arena handle simulates a buggy
  // candidate generator slipping a malformed index into the dense path.
  const workload::AttributeId dup[2] = {0, 0};
  engine.arena().Intern(dup, 2);
  const InvariantAuditor auditor(&engine);
  const AuditReport report = auditor.AuditArenaMasks();
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.violations.empty());
  EXPECT_NE(report.violations[0].find("repeats attribute"),
            std::string::npos)
      << report.Summary();
}

TEST_F(AuditFixture, DenseCostSlotsMatchHashedCacheBitForBit) {
  costmodel::WhatIfEngine engine(&w_, backend_.get());
  // Touch a few dense slots through the public fast path, then verify the
  // auditor actually walked them (slots_checked > 0) and found twins.
  const workload::AttributeId a = w_.query(0).attributes.front();
  const kernel::IndexId id = engine.arena().Intern(&a, 1);
  const auto& posting = w_.queries_with(a);
  for (uint32_t slot = 0; slot < posting.size(); ++slot) {
    engine.CostWithIndexDense(posting[slot], id, slot);
  }
  const InvariantAuditor auditor(&engine);
  const AuditReport report = auditor.AuditCostTables();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.slots_checked, posting.size());
}

}  // namespace
}  // namespace idxsel::audit
