// Tests for the column store, composite indexes, the executor (against a
// naive row-at-a-time reference), and the measured cost source.

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/btree_index.h"
#include "engine/column_store.h"
#include "engine/composite_index.h"
#include "engine/executor.h"
#include "engine/measured_cost.h"
#include "workload/scalable_generator.h"

namespace idxsel::engine {
namespace {

/// Ground truth: row-at-a-time evaluation of conjunctive equality.
uint64_t ReferenceCount(const ColumnTable& table,
                        const std::vector<Predicate>& predicates) {
  uint64_t matches = 0;
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    bool all = true;
    for (const Predicate& p : predicates) {
      all = all && table.at(p.column, r) == p.value;
    }
    matches += all;
  }
  return matches;
}

class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture() : rng_(42), table_(5000, {50, 8, 3, 500}, rng_) {}

  Executor MakeExecutor() { return Executor(&table_, {50, 8, 3, 500}); }

  Rng rng_;
  ColumnTable table_;
};

TEST_F(EngineFixture, ColumnTableShape) {
  EXPECT_EQ(table_.num_rows(), 5000u);
  EXPECT_EQ(table_.num_columns(), 4u);
  EXPECT_EQ(table_.memory_bytes(), 4u * 5000u * sizeof(uint32_t));
}

TEST_F(EngineFixture, ValuesWithinDistinctRange) {
  const uint32_t limits[] = {50, 8, 3, 500};
  for (size_t c = 0; c < 4; ++c) {
    for (uint32_t r = 0; r < table_.num_rows(); ++r) {
      EXPECT_LT(table_.at(c, r), limits[c]);
    }
  }
}

TEST_F(EngineFixture, CompositeIndexIsSortedPermutation) {
  const CompositeIndex index(&table_, {0, 1});
  // Probe the full domain; the union of probes must cover every row once.
  uint64_t covered = 0;
  for (uint32_t v0 = 0; v0 < 50; ++v0) {
    const std::vector<uint32_t> key = {v0};
    covered += index.Probe(key).size();
  }
  EXPECT_EQ(covered, table_.num_rows());
}

TEST_F(EngineFixture, ProbeMatchesReference) {
  const CompositeIndex index(&table_, {0, 1});
  for (uint32_t v0 = 0; v0 < 50; v0 += 7) {
    for (uint32_t v1 = 0; v1 < 8; v1 += 3) {
      const std::vector<uint32_t> key = {v0, v1};
      const auto span = index.Probe(key);
      const uint64_t expected =
          ReferenceCount(table_, {{0, v0}, {1, v1}});
      EXPECT_EQ(span.size(), expected) << v0 << "," << v1;
      for (uint32_t row : span) {
        EXPECT_EQ(table_.at(0, row), v0);
        EXPECT_EQ(table_.at(1, row), v1);
      }
    }
  }
}

TEST_F(EngineFixture, ProbePrefixOnly) {
  const CompositeIndex index(&table_, {2, 3});
  const std::vector<uint32_t> key = {1};  // prefix of width 1
  const auto span = index.Probe(key);
  EXPECT_EQ(span.size(), ReferenceCount(table_, {{2, 1}}));
}

TEST_F(EngineFixture, ProbeMissingKeyIsEmpty) {
  const CompositeIndex index(&table_, {1});
  const std::vector<uint32_t> key = {999};  // outside the domain
  EXPECT_EQ(index.Probe(key).size(), 0u);
}

TEST_F(EngineFixture, IndexMemoryGrowsWithWidth) {
  const CompositeIndex narrow(&table_, {0});
  const CompositeIndex wide(&table_, {0, 1, 2});
  EXPECT_LT(narrow.memory_bytes(), wide.memory_bytes());
}

TEST_F(EngineFixture, ScanOnlyMatchesReference) {
  const Executor executor = MakeExecutor();
  const std::vector<Predicate> predicates = {{0, 3}, {1, 2}};
  const ExecutionResult result = executor.ScanOnly(predicates);
  EXPECT_EQ(result.matches, ReferenceCount(table_, predicates));
  EXPECT_GE(result.rows_touched, table_.num_rows());
}

TEST_F(EngineFixture, WithIndexMatchesReference) {
  const Executor executor = MakeExecutor();
  const CompositeIndex index(&table_, {3, 0});
  const std::vector<Predicate> predicates = {{0, 3}, {3, 17}, {2, 1}};
  const ExecutionResult result = executor.WithIndex(predicates, index);
  EXPECT_EQ(result.matches, ReferenceCount(table_, predicates));
  // Index prefix (3, 0) is fully constrained: far fewer rows touched than
  // the full scan.
  EXPECT_LT(result.rows_touched, table_.num_rows());
}

TEST_F(EngineFixture, CoverablePrefixComputation) {
  const CompositeIndex index(&table_, {3, 0, 1});
  EXPECT_EQ(Executor::CoverablePrefix({{3, 1}}, index), 1u);
  EXPECT_EQ(Executor::CoverablePrefix({{3, 1}, {0, 2}}, index), 2u);
  EXPECT_EQ(Executor::CoverablePrefix({{0, 2}}, index), 0u);  // leading gap
  EXPECT_EQ(Executor::CoverablePrefix({{3, 1}, {1, 2}}, index), 1u);
}

TEST_F(EngineFixture, SelectiveIndexTouchesFewerRowsThanScan) {
  const Executor executor = MakeExecutor();
  const CompositeIndex index(&table_, {3});
  const std::vector<Predicate> predicates = {{3, 42}};
  const ExecutionResult scan = executor.ScanOnly(predicates);
  const ExecutionResult probe = executor.WithIndex(predicates, index);
  EXPECT_EQ(scan.matches, probe.matches);
  EXPECT_LT(probe.rows_touched, scan.rows_touched / 10);
}

// ------------------------------------------------------------- database

TEST(DatabaseTest, ScalesRowsAndClampsDistinct) {
  workload::ScalableWorkloadParams params;
  params.num_tables = 2;
  params.attributes_per_table = 5;
  params.queries_per_table = 5;
  params.rows_per_table_step = 1'000'000;
  const workload::Workload w = workload::GenerateScalableWorkload(params);
  const Database db(&w, /*max_rows_per_table=*/10'000, /*seed=*/1);
  EXPECT_EQ(db.rows(0), 10'000u);
  EXPECT_EQ(db.rows(1), 10'000u);
  for (workload::AttributeId a = 0; a < w.num_attributes(); ++a) {
    const auto& col = db.table(w.attribute(a).table).column(db.ordinal(a));
    const uint32_t max_value = *std::max_element(col.begin(), col.end());
    EXPECT_LT(max_value, 10'000u);
  }
}

// Property sweep: random tables, random plans — every access path agrees
// with the row-at-a-time reference.
class ExecutorFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorFuzzTest, AllAccessPathsAgree) {
  Rng rng(GetParam());
  const uint64_t rows = static_cast<uint64_t>(1000 + rng.UniformInt(0, 4000));
  std::vector<uint32_t> domains;
  const size_t num_cols = static_cast<size_t>(rng.UniformInt(2, 5));
  for (size_t c = 0; c < num_cols; ++c) {
    domains.push_back(static_cast<uint32_t>(rng.UniformInt(2, 200)));
  }
  const ColumnTable table(rows, domains, rng);
  const Executor executor(&table, domains);

  for (int round = 0; round < 20; ++round) {
    // Random conjunctive predicate set over distinct columns.
    std::vector<Predicate> predicates;
    for (size_t c = 0; c < num_cols; ++c) {
      if (rng.NextDouble() < 0.5) continue;
      predicates.push_back(Predicate{
          static_cast<uint32_t>(c),
          static_cast<uint32_t>(rng.UniformInt(0, domains[c]))});
    }
    if (predicates.empty()) {
      predicates.push_back(Predicate{0, 0});
    }
    const uint64_t expected = ReferenceCount(table, predicates);
    EXPECT_EQ(executor.ScanOnly(predicates).matches, expected);

    // Random index over a permutation of some columns; run it through both
    // physical representations when applicable.
    std::vector<uint32_t> index_cols;
    for (size_t c = 0; c < num_cols; ++c) {
      index_cols.push_back(static_cast<uint32_t>(c));
    }
    for (size_t c = index_cols.size(); c > 1; --c) {
      std::swap(index_cols[c - 1],
                index_cols[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int64_t>(c) - 1))]);
    }
    index_cols.resize(static_cast<size_t>(
        rng.UniformInt(1, static_cast<int64_t>(index_cols.size()))));
    const CompositeIndex composite(&table, index_cols);
    const BTreeIndex btree(&table, index_cols);
    if (Executor::CoverablePrefix(predicates, composite) >= 1) {
      EXPECT_EQ(executor.WithIndex(predicates, composite).matches, expected)
          << "seed=" << GetParam() << " round=" << round;
      EXPECT_EQ(executor.WithIndex(predicates, btree).matches, expected)
          << "seed=" << GetParam() << " round=" << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

// ----------------------------------------------------- measured cost source

class MeasuredFixture : public ::testing::Test {
 protected:
  MeasuredFixture() {
    workload::ScalableWorkloadParams params;
    params.num_tables = 2;
    params.attributes_per_table = 6;
    params.queries_per_table = 8;
    params.rows_per_table_step = 20'000;
    w_ = workload::GenerateScalableWorkload(params);
    db_ = std::make_unique<Database>(&w_, 20'000, 1);
    source_ = std::make_unique<MeasuredCostSource>(db_.get(), 3, 99);
  }

  workload::Workload w_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<MeasuredCostSource> source_;
};

TEST_F(MeasuredFixture, PredicatesMatchQueryTemplates) {
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    EXPECT_EQ(source_->predicates(j).size(), w_.query(j).attributes.size());
  }
}

TEST_F(MeasuredFixture, BaseCostPositiveAndCached) {
  const double c1 = source_->BaseCost(0);
  const double c2 = source_->BaseCost(0);
  EXPECT_GT(c1, 0.0);
  EXPECT_DOUBLE_EQ(c1, c2);  // cached: identical, not just close
}

TEST_F(MeasuredFixture, SelectiveIndexBeatsScan) {
  // Find the most selective attribute of query 0 and index it.
  const workload::Query& q = w_.query(0);
  workload::AttributeId best = q.attributes.front();
  for (workload::AttributeId a : q.attributes) {
    if (w_.attribute(a).distinct_values >
        w_.attribute(best).distinct_values) {
      best = a;
    }
  }
  const double base = source_->BaseCost(0);
  const double indexed = source_->CostWithIndex(0, costmodel::Index(best));
  EXPECT_LE(indexed, base);  // never worse (optimizer min)
}

TEST_F(MeasuredFixture, IndexesAreBuiltLazilyAndCached) {
  const size_t before = source_->indexes_built();
  const costmodel::Index k(w_.query(0).attributes.front());
  source_->CostWithIndex(0, k);
  const size_t after_first = source_->indexes_built();
  EXPECT_EQ(after_first, before + 1);
  source_->CostWithIndex(0, k);
  EXPECT_EQ(source_->indexes_built(), after_first);
}

TEST_F(MeasuredFixture, IndexMemoryPositiveAndWidthMonotone) {
  const workload::Query& q = w_.query(0);
  if (q.attributes.size() < 2) GTEST_SKIP();
  const costmodel::Index narrow(q.attributes[0]);
  const costmodel::Index wide = narrow.Append(q.attributes[1]);
  EXPECT_GT(source_->IndexMemory(narrow), 0.0);
  EXPECT_LT(source_->IndexMemory(narrow), source_->IndexMemory(wide));
}

TEST_F(MeasuredFixture, WorksBehindWhatIfEngine) {
  costmodel::WhatIfEngine engine(&w_, source_.get());
  costmodel::IndexConfig config;
  config.Insert(costmodel::Index(w_.query(0).attributes.front()));
  const double cost = engine.WorkloadCost(config);
  EXPECT_GT(cost, 0.0);
  EXPECT_LE(cost, engine.WorkloadCost(costmodel::IndexConfig{}) * 1.001);
}

}  // namespace
}  // namespace idxsel::engine
