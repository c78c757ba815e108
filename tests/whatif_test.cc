// Tests for the caching what-if engine: transparency, call accounting, and
// key canonicalization.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/hash.h"
#include "costmodel/cost_model.h"
#include "costmodel/reconfiguration.h"
#include "costmodel/what_if.h"
#include "exec/thread_pool.h"
#include "workload/scalable_generator.h"

namespace idxsel::costmodel {
namespace {

class WhatIfFixture : public ::testing::Test {
 protected:
  WhatIfFixture() {
    workload::ScalableWorkloadParams params;
    params.num_tables = 2;
    params.attributes_per_table = 8;
    params.queries_per_table = 15;
    w_ = workload::GenerateScalableWorkload(params);
    model_ = std::make_unique<CostModel>(&w_);
    backend_ = std::make_unique<ModelBackend>(model_.get());
  }

  workload::Workload w_;
  std::unique_ptr<CostModel> model_;
  std::unique_ptr<ModelBackend> backend_;
};

TEST_F(WhatIfFixture, CacheTransparency) {
  // Every cost served by the engine equals the backend's answer.
  WhatIfEngine engine(&w_, backend_.get());
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    EXPECT_DOUBLE_EQ(engine.BaseCost(j), model_->UnindexedCost(j));
    for (workload::AttributeId i : w_.query(j).attributes) {
      EXPECT_DOUBLE_EQ(engine.CostWithIndex(j, Index(i)),
                       model_->CostWithIndex(j, Index(i)));
    }
  }
}

TEST_F(WhatIfFixture, RepeatedCallsHitTheCache) {
  WhatIfEngine engine(&w_, backend_.get());
  const Index k(w_.query(0).attributes.front());
  engine.CostWithIndex(0, k);
  const uint64_t calls = engine.stats().calls;
  engine.CostWithIndex(0, k);
  engine.CostWithIndex(0, k);
  EXPECT_EQ(engine.stats().calls, calls);
  EXPECT_GE(engine.stats().cache_hits, 2u);
}

TEST_F(WhatIfFixture, InapplicableIndexDoesNotCallBackend) {
  WhatIfEngine engine(&w_, backend_.get());
  // An attribute not accessed by query 0 on the same table, or any
  // attribute of the other table, is inapplicable.
  const workload::Query& q = w_.query(0);
  workload::AttributeId other = workload::kInvalidAttribute;
  for (workload::AttributeId i = 0; i < w_.num_attributes(); ++i) {
    if (w_.attribute(i).table == q.table &&
        !std::binary_search(q.attributes.begin(), q.attributes.end(), i)) {
      other = i;
      break;
    }
  }
  ASSERT_NE(other, workload::kInvalidAttribute);
  const double base = engine.BaseCost(0);
  const uint64_t calls = engine.stats().calls;
  EXPECT_DOUBLE_EQ(engine.CostWithIndex(0, Index(other)), base);
  EXPECT_EQ(engine.stats().calls, calls);
  EXPECT_GE(engine.stats().skipped_inapplicable, 1u);
}

TEST_F(WhatIfFixture, CanonicalizationSharesEquivalentCalls) {
  WhatIfEngine engine(&w_, backend_.get());
  // Find a query with >= 2 attributes; permutations of the fully-covered
  // prefix must hit the same cache slot.
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    const auto& attrs = w_.query(j).attributes;
    if (attrs.size() < 2) continue;
    const Index ab = Index(attrs[0]).Append(attrs[1]);
    const Index ba = Index(attrs[1]).Append(attrs[0]);
    engine.CostWithIndex(j, ab);
    const uint64_t calls = engine.stats().calls;
    const double cost = engine.CostWithIndex(j, ba);
    EXPECT_EQ(engine.stats().calls, calls) << "permutation missed cache";
    EXPECT_DOUBLE_EQ(cost, model_->CostWithIndex(j, ab));
    return;
  }
  FAIL() << "no multi-attribute query in the generated workload";
}

TEST_F(WhatIfFixture, WorkloadCostMatchesModel) {
  WhatIfEngine engine(&w_, backend_.get());
  IndexConfig config;
  config.Insert(Index(w_.query(0).attributes.front()));
  double expected = 0.0;
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    expected += w_.query(j).frequency * model_->CostOneIndex(j, config);
  }
  EXPECT_NEAR(engine.WorkloadCost(config), expected, expected * 1e-12);
}

TEST_F(WhatIfFixture, ConfigMemorySumsIndexSizes) {
  WhatIfEngine engine(&w_, backend_.get());
  IndexConfig config;
  config.Insert(Index(0));
  config.Insert(Index(1));
  EXPECT_DOUBLE_EQ(engine.ConfigMemory(config),
                   model_->IndexMemory(Index(0)) +
                       model_->IndexMemory(Index(1)));
}

TEST_F(WhatIfFixture, InvalidateCostCacheForcesRecalls) {
  WhatIfEngine engine(&w_, backend_.get());
  engine.BaseCost(0);
  const uint64_t calls = engine.stats().calls;
  engine.InvalidateCostCache();
  engine.BaseCost(0);
  EXPECT_EQ(engine.stats().calls, calls + 1);
}

TEST_F(WhatIfFixture, ResetStatsZeroesCounters) {
  WhatIfEngine engine(&w_, backend_.get());
  engine.BaseCost(0);
  engine.ResetStats();
  EXPECT_EQ(engine.stats().calls, 0u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
}

#if defined(IDXSEL_OBS)
TEST_F(WhatIfFixture, ResetStatsKeepsCacheGaugesInSyncWithLiveCaches) {
  // Regression: ResetStats() resets *call accounting* only. The cache-size
  // gauges mirror live cache contents and must survive a stats reset, then
  // drop when the caches are actually invalidated.
  obs::Gauge* cost_entries =
      obs::Registry::Default().GetGauge("idxsel.whatif.cost_cache_entries");
  obs::Gauge* config_entries =
      obs::Registry::Default().GetGauge("idxsel.whatif.config_cache_entries");
  const int64_t cost_before = cost_entries->Value();
  const int64_t config_before = config_entries->Value();
  {
    WhatIfEngine engine(&w_, backend_.get());
    for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
      for (workload::AttributeId i : w_.query(j).attributes) {
        engine.CostWithIndex(j, Index(i));
      }
    }
    IndexConfig config;
    config.Insert(Index(w_.query(0).attributes.front()));
    engine.CostWithConfig(0, config);
    const int64_t cost_filled = cost_entries->Value();
    const int64_t config_filled = config_entries->Value();
    EXPECT_GT(cost_filled, cost_before);
    EXPECT_GT(config_filled, config_before);

    engine.ResetStats();
    EXPECT_EQ(engine.stats().calls, 0u);
    EXPECT_EQ(cost_entries->Value(), cost_filled)
        << "ResetStats must not desynchronize the cost-cache gauge";
    EXPECT_EQ(config_entries->Value(), config_filled)
        << "ResetStats must not desynchronize the config-cache gauge";

    engine.InvalidateCostCache();
    EXPECT_EQ(cost_entries->Value(), cost_before);
    EXPECT_EQ(config_entries->Value(), config_before);
  }
  // Engine destruction pays back whatever its caches still held.
  EXPECT_EQ(cost_entries->Value(), cost_before);
  EXPECT_EQ(config_entries->Value(), config_before);
}
#endif  // defined(IDXSEL_OBS)

TEST_F(WhatIfFixture, ConfigCostMatchesMultiIndexModel) {
  WhatIfEngine engine(&w_, backend_.get());
  IndexConfig config;
  config.Insert(Index(w_.query(0).attributes.front()));
  if (w_.query(0).attributes.size() > 1) {
    config.Insert(Index(w_.query(0).attributes.back()));
  }
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    EXPECT_DOUBLE_EQ(engine.CostWithConfig(j, config),
                     model_->CostMultiIndex(j, config));
  }
}

TEST_F(WhatIfFixture, ConfigCostCachedPerRelevantSubset) {
  WhatIfEngine engine(&w_, backend_.get());
  IndexConfig config;
  config.Insert(Index(w_.query(0).attributes.front()));
  engine.CostWithConfig(0, config);
  const uint64_t calls = engine.stats().calls;
  // Adding an index of the *other* table must not invalidate the cache
  // entry for query 0 (key canonicalized to same-table indexes).
  const workload::TableId other_table = 1 - w_.query(0).table;
  config.Insert(Index(w_.table(other_table).attributes.front()));
  engine.CostWithConfig(0, config);
  EXPECT_EQ(engine.stats().calls, calls);
}

TEST_F(WhatIfFixture, ConfigCostAtMostOneIndexCost) {
  WhatIfEngine engine(&w_, backend_.get());
  IndexConfig config;
  for (workload::AttributeId a : w_.query(0).attributes) {
    config.Insert(Index(a));
  }
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    EXPECT_LE(engine.CostWithConfig(j, config),
              engine.CostWithIndex(j, Index(w_.query(0).attributes.front())) *
                  (1.0 + 1e-12));
  }
}

// ------------------------------------------------------- reconfiguration

TEST_F(WhatIfFixture, ReconfigurationCosts) {
  WhatIfEngine engine(&w_, backend_.get());
  ReconfigurationParams params;
  params.create_factor = 2.0;
  params.drop_cost = 10.0;
  const ReconfigurationModel reconfig(&engine, params);

  IndexConfig old_config;
  old_config.Insert(Index(0));
  old_config.Insert(Index(1));
  IndexConfig new_config;
  new_config.Insert(Index(1));
  new_config.Insert(Index(2));

  // Create (2), keep (1), drop (0).
  const double expected = 2.0 * engine.IndexMemory(Index(2)) + 10.0;
  EXPECT_DOUBLE_EQ(reconfig.Cost(new_config, old_config), expected);
}

TEST_F(WhatIfFixture, ReconfigurationIdenticalConfigsAreFree) {
  WhatIfEngine engine(&w_, backend_.get());
  const ReconfigurationModel reconfig(&engine);
  IndexConfig config;
  config.Insert(Index(0));
  EXPECT_DOUBLE_EQ(reconfig.Cost(config, config), 0.0);
}

// ------------------------------------------------------- cache hashing

TEST(WhatIfHashTest, CostKeyHashSpreadsLowAndHighBits) {
  // The cost-cache key hash is HashCombine(SplitMix64(query), index.Hash())
  // — the formula that replaced the multiplicative `hash * 1000003 + id`
  // chain, whose low bits stayed clustered for sequential query ids. Both
  // bit ends matter now: unordered_map buckets mask the low bits, shard
  // selection takes the high bits.
  constexpr size_t kQueries = 512;
  constexpr size_t kAttrs = 64;
  constexpr size_t kBuckets = 256;
  std::vector<size_t> low(kBuckets, 0);
  std::vector<size_t> high(kBuckets, 0);
  for (uint64_t j = 0; j < kQueries; ++j) {
    for (workload::AttributeId i = 0; i < kAttrs; ++i) {
      const uint64_t h = HashCombine(SplitMix64(j), Index(i).Hash());
      ++low[h & (kBuckets - 1)];
      ++high[h >> 56];
    }
  }
  const size_t expected = kQueries * kAttrs / kBuckets;
  for (size_t b = 0; b < kBuckets; ++b) {
    EXPECT_GT(low[b], expected / 2) << "low-bit bucket " << b;
    EXPECT_LT(low[b], expected * 2) << "low-bit bucket " << b;
    EXPECT_GT(high[b], expected / 2) << "high-bit bucket " << b;
    EXPECT_LT(high[b], expected * 2) << "high-bit bucket " << b;
  }
}

TEST(WhatIfHashTest, IndexHashFinalizationSpreadsSequentialAttributes) {
  // Single-attribute indexes over sequential attribute ids are the
  // adversarial input for the raw Index::Hash chain; IndexHash's
  // SplitMix64 finalizer must spread them over any power-of-two mask.
  constexpr size_t kIndexes = 16 * 1024;
  constexpr size_t kBuckets = 64;
  std::vector<size_t> bucket(kBuckets, 0);
  IndexHash hasher;
  for (workload::AttributeId i = 0; i < kIndexes; ++i) {
    ++bucket[hasher(Index(i)) & (kBuckets - 1)];
  }
  const size_t expected = kIndexes / kBuckets;
  for (size_t b = 0; b < kBuckets; ++b) {
    EXPECT_GT(bucket[b], expected * 3 / 4) << "bucket " << b;
    EXPECT_LT(bucket[b], expected * 5 / 4) << "bucket " << b;
  }
}

// --------------------------------------------------------- concurrency

TEST_F(WhatIfFixture, ConcurrentLookupsAreExactlyOncePerKey) {
  // Hammer one engine from several lanes with overlapping lookups: the
  // sharded caches must compute every key exactly once, so the backend
  // call count equals the serial run's and every answer stays truthful.
  WhatIfEngine serial_engine(&w_, backend_.get());
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    serial_engine.BaseCost(j);
    for (workload::AttributeId i : w_.query(j).attributes) {
      serial_engine.CostWithIndex(j, Index(i));
    }
  }
  const uint64_t serial_calls = serial_engine.stats().calls;

  WhatIfEngine engine(&w_, backend_.get());
  exec::ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  pool.ParallelFor(
      4 * w_.num_queries(),
      [&](size_t unit) {
        const workload::QueryId j = unit % w_.num_queries();
        if (engine.BaseCost(j) != model_->UnindexedCost(j)) {
          mismatches.fetch_add(1);
        }
        for (workload::AttributeId i : w_.query(j).attributes) {
          if (engine.CostWithIndex(j, Index(i)) !=
              model_->CostWithIndex(j, Index(i))) {
            mismatches.fetch_add(1);
          }
        }
      },
      /*grain=*/1);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine.stats().calls, serial_calls)
      << "concurrent lanes must not duplicate backend calls";
  EXPECT_GT(engine.stats().cache_hits, 0u);
}

TEST_F(WhatIfFixture, ConcurrentStatsAccountingBalances) {
  // calls + cache_hits together must equal the number of cost lookups
  // issued, even when lanes race on the same keys.
  WhatIfEngine engine(&w_, backend_.get());
  constexpr size_t kLanes = 4;
  constexpr size_t kRepeats = 50;
  uint64_t lookups = 0;
  for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
    lookups += w_.query(j).attributes.size();
  }
  exec::ThreadPool pool(kLanes);
  pool.ParallelFor(
      kLanes * kRepeats,
      [&](size_t unit) {
        const size_t seed = unit * 2654435761u;
        for (workload::QueryId j = 0; j < w_.num_queries(); ++j) {
          const workload::QueryId q =
              (j + seed) % w_.num_queries();
          for (workload::AttributeId i : w_.query(q).attributes) {
            engine.CostWithIndex(q, Index(i));
          }
        }
      },
      /*grain=*/1);
  const WhatIfStats stats = engine.stats();
  EXPECT_EQ(stats.calls + stats.cache_hits, kLanes * kRepeats * lookups);
  EXPECT_EQ(stats.calls, lookups);  // exactly-once per distinct key
}

}  // namespace
}  // namespace idxsel::costmodel
