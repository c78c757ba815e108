// Tests for idxsel::kernel as wired into the what-if engine and the H6
// selector: the dense id-addressed accessors answer exactly like their
// keyed twins (values and cache accounting), interning round-trips, and
// the kernel's own telemetry (idxsel.kernel.*) is populated by H6 runs and
// independent of the thread count. Selection-level correctness of the
// dense H6 path is checked against an independent plain Algorithm 1 in
// tests/reference_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "advisor/advisor.h"
#include "costmodel/cost_model.h"
#include "costmodel/what_if.h"
#include "kernel/kernel.h"
#include "workload/scalable_generator.h"

namespace idxsel {
namespace {

using advisor::AdvisorOptions;
using advisor::Recommendation;
using advisor::StrategyKind;
using costmodel::CostModel;
using costmodel::ModelBackend;
using costmodel::WhatIfEngine;

struct Env {
  workload::Workload w;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<ModelBackend> backend;

  explicit Env(size_t tables = 3, size_t attrs = 12, size_t queries = 30,
               uint64_t seed = 7) {
    workload::ScalableWorkloadParams params;
    params.num_tables = tables;
    params.attributes_per_table = attrs;
    params.queries_per_table = queries;
    params.seed = seed;
    w = workload::GenerateScalableWorkload(params);
    model = std::make_unique<CostModel>(&w);
    backend = std::make_unique<ModelBackend>(model.get());
  }
};

// --------------------------------------------------------- kernel telemetry

#if defined(IDXSEL_OBS)
/// One Recommend() run on a fresh engine.
std::optional<Recommendation> RunAdvisor(Env& env,
                                         const AdvisorOptions& options) {
  WhatIfEngine engine(&env.w, env.backend.get());
  const Result<Recommendation> rec = advisor::Recommend(engine, options);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString();
  if (!rec.ok()) return std::nullopt;
  return *rec;
}

TEST(KernelTelemetryTest, CountersPopulated) {
  // A workload/budget shape that reliably commits append (morph) steps —
  // the mask filter only fires on multi-attribute extension rounds, where
  // some posting-list query lacks full cover of the extended index (same
  // shape core_test.cc uses to provoke morphing).
  Env env(2, 12, 60);
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.budget_fraction = 0.5;
  options.threads = 1;

  const auto rec = RunAdvisor(env, options);
  ASSERT_TRUE(rec.has_value());
  const auto& counters = rec->report.metrics.counters;
  // An H6 run of this size resolves thousands of costs through the dense
  // table and filters non-exploiting queries by mask; all three kernel
  // counters must show up in the run report.
  const auto fast = counters.find("idxsel.kernel.fast_path_hits");
  ASSERT_NE(fast, counters.end());
  EXPECT_GT(fast->second, 0u);
  const auto fallback = counters.find("idxsel.kernel.fallback_lookups");
  ASSERT_NE(fallback, counters.end());
  EXPECT_GT(fallback->second, 0u);
  const auto filtered = counters.find("idxsel.kernel.filtered_queries");
  ASSERT_NE(filtered, counters.end());
  EXPECT_GT(filtered->second, 0u);
}

TEST(KernelTelemetryTest, FilteredQueriesDeterministicAcrossThreads) {
  // kernel.filtered_queries is a pure function of the evaluated moves, so
  // even though parallel units tally it concurrently, the total matches
  // the serial run exactly.
  Env env(2, 12, 60);
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.budget_fraction = 0.5;

  options.threads = 1;
  const auto serial = RunAdvisor(env, options);
  ASSERT_TRUE(serial.has_value());
  options.threads = 4;
  const auto parallel = RunAdvisor(env, options);
  ASSERT_TRUE(parallel.has_value());

  const auto& a = serial->report.metrics.counters;
  const auto& b = parallel->report.metrics.counters;
  for (const char* name :
       {"idxsel.kernel.fast_path_hits", "idxsel.kernel.fallback_lookups",
        "idxsel.kernel.filtered_queries"}) {
    const auto sa = a.find(name);
    const auto sb = b.find(name);
    ASSERT_NE(sa, a.end()) << name;
    ASSERT_NE(sb, b.end()) << name;
    EXPECT_EQ(sa->second, sb->second) << name;
  }
}
#endif  // IDXSEL_OBS

// ------------------------------------------------------- dense engine API

TEST(DenseEngineTest, DenseLookupsMatchKeyedLookups) {
  // Below the strategies: every dense accessor agrees bit-for-bit with
  // its keyed twin, on both cold and warm lookups.
  Env env;
  WhatIfEngine dense_engine(&env.w, env.backend.get());
  WhatIfEngine keyed_engine(&env.w, env.backend.get());

  for (workload::AttributeId a = 0; a < env.w.num_attributes(); a += 3) {
    const costmodel::Index k(a);
    const kernel::IndexId id = dense_engine.InternIndex(k);
    EXPECT_EQ(dense_engine.IndexMemoryDense(id), keyed_engine.IndexMemory(k));
    EXPECT_EQ(dense_engine.MaintenancePenaltyDense(id),
              keyed_engine.MaintenancePenalty(k));
    const auto& posting = env.w.queries_with(k.leading());
    for (uint32_t s = 0; s < posting.size(); ++s) {
      const double cold =
          dense_engine.CostWithIndexDense(posting[s], id, s);
      EXPECT_EQ(cold, keyed_engine.CostWithIndex(posting[s], k))
          << "attr " << a << " slot " << s;
      // Warm: the dense row answers without consulting the backend, and
      // counts a cache hit exactly like the hashed cache would.
      const uint64_t hits_before = dense_engine.stats().cache_hits;
      EXPECT_EQ(dense_engine.CostWithIndexDense(posting[s], id, s), cold);
      EXPECT_EQ(dense_engine.stats().cache_hits, hits_before + 1);
    }
  }
  EXPECT_EQ(dense_engine.stats().calls, keyed_engine.stats().calls);
}

TEST(DenseEngineTest, MaterializeRoundTripsInterning) {
  Env env;
  WhatIfEngine engine(&env.w, env.backend.get());
  const costmodel::Index k(std::vector<workload::AttributeId>{4, 1, 9});
  const kernel::IndexId id = engine.InternIndex(k);
  EXPECT_TRUE(engine.MaterializeIndex(id) == k);
  EXPECT_EQ(engine.InternIndex(k), id);  // idempotent
}

}  // namespace
}  // namespace idxsel
