// Differential test of core::SelectRecursive against the plain Algorithm 1
// in reference_h6.h. Every randomized instance must produce the same
// selection and, step by step, the same kind, resulting index, ratio, and
// memory delta — ratios and memory deltas compared bit for bit.
//
// Instances: scalable workloads (write queries on every other seed) and
// small ERP-shaped workloads with more than 64 attributes (so the kernel's
// attribute masks are lossy), at three budgets and threads {1, 4}, with
// one option variant per seed: plain, n_best_singles, max_index_width, or
// reconfiguration against an existing selection with a non-zero drop cost.
// The suite runs unchanged under IDXSEL_FORCE_SCALAR=1.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>

#include "core/recursive_selector.h"
#include "costmodel/cost_model.h"
#include "costmodel/reconfiguration.h"
#include "costmodel/what_if.h"
#include "reference_h6.h"
#include "workload/erp_generator.h"
#include "workload/scalable_generator.h"

namespace idxsel {
namespace {

using core::RecursiveOptions;
using core::RecursiveResult;
using costmodel::CostModel;
using costmodel::ModelBackend;
using costmodel::WhatIfEngine;

enum class Shape { kScalable, kErp };
enum class Variant { kPlain, kNBestSingles, kMaxWidth, kReconfiguration };

workload::Workload MakeWorkload(Shape shape, uint64_t seed) {
  if (shape == Shape::kScalable) {
    workload::ScalableWorkloadParams params;
    params.num_tables = 3;
    params.attributes_per_table = 10;
    params.queries_per_table = 20;
    params.write_share = seed % 2 == 0 ? 0.3 : 0.0;
    params.seed = seed;
    return workload::GenerateScalableWorkload(params);
  }
  workload::ErpWorkloadParams params;
  params.num_tables = 6;
  params.total_attributes = 80;
  params.num_queries = 90;
  params.seed = seed;
  return workload::GenerateErpWorkload(params);
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

class ReferenceH6Test
    : public ::testing::TestWithParam<std::tuple<Shape, uint64_t>> {};

TEST_P(ReferenceH6Test, MatchesSelectRecursiveBitForBit) {
  const Shape shape = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  const workload::Workload w = MakeWorkload(shape, seed);
  const CostModel model(&w);
  ModelBackend backend(&model);
  const auto variant = static_cast<Variant>(seed % 4);

  // Reconfiguration setting: the existing selection is a fresh run at a
  // small budget; dropping one of its indexes costs 5% of F(empty).
  WhatIfEngine setup_engine(&w, &backend);
  RecursiveOptions bootstrap;
  bootstrap.budget = model.Budget(0.1);
  const costmodel::IndexConfig existing =
      core::SelectRecursive(setup_engine, bootstrap).selection;
  costmodel::ReconfigurationParams rparams;
  rparams.create_factor = 0.5;
  rparams.drop_cost =
      0.05 * setup_engine.WorkloadCost(costmodel::IndexConfig{});
  const costmodel::ReconfigurationModel reconfig(&setup_engine, rparams);

  for (const double budget_w : {0.05, 0.2, 0.5}) {
    for (const size_t threads : {1u, 4u}) {
      RecursiveOptions options;
      options.budget = model.Budget(budget_w);
      options.threads = threads;
      switch (variant) {
        case Variant::kPlain:
          break;
        case Variant::kNBestSingles:
          options.n_best_singles = 6;
          break;
        case Variant::kMaxWidth:
          options.max_index_width = 2;
          break;
        case Variant::kReconfiguration:
          options.existing = &existing;
          options.reconfiguration = &reconfig;
          break;
      }
      const std::string label =
          std::string(shape == Shape::kScalable ? "scalable" : "erp") +
          " seed=" + std::to_string(seed) +
          " variant=" + std::to_string(static_cast<int>(variant)) +
          " w=" + std::to_string(budget_w) +
          " threads=" + std::to_string(threads);

      WhatIfEngine engine(&w, &backend);
      const RecursiveResult got = core::SelectRecursive(engine, options);
      WhatIfEngine reference_engine(&w, &backend);
      const reference::ReferenceResult want =
          reference::SelectRecursiveReference(reference_engine, options);

      ASSERT_TRUE(got.status.ok()) << label;
      EXPECT_TRUE(got.selection == want.selection)
          << label << ": got " << got.selection.ToString() << ", want "
          << want.selection.ToString();
      ASSERT_EQ(got.trace.size(), want.trace.size()) << label;
      for (size_t s = 0; s < want.trace.size(); ++s) {
        const std::string at = label + " step " + std::to_string(s);
        EXPECT_EQ(got.trace[s].kind, want.trace[s].kind) << at;
        EXPECT_TRUE(got.trace[s].after == want.trace[s].after)
            << at << ": got " << got.trace[s].after.ToString() << ", want "
            << want.trace[s].after.ToString();
        EXPECT_EQ(Bits(got.trace[s].ratio), Bits(want.trace[s].ratio))
            << at << ": got " << got.trace[s].ratio << ", want "
            << want.trace[s].ratio;
        EXPECT_EQ(Bits(got.trace[s].memory_delta),
                  Bits(want.trace[s].memory_delta))
            << at;
      }
    }
  }
}

// 2 shapes x 8 seeds x 3 budgets x 2 thread counts = 96 instances.
INSTANTIATE_TEST_SUITE_P(
    Instances, ReferenceH6Test,
    ::testing::Combine(::testing::Values(Shape::kScalable, Shape::kErp),
                       ::testing::Range<uint64_t>(1, 9)),
    [](const ::testing::TestParamInfo<std::tuple<Shape, uint64_t>>&
           param_info) {
      return std::string(std::get<0>(param_info.param) == Shape::kScalable
                             ? "Scalable"
                             : "Erp") +
             "Seed" + std::to_string(std::get<1>(param_info.param));
    });

// ------------------------------------------------------ garbage backends

/// Decorator that corrupts a fixed, key-determined share of the answers:
/// whether f_j(0), f_j(k), p_k, or a maintenance cost comes back as NaN,
/// +inf, or negated depends only on (seed, query, index), never on call
/// order. The production selector and the reference ask in different
/// orders and for different key sets, so a call-order fault injector
/// (rt::FaultInjectingBackend) would hand them different garbage; this
/// one hands both the same garbage, which WhatIfEngine must then sanitize
/// identically on the dense and the keyed accessors.
class KeyedGarbageBackend : public costmodel::WhatIfBackend {
 public:
  KeyedGarbageBackend(const costmodel::WhatIfBackend* inner, uint64_t seed)
      : inner_(inner), seed_(seed) {}

  double BaseCost(workload::QueryId j) const override {
    return Corrupt(inner_->BaseCost(j), Key(1, j, nullptr));
  }
  double CostWithIndex(workload::QueryId j,
                       const costmodel::Index& k) const override {
    return Corrupt(inner_->CostWithIndex(j, k), Key(2, j, &k));
  }
  double IndexMemory(const costmodel::Index& k) const override {
    return Corrupt(inner_->IndexMemory(k), Key(3, 0, &k));
  }
  double MaintenanceCost(workload::QueryId j,
                         const costmodel::Index& k) const override {
    return Corrupt(inner_->MaintenanceCost(j, k), Key(4, j, &k));
  }

 private:
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  uint64_t Key(uint64_t what, workload::QueryId j,
               const costmodel::Index* k) const {
    uint64_t h = Mix(seed_ ^ (what << 56));
    h = Mix(h ^ j);
    if (k != nullptr) {
      for (workload::AttributeId a : k->attributes()) h = Mix(h ^ a);
    }
    return h;
  }

  /// About 3% of keys each turn NaN, +inf, or negative.
  static double Corrupt(double truthful, uint64_t key) {
    switch (key % 100) {
      case 0:
      case 1:
      case 2:
        return std::numeric_limits<double>::quiet_NaN();
      case 3:
      case 4:
      case 5:
        return std::numeric_limits<double>::infinity();
      case 6:
      case 7:
      case 8:
        return truthful == 0.0 ? -1.0 : -truthful;
      default:
        return truthful;
    }
  }

  const costmodel::WhatIfBackend* inner_;
  uint64_t seed_;
};

class ReferenceH6GarbageTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReferenceH6GarbageTest, MatchesSelectRecursiveUnderSanitizedGarbage) {
  // Sanitized answers feed the dense rows, the best/second-best
  // bookkeeping, and the memory and maintenance terms; the selector must
  // still take exactly the steps a plain Algorithm 1 over the same
  // sanitized f_j takes.
  const uint64_t seed = GetParam();
  const workload::Workload w = MakeWorkload(Shape::kScalable, seed);
  const CostModel model(&w);
  ModelBackend truthful(&model);
  KeyedGarbageBackend backend(&truthful, seed);

  for (const double budget_w : {0.05, 0.2, 0.5}) {
    for (const size_t threads : {1u, 4u}) {
      RecursiveOptions options;
      options.budget = model.Budget(budget_w);
      options.threads = threads;
      const std::string label = "seed=" + std::to_string(seed) +
                                " w=" + std::to_string(budget_w) +
                                " threads=" + std::to_string(threads);

      WhatIfEngine engine(&w, &backend);
      const RecursiveResult got = core::SelectRecursive(engine, options);
      WhatIfEngine reference_engine(&w, &backend);
      const reference::ReferenceResult want =
          reference::SelectRecursiveReference(reference_engine, options);

      // The corruption must actually have reached both engines.
      EXPECT_GT(engine.stats().sanitized, 0u) << label;
      EXPECT_GT(reference_engine.stats().sanitized, 0u) << label;
      ASSERT_TRUE(got.status.ok()) << label;
      EXPECT_FALSE(want.trace.empty()) << label;
      EXPECT_TRUE(got.selection == want.selection)
          << label << ": got " << got.selection.ToString() << ", want "
          << want.selection.ToString();
      ASSERT_EQ(got.trace.size(), want.trace.size()) << label;
      for (size_t s = 0; s < want.trace.size(); ++s) {
        const std::string at = label + " step " + std::to_string(s);
        EXPECT_EQ(got.trace[s].kind, want.trace[s].kind) << at;
        EXPECT_TRUE(got.trace[s].after == want.trace[s].after)
            << at << ": got " << got.trace[s].after.ToString() << ", want "
            << want.trace[s].after.ToString();
        EXPECT_EQ(Bits(got.trace[s].ratio), Bits(want.trace[s].ratio))
            << at << ": got " << got.trace[s].ratio << ", want "
            << want.trace[s].ratio;
        EXPECT_EQ(Bits(got.trace[s].memory_delta),
                  Bits(want.trace[s].memory_delta))
            << at;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceH6GarbageTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace idxsel
