// Dispatch-equivalence suite for idxsel::kernel::simd: the vector layer
// under the dense kernel is a pure performance feature, and its contract
// (kernel/simd.h, "FP-reduction-order contract") is that the AVX2 path
// and the scalar template produce bit-identical results — so a whole
// selection run must be byte-identical across dispatch levels: same
// recommendation, same construction trace, same journal bytes, same
// engine stats(), same telemetry counters, for every strategy and thread
// count.
//
// Two halves:
//
//   * the end-to-end matrix — all 8 strategies x threads {1,4} x
//     dispatch {native,forced-scalar}, the H6 option variants (pair
//     steps, Remark-2 evaluation, swap repair, portfolio race), plus
//     serial fault-injection probes over the chaos matrix's fault mixes
//     (the strongest call-order detector we have);
//   * op-level fuzz — DenseCostTable rows of every length 0..67 with
//     random NaN patterns, plus raw reduction/filter/gather blocks,
//     compared bit-for-bit between both dispatch paths and an
//     independently written serial reference.
//
// On a host without AVX2 (or a binary built without the AVX2 TU) both
// dispatch legs run the scalar template and every equality holds
// trivially.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "advisor/advisor.h"
#include "costmodel/cost_model.h"
#include "costmodel/what_if.h"
#include "kernel/kernel.h"
#include "kernel/simd.h"
#include "obs/journal.h"
#include "rt/fault_injection.h"
#include "workload/scalable_generator.h"

namespace idxsel {
namespace {

using advisor::AdvisorOptions;
using advisor::Recommendation;
using advisor::StrategyKind;
using advisor::StrategyName;
using costmodel::CostModel;
using costmodel::ModelBackend;
using costmodel::WhatIfEngine;
using costmodel::WhatIfStats;
namespace simd = kernel::simd;

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

/// Records journal entries for the duration of one run so the byte-level
/// journal comparison has something to compare (no-op with obs off).
class ScopedJournal {
 public:
  ScopedJournal() : previous_(obs::JournalEnabled()) {
    obs::SetJournalEnabled(true);
  }
  ~ScopedJournal() { obs::SetJournalEnabled(previous_); }
  ScopedJournal(const ScopedJournal&) = delete;
  ScopedJournal& operator=(const ScopedJournal&) = delete;

 private:
  bool previous_;
};

struct Outcome {
  Recommendation rec;
  WhatIfStats engine_stats;
};

std::optional<Outcome> RunWith(Env& env, AdvisorOptions options,
                               bool force_scalar) {
  simd::ScopedForceScalar sguard(force_scalar);
  ScopedJournal journal;
  WhatIfEngine engine(&env.w, env.backend.get());
  const Result<Recommendation> rec = advisor::Recommend(engine, options);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString();
  if (!rec.ok()) return std::nullopt;
  return Outcome{*rec, engine.stats()};
}

/// Counters that must match between the two dispatch runs. The kernel's
/// own counters stay in: fast-path hits, fallback lookups, and
/// mask-filtered query counts must agree exactly — FilterMasks keeping a
/// different slot set under AVX2 would surface right here. Only the
/// scheduler-dependent counters are excluded under threads > 1: work
/// steals and the MIP search-size tallies, whose node/cutoff totals depend
/// on which lane improves the shared bound first (doc/parallelism.md).
std::map<std::string, uint64_t> ComparableCounters(
    const obs::RunReport& report, size_t threads) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : report.metrics.counters) {
    if (name == "idxsel.exec.steals") continue;
    if (threads > 1 &&
        (name == "idxsel.mip.nodes" || name == "idxsel.mip.bound_cutoffs" ||
         name == "idxsel.mip.incumbent_updates")) {
      continue;
    }
    out.emplace(name, value);
  }
  return out;
}

void ExpectSameOutcome(const Outcome& native, const Outcome& scalar,
                       const std::string& label, size_t threads = 1) {
  EXPECT_TRUE(native.rec.selection == scalar.rec.selection) << label;
  EXPECT_EQ(native.rec.cost_before, scalar.rec.cost_before) << label;
  EXPECT_EQ(native.rec.cost_after, scalar.rec.cost_after) << label;
  EXPECT_EQ(native.rec.memory, scalar.rec.memory) << label;
  EXPECT_EQ(native.rec.budget, scalar.rec.budget) << label;
  EXPECT_EQ(native.rec.status.code(), scalar.rec.status.code()) << label;
  EXPECT_EQ(native.rec.executed_strategy, scalar.rec.executed_strategy)
      << label;
  EXPECT_EQ(native.rec.whatif_calls, scalar.rec.whatif_calls) << label;

  ASSERT_EQ(native.rec.trace.size(), scalar.rec.trace.size()) << label;
  for (size_t s = 0; s < native.rec.trace.size(); ++s) {
    EXPECT_TRUE(native.rec.trace[s].after == scalar.rec.trace[s].after)
        << label << " step " << s;
    EXPECT_EQ(native.rec.trace[s].kind, scalar.rec.trace[s].kind)
        << label << " step " << s;
    EXPECT_EQ(native.rec.trace[s].ratio, scalar.rec.trace[s].ratio)
        << label << " step " << s;
    EXPECT_EQ(native.rec.trace[s].objective_after,
              scalar.rec.trace[s].objective_after)
        << label << " step " << s;
  }

  // Journal bytes: the full decision provenance — every candidate's
  // benefit, ratio, and margin rendered at %.17g — serializes
  // identically, which is a stronger probe than the trace alone because
  // it covers the *rejected* candidates' reductions too.
  EXPECT_EQ(obs::JournalToJsonl(native.rec.journal),
            obs::JournalToJsonl(scalar.rec.journal))
      << label;

  EXPECT_EQ(native.engine_stats.calls, scalar.engine_stats.calls) << label;
  EXPECT_EQ(native.engine_stats.cache_hits, scalar.engine_stats.cache_hits)
      << label;
  EXPECT_EQ(native.engine_stats.skipped_inapplicable,
            scalar.engine_stats.skipped_inapplicable)
      << label;
  EXPECT_EQ(native.engine_stats.sanitized, scalar.engine_stats.sanitized)
      << label;

  EXPECT_EQ(ComparableCounters(native.rec.report, threads),
            ComparableCounters(scalar.rec.report, threads))
      << label;
}

// ------------------------------------------- strategies x threads matrix

class DispatchEquivalenceTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(DispatchEquivalenceTest, BitIdenticalAcrossDispatchLevels) {
  Env env;
  AdvisorOptions options;
  options.strategy = GetParam();
  options.candidate_limit = 60;
  for (const size_t threads : {1u, 4u}) {
    options.threads = threads;
    const std::string label = std::string(StrategyName(GetParam())) +
                              " threads=" + std::to_string(threads);
    const auto native = RunWith(env, options, /*force_scalar=*/false);
    const auto scalar = RunWith(env, options, /*force_scalar=*/true);
    ASSERT_TRUE(native.has_value() && scalar.has_value()) << label;
    ExpectSameOutcome(*native, *scalar, label, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, DispatchEquivalenceTest,
    ::testing::Values(StrategyKind::kRecursive, StrategyKind::kH1,
                      StrategyKind::kH2, StrategyKind::kH3,
                      StrategyKind::kH4, StrategyKind::kH4Skyline,
                      StrategyKind::kH5, StrategyKind::kCophy));

// ------------------------------------------------- fault-injection probe

TEST(DispatchChaosTest, SerialBitIdenticalUnderFaults) {
  // The fault injector advances one PRNG per backend call; if the batched
  // what-if path consults the backend at all (it must not — cold units
  // demote to the per-call loop *before* any accounting), fault placement
  // shifts and the runs diverge.
  for (const uint64_t seed : {3u, 7u, 11u}) {
    Env env(2, 10, 20, seed);
    rt::FaultInjectionOptions fopts;
    fopts.seed = seed;
    fopts.nan_probability = 0.06;
    fopts.inf_probability = 0.04;
    fopts.negative_probability = 0.05;
    fopts.fail_after_calls = 25 * seed;
    fopts.fail_burst = seed % 5;

    AdvisorOptions options;
    options.strategy = StrategyKind::kRecursive;
    options.threads = 1;
    options.budget_fraction = 0.25;
    options.candidate_limit = 40;

    std::optional<Outcome> runs[2];
    uint64_t backend_calls[2] = {0, 0};
    for (const int pin : {0, 1}) {
      rt::FaultInjectingBackend chaos(env.backend.get(), fopts);
      simd::ScopedForceScalar sguard(pin == 1);
      ScopedJournal journal;
      WhatIfEngine engine(&env.w, &chaos);
      const Result<Recommendation> rec = advisor::Recommend(engine, options);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      runs[pin] = Outcome{*rec, engine.stats()};
      backend_calls[pin] = chaos.stats().calls;
    }
    const std::string label = "chaos seed=" + std::to_string(seed);
    ExpectSameOutcome(*runs[0], *runs[1], label);
    EXPECT_EQ(backend_calls[0], backend_calls[1]) << label;
  }
}

// ------------------------------------------------ chaos matrix probe

/// The chaos-matrix fault mixes of robustness_test.cc (without its
/// latency seed: injected stalls only matter under a deadline).
rt::FaultInjectionOptions ChaosOptions(uint64_t seed) {
  rt::FaultInjectionOptions fopts;
  fopts.seed = seed;
  fopts.nan_probability = 0.06 * static_cast<double>(seed % 3);
  fopts.inf_probability = 0.05 * static_cast<double>((seed / 3) % 3);
  fopts.negative_probability = 0.05 * static_cast<double>((seed / 9) % 3);
  fopts.fail_after_calls = 20 * seed;
  fopts.fail_burst = seed % 6;
  fopts.healthy_calls = seed % 4;
  return fopts;
}

class DispatchChaosMatrixTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, uint64_t>> {};

TEST_P(DispatchChaosMatrixTest, SerialBitIdenticalUnderFaults) {
  // The same call-order probe as DispatchChaosTest, across the chaos
  // matrix's fault mixes and for the strategies whose candidate
  // generation and what-if batches take the dense path: H6, the H4
  // skyline, and CoPhy's MIP. Serial and without a deadline, fault
  // placement is a function of the backend call sequence alone.
  const StrategyKind strategy = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  const std::string label =
      std::string(StrategyName(strategy)) + " seed=" + std::to_string(seed);

  Env env(2, 10, 20, seed);
  AdvisorOptions options;
  options.strategy = strategy;
  options.threads = 1;
  options.budget_fraction = 0.25;
  options.candidate_limit = 40;
  options.solver.mip_gap = 0.05;

  std::optional<Outcome> runs[2];
  rt::FaultInjectionStats injected[2];
  for (const int pin : {0, 1}) {
    rt::FaultInjectingBackend chaos(env.backend.get(), ChaosOptions(seed));
    simd::ScopedForceScalar sguard(pin == 1);
    ScopedJournal journal;
    WhatIfEngine engine(&env.w, &chaos);
    const Result<Recommendation> rec = advisor::Recommend(engine, options);
    ASSERT_TRUE(rec.ok()) << label << ": " << rec.status().ToString();
    runs[pin] = Outcome{*rec, engine.stats()};
    injected[pin] = chaos.stats();
  }
  ExpectSameOutcome(*runs[0], *runs[1], label);

  // Same calls consumed the same PRNG stream, so every injection tally
  // matches exactly.
  EXPECT_EQ(injected[0].calls, injected[1].calls) << label;
  EXPECT_EQ(injected[0].injected_nan, injected[1].injected_nan) << label;
  EXPECT_EQ(injected[0].injected_inf, injected[1].injected_inf) << label;
  EXPECT_EQ(injected[0].injected_negative, injected[1].injected_negative)
      << label;
  EXPECT_EQ(injected[0].injected_outage, injected[1].injected_outage)
      << label;
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesTimesSeeds, DispatchChaosMatrixTest,
    ::testing::Combine(::testing::Values(StrategyKind::kRecursive,
                                         StrategyKind::kH4Skyline,
                                         StrategyKind::kCophy),
                       ::testing::Range<uint64_t>(1, 14)));

// ------------------------------------------------------ H6 option variants

/// Native vs forced-scalar at threads {1, 4} for one option set.
void CheckDispatchEquivalence(AdvisorOptions options, const std::string& what) {
  Env env;
  for (const size_t threads : {1u, 4u}) {
    options.threads = threads;
    const std::string label = what + " threads=" + std::to_string(threads);
    const auto native = RunWith(env, options, /*force_scalar=*/false);
    const auto scalar = RunWith(env, options, /*force_scalar=*/true);
    ASSERT_TRUE(native.has_value() && scalar.has_value()) << label;
    ExpectSameOutcome(*native, *scalar, label, threads);
  }
}

TEST(DispatchH6VariantTest, PairSteps) {
  // Pair rounds mix dense single/append moves with keyed pair moves.
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.recursive.pair_steps = true;
  options.recursive.n_best_singles = 10;
  CheckDispatchEquivalence(options, "H6 pair_steps");
}

TEST(DispatchH6VariantTest, MultiIndexEval) {
  // Remark 2's evaluation path: configuration costs instead of rows.
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.recursive.multi_index_eval = true;
  CheckDispatchEquivalence(options, "H6 multi_index_eval");
}

TEST(DispatchH6VariantTest, TightBudgetExercisesSwapRepair) {
  // A small budget forces prune/swap repair steps, which rebuild the
  // dense best/second-best state from the selected ids.
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.budget_fraction = 0.05;
  CheckDispatchEquivalence(options, "H6 tight budget");
}

TEST(DispatchH6VariantTest, PortfolioRace) {
  AdvisorOptions options;
  options.strategy = StrategyKind::kRecursive;
  options.portfolio = {StrategyKind::kH4, StrategyKind::kH5};
  options.candidate_limit = 60;
  CheckDispatchEquivalence(options, "portfolio");
}

// ------------------------------------------------------- op-level fuzz

/// splitmix64 — deterministic fuzz stream (same generator the auditor
/// uses for its synthetic blocks, different seeds).
uint64_t Mix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Serial references, written as the kernel/simd.h doc comments specify
// (MINPD tie semantics for min steps) and independent of simd_impl.h.

double RefSum(const double* row, size_t n) {
  double acc = 0.0;
  for (size_t t = 0; t < n; ++t) acc += std::isnan(row[t]) ? 0.0 : row[t];
  return acc;
}

double RefMin(const double* row, size_t n) {
  double acc = std::numeric_limits<double>::infinity();
  for (size_t t = 0; t < n; ++t) {
    const double v =
        std::isnan(row[t]) ? std::numeric_limits<double>::infinity() : row[t];
    acc = acc < v ? acc : v;
  }
  return acc;
}

double RefBenefit(const double* costs, const uint32_t* qids,
                  const double* best, const double* freq, size_t n) {
  double acc = 0.0;
  for (size_t t = 0; t < n; ++t) {
    const double gain = best[qids[t]] - costs[t];
    acc += gain > 0.0 ? freq[qids[t]] * gain : 0.0;
  }
  return acc;
}

double RefAppendBenefit(const double* costs, const double* cw,
                        const uint32_t* qids, const double* best,
                        const double* freq, size_t n) {
  double acc = 0.0;
  for (size_t t = 0; t < n; ++t) {
    const double new_cost = cw[t] < costs[t] ? cw[t] : costs[t];
    acc += freq[qids[t]] * (best[qids[t]] - new_cost);
  }
  return acc;
}

/// Evaluates `fn` under both dispatch pins and expects both results to
/// carry exactly the bits of `ref`.
template <typename Fn>
void ExpectBitsBothPaths(double ref, Fn&& fn, const std::string& label) {
  {
    simd::ScopedForceScalar pin(true);
    EXPECT_EQ(Bits(ref), Bits(fn())) << label << " [scalar]";
  }
  {
    simd::ScopedForceScalar pin(false);
    EXPECT_EQ(Bits(ref), Bits(fn()))
        << label << " [" << simd::LevelName(simd::SupportedLevel()) << "]";
  }
}

TEST(SimdRowFuzzTest, DenseCostTableRowsBitForBit) {
  // Every row length from empty to well past the 4-lane blocking (0..67),
  // several NaN densities per length, values stored through the real
  // DenseCostTable so the ops read exactly the memory they see in
  // production (atomic rows via kernel::RawValues).
  kernel::DenseCostTable table;
  std::vector<double> pattern, gathered;
  std::vector<uint32_t> slots;
  kernel::IndexId next_id = 0;
  for (uint32_t n = 0; n <= 67; ++n) {
    for (const uint64_t density : {2u, 5u, 9u}) {  // ~1/2, ~1/5, ~1/9 NaN
      uint64_t rng = 0xf022ull + n * 131u + density;
      pattern.resize(n);
      size_t set_count = 0;
      for (uint32_t t = 0; t < n; ++t) {
        const uint64_t r = Mix64(rng);
        if (r % density == 0) {
          pattern[t] = std::numeric_limits<double>::quiet_NaN();
        } else {
          pattern[t] = static_cast<double>(r % 100000) / 64.0;
          ++set_count;
        }
      }
      const std::string label =
          "n=" + std::to_string(n) + " density=" + std::to_string(density);

      // Store through the table (rows exist only once a slot is Put).
      const kernel::IndexId id = next_id++;
      for (uint32_t t = 0; t < n; ++t) {
        if (!std::isnan(pattern[t])) table.Put(id, t, n, pattern[t]);
      }
      const kernel::DenseCostTable::RowView view = table.ViewRow(id);
      if (set_count == 0) {
        ASSERT_EQ(view.values, nullptr) << label;  // never touched
        // Ops on the all-NaN pattern still have defined results.
        ExpectBitsBothPaths(
            0.0, [&] { return simd::SumSetSlots(pattern.data(), n); }, label);
        continue;
      }
      ASSERT_NE(view.values, nullptr) << label;
      ASSERT_EQ(view.len, n) << label;
      const double* row = kernel::RawValues(view.values);

      ExpectBitsBothPaths(
          RefSum(row, n), [&] { return simd::SumSetSlots(row, n); }, label);
      ExpectBitsBothPaths(
          RefMin(row, n), [&] { return simd::MinSetSlots(row, n); }, label);

      // Gather over every slot: cold verdict iff the pattern has a NaN.
      slots.resize(n);
      for (uint32_t t = 0; t < n; ++t) slots[t] = t;
      gathered.resize(n);
      const bool all_set = set_count == n;
      for (const bool pin : {true, false}) {
        simd::ScopedForceScalar guard(pin);
        EXPECT_EQ(simd::GatherRowWarm(row, slots.data(), n, gathered.data()),
                  all_set)
            << label;
      }

      // Gather restricted to the set slots: warm, bitwise round-trip.
      slots.clear();
      for (uint32_t t = 0; t < n; ++t) {
        if (!std::isnan(pattern[t])) slots.push_back(t);
      }
      gathered.resize(slots.size());
      for (const bool pin : {true, false}) {
        simd::ScopedForceScalar guard(pin);
        ASSERT_TRUE(simd::GatherRowWarm(row, slots.data(), slots.size(),
                                        gathered.data()))
            << label;
        for (size_t t = 0; t < slots.size(); ++t) {
          EXPECT_EQ(Bits(gathered[t]), Bits(pattern[slots[t]]))
              << label << " slot " << slots[t];
        }
      }
    }
  }
}

TEST(SimdReductionFuzzTest, BenefitReductionsBitForBit) {
  constexpr size_t kNumQueries = 61;
  std::vector<double> costs, cw, best(kNumQueries), freq(kNumQueries);
  std::vector<uint32_t> qids;
  for (size_t n = 0; n <= 67; ++n) {
    uint64_t rng = 0xbe4ef17ull + n;
    costs.resize(n);
    cw.resize(n);
    qids.resize(n);
    for (size_t j = 0; j < kNumQueries; ++j) {
      best[j] = static_cast<double>(Mix64(rng) % 8192) / 32.0;
      freq[j] = 1.0 + static_cast<double>(Mix64(rng) % 50);
    }
    for (size_t t = 0; t < n; ++t) {
      // Costs straddle best[] so gains come out positive and negative —
      // the KeepIfGtZero blend has to disagree with a plain multiply for
      // the exact path to be meaningfully tested.
      costs[t] = static_cast<double>(Mix64(rng) % 8192) / 32.0;
      cw[t] = static_cast<double>(Mix64(rng) % 8192) / 32.0;
      qids[t] = static_cast<uint32_t>(Mix64(rng) % kNumQueries);
    }
    const std::string label = "n=" + std::to_string(n);
    ExpectBitsBothPaths(
        RefBenefit(costs.data(), qids.data(), best.data(), freq.data(), n),
        [&] {
          return simd::ReduceBenefitIndexed(costs.data(), qids.data(),
                                            best.data(), freq.data(), n);
        },
        "ReduceBenefitIndexed " + label);
    ExpectBitsBothPaths(
        RefAppendBenefit(costs.data(), cw.data(), qids.data(), best.data(),
                         freq.data(), n),
        [&] {
          return simd::ReduceAppendBenefit(costs.data(), cw.data(),
                                           qids.data(), best.data(),
                                           freq.data(), n);
        },
        "ReduceAppendBenefit " + label);
  }
}

TEST(SimdFilterFuzzTest, MaskCompactionMatchesSerialFilter) {
  std::vector<uint64_t> masks;
  std::vector<uint32_t> ref, got;
  for (size_t n = 0; n <= 67; ++n) {
    uint64_t rng = 0xfacadeull + n;
    masks.resize(n);
    for (size_t t = 0; t < n; ++t) {
      // Dense masks so the few-bit `required` below keeps a nontrivial
      // mix of slots (all-keep and all-drop blocks both occur).
      masks[t] = Mix64(rng) | Mix64(rng);
    }
    const uint64_t required = Mix64(rng) & Mix64(rng) & Mix64(rng);
    ref.assign(n, 0u);
    size_t ref_count = 0;
    for (size_t t = 0; t < n; ++t) {
      if ((required & ~masks[t]) == 0) ref[ref_count++] = static_cast<uint32_t>(t);
    }
    got.assign(n, 0u);
    for (const bool pin : {true, false}) {
      simd::ScopedForceScalar guard(pin);
      const size_t got_count =
          simd::FilterMasks(masks.data(), n, required, got.data());
      ASSERT_EQ(got_count, ref_count)
          << "n=" << n << " pin=" << pin;
      for (size_t t = 0; t < ref_count; ++t) {
        EXPECT_EQ(got[t], ref[t]) << "n=" << n << " pin=" << pin;
      }
    }
  }
}

// ------------------------------------------------------ dispatch switches

TEST(SimdDispatchTest, ForceScalarDemotesActiveLevel) {
  const simd::Level supported = simd::SupportedLevel();
  EXPECT_EQ(simd::SupportedLevel(), supported);  // stable across calls
  {
    simd::ScopedForceScalar pin(true);
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  }
  {
    simd::ScopedForceScalar pin(false);
    EXPECT_EQ(simd::ActiveLevel(), supported);
  }
  EXPECT_NE(simd::LevelName(simd::Level::kScalar), nullptr);
  EXPECT_NE(simd::LevelName(simd::Level::kAvx2), nullptr);
  EXPECT_STRNE(simd::LevelName(simd::Level::kScalar),
               simd::LevelName(simd::Level::kAvx2));
}

}  // namespace
}  // namespace idxsel
