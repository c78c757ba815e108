// Tests for Algorithm 1 (the recursive selector, H6): step semantics,
// invariants, extension options, and quality against the exact optimum.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "candidates/candidates.h"
#include "common/deadline.h"
#include "cophy/cophy.h"
#include "core/recursive_selector.h"
#include "costmodel/cost_model.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "workload/erp_generator.h"
#include "workload/scalable_generator.h"
#include "workload/tpcc.h"

namespace idxsel::core {
namespace {

using costmodel::CostModel;
using costmodel::ModelBackend;

struct TestEnv {
  workload::Workload w;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<ModelBackend> backend;
  std::unique_ptr<WhatIfEngine> engine;

  explicit TestEnv(uint32_t queries = 25, uint32_t attrs = 10,
                 uint64_t seed = 7) {
    workload::ScalableWorkloadParams params;
    params.num_tables = 2;
    params.attributes_per_table = attrs;
    params.queries_per_table = queries;
    params.seed = seed;
    w = workload::GenerateScalableWorkload(params);
    model = std::make_unique<CostModel>(&w);
    backend = std::make_unique<ModelBackend>(model.get());
    engine = std::make_unique<WhatIfEngine>(&w, backend.get());
  }

  RecursiveOptions Options(double budget_w) const {
    RecursiveOptions options;
    options.budget = model->Budget(budget_w);
    return options;
  }
};

TEST(RecursiveTest, ZeroBudgetSelectsNothing) {
  TestEnv s;
  const RecursiveResult r = SelectRecursive(*s.engine, s.Options(0.0));
  EXPECT_TRUE(r.selection.empty());
  EXPECT_TRUE(r.trace.empty());
  EXPECT_NEAR(r.objective, s.engine->WorkloadCost(costmodel::IndexConfig{}),
              1e-6);
}

TEST(RecursiveTest, BudgetNeverExceeded) {
  TestEnv s;
  for (double w : {0.05, 0.1, 0.2, 0.5}) {
    const RecursiveResult r = SelectRecursive(*s.engine, s.Options(w));
    EXPECT_LE(r.memory, s.model->Budget(w) + 1e-6);
    EXPECT_NEAR(r.memory, s.engine->ConfigMemory(r.selection), 1e-6);
  }
}

TEST(RecursiveTest, ObjectiveMatchesIndependentEvaluation) {
  TestEnv s;
  const RecursiveResult r = SelectRecursive(*s.engine, s.Options(0.3));
  EXPECT_NEAR(r.objective, s.engine->WorkloadCost(r.selection),
              r.objective * 1e-9);
}

TEST(RecursiveTest, ObjectiveDecreasesMonotonically) {
  TestEnv s;
  const RecursiveResult r = SelectRecursive(*s.engine, s.Options(0.4));
  ASSERT_FALSE(r.trace.empty());
  for (const ConstructionStep& step : r.trace) {
    if (step.kind == StepKind::kPrune) continue;
    EXPECT_LT(step.objective_after, step.objective_before);
    EXPECT_GT(step.ratio, 0.0);
    EXPECT_GT(step.memory_delta, 0.0);
  }
}

TEST(RecursiveTest, FirstStepIsBestSingleRatio) {
  TestEnv s;
  const RecursiveResult r = SelectRecursive(*s.engine, s.Options(0.4));
  ASSERT_FALSE(r.trace.empty());
  const ConstructionStep& first = r.trace.front();
  EXPECT_EQ(first.kind, StepKind::kNewSingle);
  ASSERT_EQ(first.after.width(), 1u);
  // No other single-attribute index has a better benefit/size ratio
  // against the empty selection.
  for (workload::AttributeId i = 0; i < s.w.num_attributes(); ++i) {
    double benefit = 0.0;
    for (workload::QueryId j : s.w.queries_with(i)) {
      const double gain = s.engine->BaseCost(j) -
                          s.engine->CostWithIndex(j, costmodel::Index(i));
      if (gain > 0.0) benefit += s.w.query(j).frequency * gain;
    }
    const double ratio =
        benefit / s.engine->IndexMemory(costmodel::Index(i));
    EXPECT_LE(ratio, first.ratio + first.ratio * 1e-9);
  }
}

TEST(RecursiveTest, MorphingReplacesTheExtendedIndex) {
  TestEnv s(60, 12);
  const RecursiveResult r = SelectRecursive(*s.engine, s.Options(0.5));
  bool saw_append = false;
  for (const ConstructionStep& step : r.trace) {
    if (step.kind != StepKind::kAppend) continue;
    saw_append = true;
    // The extension preserves the old index as a strict prefix.
    EXPECT_TRUE(step.after.HasPrefix(step.before));
    EXPECT_EQ(step.after.width(), step.before.width() + 1);
    // The replaced index is gone from the final selection unless it was
    // re-created later.
    // (The extended index may itself have been extended again, so we only
    // check prefix containment of some selected index.)
    bool prefix_survives = false;
    for (const costmodel::Index& k : r.selection.indexes()) {
      prefix_survives = prefix_survives || k.HasPrefix(step.before);
    }
    EXPECT_TRUE(prefix_survives);
  }
  EXPECT_TRUE(saw_append) << "workload produced no multi-attribute index";
}

TEST(RecursiveTest, FrontierIsMonotone) {
  TestEnv s;
  const RecursiveResult r = SelectRecursive(*s.engine, s.Options(0.5));
  for (size_t i = 1; i < r.frontier.size(); ++i) {
    EXPECT_GE(r.frontier[i].first, r.frontier[i - 1].first);   // memory up
    EXPECT_LE(r.frontier[i].second, r.frontier[i - 1].second); // cost down
  }
}

TEST(RecursiveTest, MaxStepsRespected) {
  TestEnv s;
  RecursiveOptions options = s.Options(0.5);
  options.max_steps = 3;
  const RecursiveResult r = SelectRecursive(*s.engine, options);
  EXPECT_LE(r.trace.size(), 3u);
}

TEST(RecursiveTest, MaxWidthRespected) {
  TestEnv s(60, 12);
  RecursiveOptions options = s.Options(0.6);
  options.max_index_width = 2;
  const RecursiveResult r = SelectRecursive(*s.engine, options);
  for (const costmodel::Index& k : r.selection.indexes()) {
    EXPECT_LE(k.width(), 2u);
  }
}

TEST(RecursiveTest, NBestSinglesRestrictsNewIndexes) {
  TestEnv s;
  RecursiveOptions options = s.Options(0.4);
  options.n_best_singles = 1;
  const RecursiveResult r = SelectRecursive(*s.engine, options);
  // Only one distinct leading attribute can appear via kNewSingle steps.
  std::set<workload::AttributeId> leads;
  for (const ConstructionStep& step : r.trace) {
    if (step.kind == StepKind::kNewSingle) leads.insert(step.after.leading());
  }
  EXPECT_LE(leads.size(), 1u);
}

TEST(RecursiveTest, RunnersUpRecorded) {
  TestEnv s;
  const RecursiveResult r = SelectRecursive(*s.engine, s.Options(0.3));
  // Remark 1(3): whenever at least two moves were available, the runner-up
  // is logged. There must be at least one logged alternative in a
  // multi-step run.
  ASSERT_GT(r.trace.size(), 1u);
  EXPECT_FALSE(r.runners_up.empty());
  for (const ConstructionStep& alt : r.runners_up) {
    EXPECT_GT(alt.ratio, 0.0);
  }
}

TEST(RecursiveTest, PruneUnusedDropsOnlyUnusedIndexes) {
  TestEnv s(60, 12);
  RecursiveOptions options = s.Options(0.5);
  options.prune_unused = true;
  const RecursiveResult pruned = SelectRecursive(*s.engine, options);
  options.prune_unused = false;
  const RecursiveResult plain = SelectRecursive(*s.engine, options);
  // Pruning never worsens the final objective (dropped indexes were unused)
  // and never uses more memory.
  EXPECT_LE(pruned.objective, plain.objective * (1.0 + 1e-9));
  EXPECT_LE(pruned.memory, plain.memory + 1e-6);
  EXPECT_NEAR(pruned.objective, s.engine->WorkloadCost(pruned.selection),
              pruned.objective * 1e-9);
}

TEST(RecursiveTest, PairStepsNeverWorse) {
  TestEnv s(40, 10);
  RecursiveOptions options = s.Options(0.3);
  const RecursiveResult plain = SelectRecursive(*s.engine, options);
  options.pair_steps = true;
  const RecursiveResult pairs = SelectRecursive(*s.engine, options);
  // Pair moves strictly enlarge the move set; with the same greedy rule the
  // result is not guaranteed better, but it must stay budget-feasible and
  // consistent.
  EXPECT_LE(pairs.memory, options.budget + 1e-6);
  EXPECT_NEAR(pairs.objective, s.engine->WorkloadCost(pairs.selection),
              pairs.objective * 1e-9);
}

TEST(RecursiveTest, SwapRepairFixesTheBudgetKnifeEdge) {
  // Constructed knife-edge: attribute `a` (4-byte) has the better
  // benefit-per-byte ratio, so greedy takes it and exhausts the budget;
  // attribute `y` (8-byte) has a *larger absolute* benefit but no longer
  // fits. The repair pass must evict (a) and install (y).
  workload::Workload w;
  const workload::TableId t = w.AddTable("t", 1'000'000);
  const workload::AttributeId a = w.AddAttribute(t, 1000, 4);
  const workload::AttributeId y = w.AddAttribute(t, 1000, 8);
  ASSERT_TRUE(w.AddQuery(t, {a}, 100.0).ok());
  ASSERT_TRUE(w.AddQuery(t, {y}, 70.0).ok());
  w.Finalize();
  const CostModel model(&w);
  ModelBackend backend(&model);
  WhatIfEngine engine(&w, &backend);

  RecursiveOptions options;
  // Fits either single index alone, not both.
  options.budget = 1.2e7;
  const RecursiveResult plain = SelectRecursive(engine, options);
  ASSERT_EQ(plain.selection.size(), 1u);
  EXPECT_EQ(plain.selection.indexes().front(), costmodel::Index(a))
      << "greedy must prefer the denser index first";

  options.swap_repair = true;
  const RecursiveResult repaired = SelectRecursive(engine, options);
  ASSERT_EQ(repaired.selection.size(), 1u);
  EXPECT_EQ(repaired.selection.indexes().front(), costmodel::Index(y));
  EXPECT_LT(repaired.objective, plain.objective);
  EXPECT_LE(repaired.memory, options.budget + 1e-6);
  EXPECT_NEAR(repaired.objective, engine.WorkloadCost(repaired.selection),
              repaired.objective * 1e-9);
  bool saw_swap = false;
  for (const ConstructionStep& step : repaired.trace) {
    saw_swap = saw_swap || step.kind == StepKind::kSwap;
  }
  EXPECT_TRUE(saw_swap);
}

TEST(RecursiveTest, SwapRepairNeverWorsensAcrossSeeds) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    TestEnv s(25, 10, seed);
    RecursiveOptions options = s.Options(0.2);
    const RecursiveResult plain = SelectRecursive(*s.engine, options);
    options.swap_repair = true;
    const RecursiveResult repaired = SelectRecursive(*s.engine, options);
    EXPECT_LE(repaired.objective, plain.objective * (1.0 + 1e-9))
        << "seed=" << seed;
    EXPECT_LE(repaired.memory, options.budget + 1e-6);
  }
}

TEST(RecursiveTest, MultiIndexEvalConsistent) {
  // Remark 2: the multi-index evaluation mode must stay budget-feasible,
  // agree with the engine's multi-index workload cost, and never be worse
  // than leaving the workload unindexed.
  TestEnv s(40, 10);
  RecursiveOptions options = s.Options(0.3);
  options.multi_index_eval = true;
  const RecursiveResult r = SelectRecursive(*s.engine, options);
  EXPECT_LE(r.memory, options.budget + 1e-6);
  EXPECT_NEAR(r.objective, s.engine->WorkloadCostMultiIndex(r.selection),
              r.objective * 1e-9);
  EXPECT_LE(r.objective, s.engine->WorkloadCost(costmodel::IndexConfig{}));
}

TEST(RecursiveTest, MultiIndexEvalNotWorseThanOneIndexEvaluation) {
  // Under the multi-index cost model, any selection is at most as expensive
  // as its one-index evaluation; the Remark-2 run must inherit this.
  TestEnv s(40, 10);
  RecursiveOptions options = s.Options(0.3);
  options.multi_index_eval = true;
  const RecursiveResult multi = SelectRecursive(*s.engine, options);
  EXPECT_LE(s.engine->WorkloadCostMultiIndex(multi.selection),
            s.engine->WorkloadCost(multi.selection) * (1.0 + 1e-9));
}

TEST(RecursiveTest, DeterministicAcrossRuns) {
  TestEnv s;
  const RecursiveResult r1 = SelectRecursive(*s.engine, s.Options(0.3));
  const RecursiveResult r2 = SelectRecursive(*s.engine, s.Options(0.3));
  EXPECT_EQ(r1.selection.ToString(), r2.selection.ToString());
  EXPECT_DOUBLE_EQ(r1.objective, r2.objective);
}

TEST(RecursiveTest, WhatIfCallVolumeNearTwoQTimesQBar) {
  // Section III-A: ~ q-bar * Q calls in the first step, ~ 2 * Q * q-bar
  // overall. Allow generous slack — the exact constant depends on the
  // workload shape.
  TestEnv s(100, 25, 3);
  s.engine->ResetStats();
  const RecursiveResult r = SelectRecursive(*s.engine, s.Options(0.2));
  const double qqbar =
      static_cast<double>(s.w.num_queries()) * s.w.mean_query_width();
  EXPECT_GT(r.whatif_calls, 0u);
  EXPECT_LT(static_cast<double>(r.whatif_calls), 4.0 * qqbar);
}

TEST(RecursiveTest, ReconfigurationCostsDiscourageChurn) {
  TestEnv s;
  // Existing selection: whatever a fresh run picks at w=0.2.
  const RecursiveResult fresh = SelectRecursive(*s.engine, s.Options(0.2));
  ASSERT_FALSE(fresh.selection.empty());

  costmodel::ReconfigurationParams params;
  params.create_factor = 1e6;  // prohibitively expensive index builds
  const costmodel::ReconfigurationModel reconfig(s.engine.get(), params);
  RecursiveOptions options = s.Options(0.2);
  options.existing = &fresh.selection;
  options.reconfiguration = &reconfig;
  const RecursiveResult rerun = SelectRecursive(*s.engine, options);
  // With astronomic creation costs, only pre-existing indexes are worth
  // selecting: every committed step must re-create an existing index.
  for (const costmodel::Index& k : rerun.selection.indexes()) {
    EXPECT_TRUE(fresh.selection.Contains(k)) << k.ToString();
  }
}

TEST(RecursiveTest, ReconfigurationStepObjectiveDropMatchesRatio) {
  // Eq. (3) with a drop cost: re-creating an index of the existing
  // selection saves its drop, morphing one away incurs it. The step
  // criterion must price exactly what the traced objective F + R charges,
  // so every step's objective drop equals ratio x memory_delta.
  TestEnv s;
  const RecursiveResult fresh = SelectRecursive(*s.engine, s.Options(0.2));
  ASSERT_FALSE(fresh.selection.empty());

  costmodel::ReconfigurationParams params;
  params.drop_cost =
      0.05 * s.engine->WorkloadCost(costmodel::IndexConfig{});
  const costmodel::ReconfigurationModel reconfig(s.engine.get(), params);
  RecursiveOptions options = s.Options(0.2);
  options.existing = &fresh.selection;
  options.reconfiguration = &reconfig;
  const RecursiveResult rerun = SelectRecursive(*s.engine, options);
  ASSERT_FALSE(rerun.trace.empty());
  size_t recreated = 0;
  for (const ConstructionStep& step : rerun.trace) {
    ASSERT_TRUE(step.kind == StepKind::kNewSingle ||
                step.kind == StepKind::kAppend);
    if (fresh.selection.Contains(step.after)) ++recreated;
    const double drop = step.objective_before - step.objective_after;
    EXPECT_NEAR(drop, step.ratio * step.memory_delta, 1e-9 * std::abs(drop))
        << step.after.ToString();
  }
  EXPECT_GT(recreated, 0u);  // the drop term was actually exercised
}

TEST(RecursiveTest, NearOptimalOnTractableInstances) {
  // Compare against CoPhy with the exhaustive candidate set (the paper's
  // optimality reference) on a small instance; H6 should be within a few
  // percent (the paper reports <= 3% end to end).
  TestEnv s(15, 6, 11);
  const candidates::CandidateSet cands =
      candidates::EnumerateAllCandidates(s.w, 4);
  const double budget = s.model->Budget(0.3);
  const cophy::CophyResult optimal =
      cophy::SolveCophy(*s.engine, cands, budget);
  ASSERT_TRUE(optimal.status.ok());

  RecursiveOptions options;
  options.budget = budget;
  const RecursiveResult h6 = SelectRecursive(*s.engine, options);
  // Compare achieved cost reductions (the quantity the paper's figures
  // plot): greedy construction can miss the last slice of improvement at a
  // budget knife-edge, which residual-cost ratios over-penalize on tiny
  // workloads.
  const double base = s.engine->WorkloadCost(costmodel::IndexConfig{});
  EXPECT_GE(base - h6.objective, 0.95 * (base - optimal.objective))
      << "H6 " << h6.objective << " vs optimal " << optimal.objective;
  EXPECT_GE(h6.objective, optimal.objective * (1.0 - 1e-9));
}

TEST(RecursiveTest, TpccTraceLooksLikeFigureOne) {
  const workload::NamedWorkload tpcc = workload::MakeTpccWorkload(100);
  const CostModel model(&tpcc.workload);
  ModelBackend backend(&model);
  WhatIfEngine engine(&tpcc.workload, &backend);
  RecursiveOptions options;
  options.budget = model.Budget(1.0);
  const RecursiveResult r = SelectRecursive(engine, options);
  // The run builds several indexes, at least one of them multi-attribute
  // (Figure 1 builds composite indexes on STOCK/ORD/ORDLN/...).
  EXPECT_GE(r.selection.size(), 5u);
  bool multi = false;
  for (const costmodel::Index& k : r.selection.indexes()) {
    multi = multi || k.width() > 1;
  }
  EXPECT_TRUE(multi);
  // The indexed workload must beat the unindexed baseline.
  EXPECT_LT(r.objective, engine.WorkloadCost(costmodel::IndexConfig{}));
}

// Property sweep: budget monotonicity of H6 across seeds.
class RecursiveBudgetTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecursiveBudgetTest, MoreBudgetNeverHurtsMaterially) {
  // Greedy construction is not perfectly monotone in the budget (a larger
  // budget can admit a high-ratio move that steers the path differently),
  // but material regressions would indicate a bug; allow 2% slack.
  TestEnv s(25, 10, GetParam());
  double previous = std::numeric_limits<double>::infinity();
  for (double w : {0.05, 0.1, 0.2, 0.4, 0.8}) {
    const RecursiveResult r = SelectRecursive(*s.engine, s.Options(w));
    EXPECT_LE(r.objective, previous * 1.02) << "w=" << w;
    previous = std::min(previous, r.objective);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecursiveBudgetTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// ---------------------------------------------------------------------------
// RecursiveSession: Algorithm 1 as a resumable object.
// ---------------------------------------------------------------------------

/// A randomized Example-1-shaped (several tables, multi-attribute queries)
/// or ERP-shaped (many small tables, mostly point accesses) instance. Every
/// run gets a fresh engine so what-if call counts start cold.
struct SessionEnv {
  workload::Workload w;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<ModelBackend> backend;

  SessionEnv(bool erp, uint64_t seed) {
    if (erp) {
      workload::ErpWorkloadParams params;
      params.num_tables = 30;
      params.total_attributes = 240;
      params.num_queries = 150;
      params.seed = seed;
      w = workload::GenerateErpWorkload(params);
    } else {
      workload::ScalableWorkloadParams params;
      params.num_tables = 3;
      params.attributes_per_table = 12;
      params.queries_per_table = 40;
      params.seed = seed;
      w = workload::GenerateScalableWorkload(params);
    }
    model = std::make_unique<CostModel>(&w);
    backend = std::make_unique<ModelBackend>(model.get());
  }

  std::unique_ptr<WhatIfEngine> Engine() const {
    return std::make_unique<WhatIfEngine>(&w, backend.get());
  }
};

/// SelectRecursive's loop, driven through the public session calls.
RecursiveResult RunSession(WhatIfEngine& engine,
                           const RecursiveOptions& options) {
  RecursiveSession session(engine, options);
  while (session.Propose(options.budget) != nullptr) session.Accept();
  return std::move(session).Finish();
}

/// Runs `run` with the journal sink installed; returns the journal bytes.
template <typename Run>
std::string JournalOf(const Run& run) {
  const bool previous = obs::JournalEnabled();
  obs::SetJournalEnabled(true);
  obs::JournalScope scope;
  run();
  const std::string bytes = obs::JournalToJsonl(scope.Finish());
  obs::SetJournalEnabled(previous);
  return bytes;
}

void ExpectSameStep(const ConstructionStep& a, const ConstructionStep& b,
                    const std::string& tag) {
  EXPECT_EQ(a.kind, b.kind) << tag;
  EXPECT_TRUE(a.before == b.before) << tag;
  EXPECT_TRUE(a.after == b.after) << tag;
  EXPECT_EQ(a.objective_before, b.objective_before) << tag;
  EXPECT_EQ(a.objective_after, b.objective_after) << tag;
  EXPECT_EQ(a.memory_delta, b.memory_delta) << tag;
  EXPECT_EQ(a.ratio, b.ratio) << tag;
}

void ExpectSameRun(const RecursiveResult& a, const RecursiveResult& b,
                   const std::string& tag) {
  EXPECT_TRUE(a.status.ok()) << tag;
  EXPECT_TRUE(b.status.ok()) << tag;
  EXPECT_TRUE(a.selection == b.selection) << tag;
  EXPECT_EQ(a.objective, b.objective) << tag;
  EXPECT_EQ(a.memory, b.memory) << tag;
  EXPECT_EQ(a.whatif_calls, b.whatif_calls) << tag;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << tag;
  for (size_t s = 0; s < a.trace.size(); ++s) {
    ExpectSameStep(a.trace[s], b.trace[s], tag + " step " + std::to_string(s));
  }
  ASSERT_EQ(a.runners_up.size(), b.runners_up.size()) << tag;
  for (size_t s = 0; s < a.runners_up.size(); ++s) {
    ExpectSameStep(a.runners_up[s], b.runners_up[s],
                   tag + " runner-up " + std::to_string(s));
  }
  EXPECT_EQ(a.frontier, b.frontier) << tag;
}

TEST(RecursiveSessionTest, ProposeAcceptReproducesSelectRecursiveBitwise) {
  for (bool erp : {false, true}) {
    for (uint64_t seed : {3u, 11u, 29u}) {
      const SessionEnv env(erp, seed);
      for (double budget_w : {0.05, 0.3}) {
        for (size_t threads : {1u, 4u}) {
          const std::string tag =
              std::string(erp ? "erp" : "example1") + " seed=" +
              std::to_string(seed) + " w=" + std::to_string(budget_w) +
              " threads=" + std::to_string(threads);
          RecursiveOptions options;
          options.budget = env.model->Budget(budget_w);
          options.threads = threads;
          RecursiveResult ref;
          RecursiveResult got;
          const std::string ref_journal = JournalOf([&] {
            ref = SelectRecursive(*env.Engine(), options);
          });
          const std::string got_journal =
              JournalOf([&] { got = RunSession(*env.Engine(), options); });
          ASSERT_FALSE(ref.trace.empty()) << tag;
#if defined(IDXSEL_OBS)
          EXPECT_FALSE(ref_journal.empty()) << tag;
#endif
          ExpectSameRun(ref, got, tag);
          EXPECT_EQ(ref_journal, got_journal) << tag;
        }
      }
    }
  }
}

TEST(RecursiveSessionTest, SmallerBudgetProposesTheNextStepOfAFreshRun) {
  // The sharded arbiter's invariant: once k steps are accepted under B,
  // proposing under any B' in [memory(), B] yields step k+1 of a fresh run
  // at B' (or nothing when that run stops after k steps), because a
  // smaller budget only rejects moves that already lost.
  for (bool erp : {false, true}) {
    const SessionEnv env(erp, 17);
    RecursiveOptions options;
    options.budget = env.model->Budget(0.3);
    std::unique_ptr<WhatIfEngine> engine = env.Engine();
    RecursiveSession session(*engine, options);
    size_t k = 0;
    for (;; ++k) {
      const double used = session.memory();
      ASSERT_LE(used, options.budget);
      for (double frac : {0.0, 0.3, 0.8}) {
        const double smaller = used + frac * (options.budget - used);
        const std::string tag = std::string(erp ? "erp" : "example1") +
                                " k=" + std::to_string(k) +
                                " frac=" + std::to_string(frac);
        RecursiveOptions fresh_options = options;
        fresh_options.budget = smaller;
        fresh_options.max_steps = k + 1;
        const RecursiveResult fresh =
            SelectRecursive(*env.Engine(), fresh_options);
        const ConstructionStep* proposal = session.Propose(smaller);
        ASSERT_GE(fresh.trace.size(), k) << tag;
        if (fresh.trace.size() == k) {
          EXPECT_EQ(proposal, nullptr) << tag;
          continue;
        }
        ASSERT_NE(proposal, nullptr) << tag;
        ConstructionStep expected = fresh.trace[k];
        expected.objective_after = expected.objective_before;  // not known yet
        ExpectSameStep(expected, *proposal, tag);
      }
      if (session.Propose(options.budget) == nullptr) break;
      session.Accept();
    }
    ASSERT_GE(k, 3u) << "budget too small to be interesting";
    // The extra proposals disturbed nothing: same run, same what-if calls.
    const RecursiveResult ref = SelectRecursive(*env.Engine(), options);
    ExpectSameRun(ref, std::move(session).Finish(), erp ? "erp" : "example1");
  }
}

#if defined(IDXSEL_OBS)
TEST(RecursiveSessionTest, ReproposalReplaysCachedMovesWithoutReScoring) {
  // Budget feasibility is a Consider-time filter, so proposing the same
  // round again (the sharded arbiter re-proposes at a shard's marginal
  // budget) finds every evaluation unit clean: nothing is re-scored and
  // no backend call is made. A commit then re-scores only the units of
  // the committed index's table; the other 29 tables' units replay.
  const SessionEnv env(/*erp=*/true, 17);
  RecursiveOptions options;
  options.budget = env.model->Budget(0.3);
  std::unique_ptr<WhatIfEngine> engine = env.Engine();
  obs::Registry& registry = obs::Registry::Default();
  obs::Counter* evaluated =
      registry.GetCounter("idxsel.selector.units_evaluated");
  obs::Counter* reused = registry.GetCounter("idxsel.selector.units_reused");
  RecursiveSession session(*engine, options);
  for (int k = 0; k < 4; ++k) {
    const uint64_t evaluated_before = evaluated->Value();
    const uint64_t reused_before = reused->Value();
    ASSERT_NE(session.Propose(options.budget), nullptr) << k;
    const uint64_t round_evaluated = evaluated->Value() - evaluated_before;
    EXPECT_GT(round_evaluated, 0u) << k;
    if (k > 0) {
      EXPECT_GT(reused->Value() - reused_before, round_evaluated) << k;
    }

    const uint64_t calls = engine->stats().calls;
    const uint64_t evaluated_mid = evaluated->Value();
    const ConstructionStep* again = session.Propose(0.5 * options.budget);
    const ConstructionStep* same = session.Propose(options.budget);
    EXPECT_EQ(evaluated->Value(), evaluated_mid) << k;
    EXPECT_EQ(engine->stats().calls, calls) << k;
    (void)again;
    ASSERT_NE(same, nullptr) << k;
    session.Accept();
  }
}
#endif

TEST(RecursiveSessionTest, DeadlineMidSessionYieldsNoProposal) {
  const SessionEnv env(/*erp=*/true, 5);
  rt::CancellationToken token;
  RecursiveOptions options;
  options.budget = env.model->Budget(0.3);
  options.deadline.set_cancellation(&token);
  std::unique_ptr<WhatIfEngine> engine = env.Engine();
  RecursiveSession session(*engine, options);
  std::vector<ConstructionStep> accepted;
  while (accepted.size() < 3) {
    const ConstructionStep* step = session.Propose(options.budget);
    ASSERT_NE(step, nullptr);
    accepted.push_back(*step);
    session.Accept();
  }
  const double used = session.memory();
  token.RequestCancel();
  EXPECT_EQ(session.Propose(options.budget), nullptr);
  EXPECT_EQ(session.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(session.memory(), used);

  const RecursiveResult result = std::move(session).Finish();
  EXPECT_EQ(result.status.code(), StatusCode::kTimeout);
  ASSERT_EQ(result.trace.size(), accepted.size());
  for (size_t s = 0; s < accepted.size(); ++s) {
    EXPECT_TRUE(result.trace[s].after == accepted[s].after) << s;
  }
  EXPECT_EQ(result.memory, used);
  EXPECT_LE(result.memory, options.budget);
  EXPECT_NEAR(result.memory, engine->ConfigMemory(result.selection), 1e-6);

  // Expired before it began: the session never touches the engine.
  const rt::Deadline expired = rt::Deadline::After(0.0);
  RecursiveOptions dead = options;
  dead.deadline = expired;
  std::unique_ptr<WhatIfEngine> cold = env.Engine();
  RecursiveSession dead_session(*cold, dead);
  EXPECT_EQ(dead_session.Propose(dead.budget), nullptr);
  const RecursiveResult dead_result = std::move(dead_session).Finish();
  EXPECT_EQ(dead_result.status.code(), StatusCode::kTimeout);
  EXPECT_TRUE(dead_result.trace.empty());
  EXPECT_EQ(cold->stats().calls, 0u);
}

}  // namespace
}  // namespace idxsel::core
