// A textbook Algorithm 1 (heuristic H6) for differential testing.
//
// core::SelectRecursive evaluates each construction step through the
// dense kernel: interned ids, posting-list mask filters, batched SIMD
// reductions, best/second-best cost bookkeeping, delta-costed commits,
// parallel evaluation lanes. This file is the same algorithm written the
// obvious way, with none of that: every round re-derives each query's
// cost under the current selection, and every candidate move re-derives
// each query's cost under the hypothetical selection it would produce.
// The WhatIfEngine is used only as the f_j source (BaseCost,
// CostWithIndex, IndexMemory, MaintenancePenalty).
//
// Floating-point contract: the benefit of a move is
//
//   sum over queries j, in ascending order, of b_j * (cur_j - new_j)
//     - (eq. 3 reconfiguration delta) - (maintenance delta)
//
// and the ratio is benefit / memory_delta. Queries a move cannot affect
// contribute an exact +0.0, so this is the same sequence of IEEE
// operations the production selector performs on its smaller query sets;
// tests/reference_test.cc therefore compares step ratios and memory
// deltas bit for bit.
//
// Supported options: budget, max_steps, n_best_singles, max_index_width,
// min_ratio, existing + reconfiguration. Pair steps, pruning, swap repair,
// and Remark-2 evaluation are not modelled; threads and deadlines do not
// apply.

#ifndef IDXSEL_TESTS_REFERENCE_H6_H_
#define IDXSEL_TESTS_REFERENCE_H6_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/recursive_selector.h"
#include "costmodel/index.h"
#include "costmodel/what_if.h"

namespace idxsel::reference {

using core::ConstructionStep;
using core::RecursiveOptions;
using core::StepKind;
using costmodel::Index;
using costmodel::WhatIfEngine;

struct ReferenceResult {
  /// Committed steps: kind, before, after, memory_delta, ratio (objective
  /// fields are left at 0).
  std::vector<ConstructionStep> trace;
  costmodel::IndexConfig selection;
};

namespace internal {

/// Minimal benefit and budget slack; the production selector uses the same.
constexpr double kEps = 1e-9;
constexpr size_t kNone = ~size_t{0};

/// Cost of query j when `selection`, with position `replaced` (kNone for
/// none) swapped for `added` (empty for none), is available: the cheapest
/// of f_j(0) and every applicable index (one index per query).
inline double QueryCost(WhatIfEngine& engine, workload::QueryId j,
                        const std::vector<Index>& selection, size_t replaced,
                        const Index& added) {
  double cost = engine.BaseCost(j);
  for (size_t p = 0; p < selection.size(); ++p) {
    if (p == replaced) continue;
    cost = std::min(cost, engine.CostWithIndex(j, selection[p]));
  }
  if (!added.empty()) cost = std::min(cost, engine.CostWithIndex(j, added));
  return cost;
}

/// F-reduction of the hypothetical selection against `cur`.
inline double Benefit(WhatIfEngine& engine, const std::vector<double>& cur,
                      const std::vector<Index>& selection, size_t replaced,
                      const Index& added) {
  const workload::Workload& w = engine.workload();
  double benefit = 0.0;
  for (workload::QueryId j = 0; j < w.num_queries(); ++j) {
    const double next = QueryCost(engine, j, selection, replaced, added);
    benefit += w.query(j).frequency * (cur[j] - next);
  }
  return benefit;
}

/// R(I', I-bar) - R(I, I-bar) for adding `added` and removing `removed`
/// (nullptr for a new index), eq. (3).
inline double ReconfigDelta(const RecursiveOptions& opts, const Index* removed,
                            const Index& added) {
  if (opts.reconfiguration == nullptr) return 0.0;
  const auto existing = [&](const Index& k) {
    return opts.existing != nullptr && opts.existing->Contains(k);
  };
  double delta = 0.0;
  if (existing(added)) {
    delta -= opts.reconfiguration->drop_cost();  // no longer dropped
  } else {
    delta += opts.reconfiguration->CreateCost(added);
  }
  if (removed != nullptr) {
    if (existing(*removed)) {
      delta += opts.reconfiguration->drop_cost();  // now dropped
    } else {
      delta -= opts.reconfiguration->CreateCost(*removed);  // never built
    }
  }
  return delta;
}

}  // namespace internal

/// Algorithm 1: rank the single-attribute indexes (step 2), then commit
/// the best-ratio create (3a) or append (3b) move per round until none
/// improves the objective within the budget.
inline ReferenceResult SelectRecursiveReference(WhatIfEngine& engine,
                                                const RecursiveOptions& opts) {
  using internal::kEps;
  using internal::kNone;
  IDXSEL_CHECK(!opts.pair_steps && !opts.prune_unused &&
               !opts.multi_index_eval && !opts.swap_repair);
  const workload::Workload& w = engine.workload();
  std::vector<Index> selection;
  std::vector<double> cur(w.num_queries());
  for (workload::QueryId j = 0; j < w.num_queries(); ++j) {
    cur[j] = engine.BaseCost(j);
  }

  // Step 2 (and Remark 1(1)): rank singles by benefit per byte against
  // the empty selection; the n best stay eligible, in attribute order.
  std::vector<std::pair<double, workload::AttributeId>> ranked;
  for (workload::AttributeId i = 0; i < w.num_attributes(); ++i) {
    const Index k(i);
    const double benefit = internal::Benefit(engine, cur, selection, kNone, k);
    ranked.emplace_back(-benefit / std::max(1.0, engine.IndexMemory(k)), i);
  }
  std::sort(ranked.begin(), ranked.end());
  ranked.resize(std::min(opts.n_best_singles, ranked.size()));
  std::vector<workload::AttributeId> eligible;
  for (const auto& entry : ranked) eligible.push_back(entry.second);
  std::sort(eligible.begin(), eligible.end());

  ReferenceResult result;
  double used_memory = 0.0;
  while (result.trace.size() < opts.max_steps) {
    for (workload::QueryId j = 0; j < w.num_queries(); ++j) {
      cur[j] = internal::QueryCost(engine, j, selection, kNone, Index());
    }
    ConstructionStep best;
    size_t best_pos = kNone;
    bool have_best = false;
    // Keeps the best move: highest ratio, ties to the smaller index.
    const auto consider = [&](StepKind kind, size_t pos, const Index& after,
                              double benefit, double memory_delta) {
      if (!(benefit > kEps) || !(memory_delta > 0.0)) return;
      if (used_memory + memory_delta > opts.budget + kEps) return;
      const double ratio = benefit / memory_delta;
      if (have_best && (ratio < best.ratio ||
                        (ratio == best.ratio && !(after < best.after)))) {
        return;
      }
      have_best = true;
      best_pos = pos;
      best = ConstructionStep();
      best.kind = kind;
      if (pos != kNone) best.before = selection[pos];
      best.after = after;
      best.memory_delta = memory_delta;
      best.ratio = ratio;
    };

    // (3a) create {i}, for eligible i not already selected as {i}.
    for (workload::AttributeId i : eligible) {
      const Index k(i);
      if (std::count(selection.begin(), selection.end(), k) != 0) continue;
      const double benefit =
          internal::Benefit(engine, cur, selection, kNone, k) -
          internal::ReconfigDelta(opts, nullptr, k) -
          engine.MaintenancePenalty(k);
      consider(StepKind::kNewSingle, kNone, k, benefit, engine.IndexMemory(k));
    }

    // (3b) replace k by k ++ a, for every attribute a of a query that
    // contains all of k's attributes.
    for (size_t pos = 0; pos < selection.size(); ++pos) {
      const Index k = selection[pos];
      if (k.width() >= opts.max_index_width) continue;
      std::vector<workload::AttributeId> extensions;
      for (workload::QueryId j = 0; j < w.num_queries(); ++j) {
        const auto& q = w.query(j).attributes;
        const bool covers = std::all_of(
            k.attributes().begin(), k.attributes().end(),
            [&](workload::AttributeId a) {
              return std::binary_search(q.begin(), q.end(), a);
            });
        if (!covers) continue;
        for (workload::AttributeId a : q) {
          if (!k.Contains(a)) extensions.push_back(a);
        }
      }
      std::sort(extensions.begin(), extensions.end());
      extensions.erase(std::unique(extensions.begin(), extensions.end()),
                       extensions.end());
      for (workload::AttributeId a : extensions) {
        const Index k_ext = k.Append(a);
        const double benefit =
            internal::Benefit(engine, cur, selection, pos, k_ext) -
            internal::ReconfigDelta(opts, &k, k_ext) -
            (engine.MaintenancePenalty(k_ext) - engine.MaintenancePenalty(k));
        consider(StepKind::kAppend, pos, k_ext, benefit,
                 engine.IndexMemory(k_ext) - engine.IndexMemory(k));
      }
    }

    if (!have_best || best.ratio <= opts.min_ratio) break;
    if (best_pos == kNone) {
      selection.push_back(best.after);
    } else {
      selection[best_pos] = best.after;
    }
    used_memory += best.memory_delta;
    result.trace.push_back(best);
  }
  for (const Index& k : selection) result.selection.Insert(k);
  return result;
}

}  // namespace idxsel::reference

#endif  // IDXSEL_TESTS_REFERENCE_H6_H_
