// Sharded Algorithm 1 with a global budget arbiter.
//
// For the duration of one Select, each shard holds a core::RecursiveSession
// (resumable plain H6) on its private view. The arbiter asks every live
// shard for its next-move proposal, merges the proposals on
// benefit-per-byte ratio — exactly the step criterion of the global run —
// and commits the winner against the one shared budget: the winning
// shard's session Accept()s it, and that shard proposes again only when
// the arbiter next asks. A proposal is made under the shard's marginal
// budget committed_s + remaining of that moment; if other shards' commits
// later leave it no longer fitting, the shard re-proposes the same round
// at the new marginal budget — one evaluation pass over the shard
// engine's warm caches, no backend calls. Smaller budgets only reject
// moves that had already lost, so the re-proposal is the true next move.
//
// Exactness: on single-table-coupled workloads (every query touches one
// table — the model of Section II-A) the committed move sequence, the
// selection, the trace values, and the emitted journal records are
// bit-identical to unsharded H6 at any shard count and any thread count,
// provided the shared extensions are off (see the advisor's eligibility
// gate) and compression is off. doc/sharding.md carries the proof sketch
// and the two epsilon-boundary caveats (cross-table exact ratio ties,
// budget knife-edge FP reassociation).
//
// Work: a shard evaluates its own moves once per round it commits, plus
// its first proposal and its misfit re-proposals — ~(R + S + misfits)*M/S
// in total versus the global run's R*M (R rounds, M moves per round, S
// shards), which is why the sharded path wins wall-clock even
// single-threaded; bench_trajectory's shard ladder asserts it. Proposing
// lazily (never right after Accept) keeps the shard engines' key set equal
// to the unsharded run's, so what-if calls match it exactly.
//
// Journal discipline: inner per-shard H6 journals are suppressed
// (telemetry::ScopedJournalSuppress while the sessions begin) — shards run
// concurrently, so raw records would interleave. The arbiter emits its own
// lane ("shard"): one commit record per round plus a terminal stop record,
// none of whose fields depend on the shard or thread count.
// Shard-count-dependent numbers (shards used, misfit re-proposals) go to
// idxsel.shard.* telemetry and bench sidecars only.

#ifndef IDXSEL_SHARD_SHARDED_SELECTOR_H_
#define IDXSEL_SHARD_SHARDED_SELECTOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/recursive_selector.h"
#include "costmodel/index.h"
#include "costmodel/what_if.h"
#include "shard/partition.h"
#include "workload/compression.h"

namespace idxsel::shard {

struct ShardedOptions {
  /// Shard count (clamped to [1, query-bearing tables]).
  size_t shards = 1;
  /// Lanes for beginning the per-shard sessions and their first proposals
  /// (later proposals are serial — they happen inside the deterministic
  /// arbitration loop). 1 = serial.
  size_t threads = 1;
  /// Global commit cap / minimal improvement ratio / index width cap —
  /// same semantics as core::RecursiveOptions.
  size_t max_steps = std::numeric_limits<size_t>::max();
  double min_ratio = 0.0;
  size_t max_index_width = std::numeric_limits<size_t>::max();
  /// Per-shard workload compression, applied before any what-if call.
  /// Strictly per-table, so results stay shard-count-independent; kNone
  /// (the default) keeps the sharded path bit-identical to unsharded H6.
  workload::CompressionOptions compression{workload::CompressionMode::kNone};
  /// Test hook: decorates shard `s`'s id-translating view backend (e.g.
  /// with rt::FaultInjectingBackend for the chaos tests). The returned
  /// backend is owned by the selector; return nullptr to use the view
  /// directly. Must be deterministic per shard.
  std::function<std::unique_ptr<costmodel::WhatIfBackend>(
      size_t s, const costmodel::WhatIfBackend& view)>
      wrap_backend;
};

/// Shard-count-*dependent* run statistics — telemetry/bench material,
/// never journal material.
struct ShardedStats {
  size_t shards_used = 0;
  uint64_t arbiter_rounds = 0;  ///< committed moves
  uint64_t shard_runs = 0;      ///< core::RecursiveSessions this Select began
  uint64_t reruns = 0;          ///< misfit re-proposals at the marginal budget
  uint64_t queries_full = 0;        ///< shard-local templates pre-compression
  uint64_t queries_compressed = 0;  ///< templates actually selected over
  size_t degraded_shards = 0;   ///< shards whose engine sanitized garbage
};

struct ShardedResult {
  costmodel::IndexConfig selection;  ///< global ids
  /// Committed steps in global ids; objective_before/after thread the
  /// *full-workload* objective through the per-step benefit deltas.
  std::vector<core::ConstructionStep> trace;
  /// (memory, objective) after every commit — the H6 frontier curve.
  std::vector<std::pair<double, double>> frontier;
  double objective = 0.0;  ///< full-workload objective after all commits
  double memory = 0.0;     ///< bytes committed (<= budget)
  uint64_t whatif_calls = 0;  ///< backend calls across all shard engines
  ShardedStats stats;
  /// OK, or Timeout when the deadline cut arbitration short (the
  /// selection is then the best-so-far incumbent, still budget-feasible).
  Status status;
  /// Some shard's backend returned garbage (sanitized per-shard; the
  /// global plan stays budget-feasible — sanitized sizes are +inf and can
  /// never be committed).
  bool degraded = false;
};

/// Reusable sharded selector: partitions once, keeps per-shard engines
/// (and their warm caches) across Select() calls, and rebuilds only
/// shards marked dirty — the serve layer's incremental hook.
class ShardedSelector {
 public:
  /// Borrows `engine` (for the live workload and the global backend);
  /// must outlive the selector.
  ShardedSelector(costmodel::WhatIfEngine& engine,
                  const ShardedOptions& options);
  ~ShardedSelector();

  ShardedSelector(const ShardedSelector&) = delete;
  ShardedSelector& operator=(const ShardedSelector&) = delete;

  size_t shards() const { return set_.shards.size(); }

  /// The queries of `table` changed in the live workload (frequency
  /// shift); the owning shard is rebuilt from it on the next Select().
  /// Structural changes need a new selector (new workload object).
  void MarkDirty(workload::TableId table);

  /// One full selection under `budget`. `cost_before` is F(empty) on the
  /// full workload — the advisor computes it anyway — used as the
  /// objective baseline of trace and journal records.
  ShardedResult Select(double budget, double cost_before,
                       const rt::Deadline& deadline = {});

 private:
  struct ShardState;

  void RebuildShard(size_t s);

  costmodel::WhatIfEngine& engine_;
  ShardedOptions options_;
  ShardSet set_;
  std::vector<std::unique_ptr<ShardState>> states_;
};

/// One-shot convenience wrapper.
ShardedResult SelectSharded(costmodel::WhatIfEngine& engine,
                            const ShardedOptions& options, double budget,
                            double cost_before,
                            const rt::Deadline& deadline = {});

}  // namespace idxsel::shard

#endif  // IDXSEL_SHARD_SHARDED_SELECTOR_H_
