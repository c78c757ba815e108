#include "costmodel/what_if.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "kernel/simd.h"

namespace idxsel::costmodel {
namespace {

/// A cost or size the selection layers can safely consume: finite and
/// non-negative. Everything else (NaN, +/-Inf, negative) is backend
/// garbage — see WhatIfEngine's validation contract.
bool WellFormed(double v) { return std::isfinite(v) && v >= 0.0; }

#if defined(IDXSEL_OBS)
/// Times one backend invocation into the latency histogram; a no-op
/// (single relaxed atomic load) while runtime-disabled.
class BackendCallTimer {
 public:
  explicit BackendCallTimer(obs::Histogram* histogram)
      : histogram_(obs::Enabled() ? histogram : nullptr),
        start_ns_(histogram_ != nullptr ? obs::MonotonicNanos() : 0) {}
  ~BackendCallTimer() {
    if (histogram_ != nullptr) {
      histogram_->Record(obs::MonotonicNanos() - start_ns_);
    }
  }

 private:
  obs::Histogram* histogram_;
  uint64_t start_ns_;
};
#endif

}  // namespace

double WhatIfBackend::CostWithConfig(QueryId j,
                                     const IndexConfig& config) const {
  double best = BaseCost(j);
  for (const Index& k : config.indexes()) {
    best = std::min(best, CostWithIndex(j, k));
  }
  return best;
}

WhatIfEngine::WhatIfEngine(const workload::Workload* workload_in,
                           WhatIfBackend* backend)
    : workload_(workload_in), backend_(backend) {
  IDXSEL_CHECK(workload_ != nullptr);
  IDXSEL_CHECK(backend_ != nullptr);
#if defined(IDXSEL_OBS)
  obs::Registry& registry = obs::Registry::Default();
  obs_calls_ = registry.GetCounter("idxsel.whatif.calls");
  obs_hits_ = registry.GetCounter("idxsel.whatif.cache_hits");
  obs_skipped_ = registry.GetCounter("idxsel.whatif.skipped_inapplicable");
  obs_sanitized_ = registry.GetCounter("idxsel.rt.sanitized");
  obs_latency_ = registry.GetHistogram("idxsel.whatif.backend_latency_ns");
  obs_cost_entries_ = registry.GetGauge("idxsel.whatif.cost_cache_entries");
  obs_config_entries_ =
      registry.GetGauge("idxsel.whatif.config_cache_entries");
  obs_kernel_fast_ = registry.GetCounter("idxsel.kernel.fast_path_hits");
  obs_kernel_fallback_ =
      registry.GetCounter("idxsel.kernel.fallback_lookups");
#endif
  dense_ = std::make_unique<DenseState>(*workload_);
  const size_t n = workload_->num_queries();
  base_cost_ = std::make_unique<std::atomic<double>[]>(n);
  for (size_t j = 0; j < n; ++j) {
    base_cost_[j].store(std::numeric_limits<double>::quiet_NaN(),
                        std::memory_order_relaxed);
  }
  for (QueryId j = 0; j < n; ++j) {
    if (workload_->query(j).kind == workload::QueryKind::kWrite) {
      write_queries_.push_back(j);
    }
  }
  // Pre-size the hot caches: selection strategies touch roughly every
  // (applicable query, candidate-prefix) pair, which lands near a small
  // multiple of Q; size caches also see every candidate attribute tuple.
  cost_cache_.Reserve(n * 8);
  memory_cache_.Reserve(workload_->num_attributes() * 4);
  if (!write_queries_.empty()) {
    maintenance_cache_.Reserve(workload_->num_attributes() * 4);
  }
}

WhatIfEngine::~WhatIfEngine() {
  // Return this engine's entries to the live cache-size gauges so a
  // destroyed engine leaves no phantom entries behind.
  IDXSEL_OBS_ONLY(
      obs_cost_entries_->Add(-static_cast<int64_t>(cost_cache_.Size()));
      obs_config_entries_->Add(
          -static_cast<int64_t>(config_cost_cache_.Size()));)
}

double WhatIfEngine::Sanitize(double value, double fallback,
                              const char* what) {
  if (WellFormed(value)) return value;
  stats_.sanitized.fetch_add(1, std::memory_order_relaxed);
  IDXSEL_OBS_ONLY(obs_sanitized_->Add();)
  {
    common::MutexLock lock(&health_mu_);
    if (health_.ok()) {
      health_ = Status::Internal(std::string("what-if backend returned ") +
                                 (std::isnan(value)      ? "NaN"
                                  : std::isinf(value)    ? "infinite"
                                                         : "negative") +
                                 " value from " + what);
    }
  }
  return fallback;
}

double WhatIfEngine::BaseCost(QueryId j) {
  IDXSEL_DCHECK(j < workload_->num_queries());
  // Fast path: one relaxed load. The stored value is written exactly once
  // (under the stripe lock below) and never changes until
  // InvalidateCostCache, so a non-NaN read is always the final answer.
  double cached = base_cost_[j].load(std::memory_order_acquire);
  if (!std::isnan(cached)) {
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    IDXSEL_OBS_ONLY(obs_hits_->Add();)
    return cached;
  }
  common::MutexLock lock(&base_mu_[j % kBaseLockStripes]);
  cached = base_cost_[j].load(std::memory_order_relaxed);
  if (!std::isnan(cached)) {
    // Lost the race: another thread fetched it while we waited — still a
    // cache hit from this caller's perspective, same as serial re-lookup.
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    IDXSEL_OBS_ONLY(obs_hits_->Add();)
    return cached;
  }
  double cost;
  {
    IDXSEL_OBS_ONLY(BackendCallTimer timer(obs_latency_);)
    cost = backend_->BaseCost(j);
  }
  // No better estimate exists when f_j(0) itself is garbage; clamp to 0
  // so the query can never fabricate benefit (any index looks useless
  // against a free query).
  cost = Sanitize(cost, 0.0, "BaseCost");
  base_cost_[j].store(cost, std::memory_order_release);
  stats_.calls.fetch_add(1, std::memory_order_relaxed);
  IDXSEL_OBS_ONLY(obs_calls_->Add();)
  return cost;
}

bool WhatIfEngine::Applicable(QueryId j, const Index& k) const {
  const workload::Query& q = workload_->query(j);
  if (workload_->attribute(k.leading()).table != q.table) return false;
  return std::binary_search(q.attributes.begin(), q.attributes.end(),
                            k.leading());
}

Index WhatIfEngine::CanonicalCostIndex(QueryId j, const Index& k) const {
  IDXSEL_DCHECK(Applicable(j, k));
  // f_j(k) only depends on the coverable prefix as a *set*; normalize so
  // equivalent what-if calls hit the cache (INUM-style reuse).
  const auto& q_attrs = workload_->query(j).attributes;
  const size_t len = k.CoverablePrefixLength(q_attrs);
  IDXSEL_DCHECK(len >= 1);
  std::vector<workload::AttributeId> prefix(
      k.attributes().begin(), k.attributes().begin() + static_cast<long>(len));
  std::sort(prefix.begin(), prefix.end());
  return Index(std::move(prefix));
}

bool WhatIfEngine::PeekCachedCost(QueryId j, const Index& k,
                                  double* out) const {
  return cost_cache_.Get(Key{j, CanonicalCostIndex(j, k)}, out);
}

bool WhatIfEngine::PeekCachedMemory(const Index& k, double* out) const {
  return memory_cache_.Get(k, out);
}

double WhatIfEngine::CostWithIndex(QueryId j, const Index& k) {
  if (!Applicable(j, k)) {
    stats_.skipped_inapplicable.fetch_add(1, std::memory_order_relaxed);
    IDXSEL_OBS_ONLY(obs_skipped_->Add();)
    return BaseCost(j);
  }
  Key key{j, CanonicalCostIndex(j, k)};
  // The compute runs under the key's shard lock: exactly one backend call
  // per distinct key even when parallel strategies race for it. Lock
  // order is cost-shard -> base-stripe (via the sanitize fallback); no
  // path acquires them in the other direction.
  auto [cost, hit] = cost_cache_.GetOrCompute(key, [&] {
    double c;
    {
      IDXSEL_OBS_ONLY(BackendCallTimer timer(obs_latency_);)
      // Ask the backend about the *canonical* index, not k: the cached
      // value must be a pure function of the key. f_j is mathematically
      // equal on every index sharing the key (same coverable prefix
      // set), but the backend may round the two computations differently
      // in the last ulp — and racing strategies reach the same key
      // through different k's, so computing with k would make the cached
      // value depend on who got here first (CostWithConfig already
      // computes with its canonical key for the same reason).
      c = backend_->CostWithIndex(j, key.index);
    }
    // Garbage f_j(k) falls back to f_j(0): the index looks useless for the
    // query, never harmful and never spuriously beneficial. (Guarded so the
    // healthy path never issues the extra BaseCost lookup.)
    if (!WellFormed(c)) {
      c = Sanitize(c, BaseCost(j), "CostWithIndex");
    }
    stats_.calls.fetch_add(1, std::memory_order_relaxed);
    IDXSEL_OBS_ONLY(obs_calls_->Add(); obs_cost_entries_->Add(1);)
    return c;
  });
  if (hit) {
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    IDXSEL_OBS_ONLY(obs_hits_->Add();)
  }
  return cost;
}

double WhatIfEngine::IndexMemory(const Index& k) {
  // Garbage p_k becomes +infinity: an index of unknown size can never be
  // admitted under a finite budget (the conservative direction for a
  // feasibility check). Cached, so every feasibility test agrees.
  return memory_cache_
      .GetOrCompute(k,
                    [&] {
                      return Sanitize(
                          backend_->IndexMemory(k),
                          std::numeric_limits<double>::infinity(),
                          "IndexMemory");
                    })
      .first;
}

double WhatIfEngine::MaintenancePenalty(const Index& k) {
  if (write_queries_.empty()) return 0.0;
  return maintenance_cache_
      .GetOrCompute(k,
                    [&] {
                      double penalty = 0.0;
                      for (QueryId j : write_queries_) {
                        // Garbage maintenance estimates are dropped (0):
                        // negative ones would fabricate benefit, non-finite
                        // ones would poison every WorkloadCost total the
                        // index participates in.
                        penalty += workload_->query(j).frequency *
                                   Sanitize(backend_->MaintenanceCost(j, k),
                                            0.0, "MaintenanceCost");
                      }
                      return penalty;
                    })
      .first;
}

double WhatIfEngine::ConfigMemory(const IndexConfig& config) {
  double total = 0.0;
  for (const Index& k : config.indexes()) total += IndexMemory(k);
  return total;
}

Index WhatIfEngine::MaterializeIndex(kernel::IndexId id) const {
  const kernel::IndexArena& arena = dense_->arena;
  return Index(std::vector<workload::AttributeId>(
      arena.attrs(id), arena.attrs(id) + arena.width(id)));
}

double WhatIfEngine::CostWithIndexDense(QueryId j, kernel::IndexId id,
                                        uint32_t slot) {
  const double cached = dense_->costs.Get(id, slot);
  if (!std::isnan(cached)) {
    // Counting a cache hit here matches the keyed path exactly: a filled
    // dense slot implies the hashed cache holds the canonical key — it
    // was inserted when the slot was filled, or the slot was inherited
    // from a row whose canonical key (identical for every query that
    // cannot exploit the extension) already was. See doc/cost_model.md.
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    IDXSEL_OBS_ONLY(obs_hits_->Add(); obs_kernel_fast_->Add();)
    return cached;
  }
  IDXSEL_OBS_ONLY(obs_kernel_fallback_->Add();)
  const double cost = CostWithIndex(j, MaterializeIndex(id));
  const auto& posting = workload_->queries_with(dense_->arena.leading(id));
  IDXSEL_DCHECK(slot < posting.size() && posting[slot] == j);
  dense_->costs.Put(id, slot, static_cast<uint32_t>(posting.size()), cost);
  return cost;
}

bool WhatIfEngine::PeekDenseCostBlock(kernel::IndexId id,
                                      const uint32_t* slots, size_t n,
                                      double* out) const {
  if (n == 0) return true;
  const kernel::DenseCostTable::RowView row = dense_->costs.ViewRow(id);
  if (row.values == nullptr) return false;
#ifndef NDEBUG
  for (size_t t = 0; t < n; ++t) IDXSEL_DCHECK(slots[t] < row.len);
#endif
  return kernel::simd::GatherRowWarm(kernel::RawValues(row.values), slots, n,
                                     out);
}

bool WhatIfEngine::CostWithIndexBatch(kernel::IndexId id,
                                      const uint32_t* slots, size_t n,
                                      double* out) {
  if (n == 0) return true;
  const kernel::DenseCostTable::RowView row = dense_->costs.ViewRow(id);
  if (row.values == nullptr) return false;
#ifndef NDEBUG
  for (size_t t = 0; t < n; ++t) IDXSEL_DCHECK(slots[t] < row.len);
#endif
  if (!kernel::simd::GatherRowWarm(kernel::RawValues(row.values), slots, n,
                                   out)) {
    return false;
  }
  // Bulk equivalent of n dense hits in CostWithIndexDense: same counter
  // totals (the canonical keyed-cache entries provably exist for every
  // set slot — see the hit comment there), one fetch_add instead of n.
  stats_.cache_hits.fetch_add(n, std::memory_order_relaxed);
  IDXSEL_OBS_ONLY(obs_hits_->Add(n); obs_kernel_fast_->Add(n);)
  return true;
}

double WhatIfEngine::CostWithIndexDenseSlow(QueryId j, kernel::IndexId id) {
  const auto& posting = workload_->queries_with(dense_->arena.leading(id));
  const auto it = std::lower_bound(posting.begin(), posting.end(), j);
  IDXSEL_DCHECK(it != posting.end() && *it == j);
  return CostWithIndexDense(j, id,
                            static_cast<uint32_t>(it - posting.begin()));
}

double WhatIfEngine::IndexMemoryDense(kernel::IndexId id) {
  const double cached = dense_->memory.Get(id);
  if (!std::isnan(cached)) {
    IDXSEL_OBS_ONLY(obs_kernel_fast_->Add();)
    return cached;
  }
  IDXSEL_OBS_ONLY(obs_kernel_fallback_->Add();)
  // The keyed path sanitizes garbage sizes to +infinity (never NaN), so
  // every stored value reads back as "set".
  const double v = IndexMemory(MaterializeIndex(id));
  dense_->memory.Put(id, v);
  return v;
}

double WhatIfEngine::MaintenancePenaltyDense(kernel::IndexId id) {
  if (write_queries_.empty()) return 0.0;
  const double cached = dense_->maintenance.Get(id);
  if (!std::isnan(cached)) {
    IDXSEL_OBS_ONLY(obs_kernel_fast_->Add();)
    return cached;
  }
  IDXSEL_OBS_ONLY(obs_kernel_fallback_->Add();)
  const double v = MaintenancePenalty(MaterializeIndex(id));
  dense_->maintenance.Put(id, v);
  return v;
}

void WhatIfEngine::InheritCostRow(kernel::IndexId from, kernel::IndexId to) {
  IDXSEL_DCHECK(dense_->arena.leading(from) == dense_->arena.leading(to));
  const auto& posting = workload_->queries_with(dense_->arena.leading(to));
  dense_->costs.InheritRow(from, to, static_cast<uint32_t>(posting.size()));
}

double WhatIfEngine::WorkloadCost(const IndexConfig& config) {
  // One posting-list cursor per configured index: queries are visited in
  // ascending order, so applicability is a cursor advance instead of a
  // table lookup + binary search, and the cursor position doubles as the
  // dense row slot (posting membership <=> Applicable, because queries
  // only touch same-table attributes).
  struct Cursor {
    kernel::IndexId id;
    const std::vector<QueryId>* posting;
    uint32_t pos;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(config.indexes().size());
  for (const Index& k : config.indexes()) {
    const kernel::IndexId id = InternIndex(k);
    cursors.push_back(
        {id, &workload_->queries_with(dense_->arena.leading(id)), 0});
  }
  double total = 0.0;
  for (QueryId j = 0; j < workload_->num_queries(); ++j) {
    double best = BaseCost(j);
    for (Cursor& c : cursors) {
      const std::vector<QueryId>& posting = *c.posting;
      while (c.pos < posting.size() && posting[c.pos] < j) ++c.pos;
      if (c.pos >= posting.size() || posting[c.pos] != j) continue;
      best = std::min(best, CostWithIndexDense(j, c.id, c.pos));
    }
    total += workload_->query(j).frequency * best;
  }
  for (const Cursor& c : cursors) total += MaintenancePenaltyDense(c.id);
  return total;
}

double WhatIfEngine::CostWithConfig(QueryId j, const IndexConfig& config) {
  // Only same-table indexes can influence the query; canonicalizing the key
  // to that subset lets unrelated configuration changes hit the cache.
  const workload::TableId table = workload_->query(j).table;
  IndexConfig relevant;
  for (const Index& k : config.indexes()) {
    if (workload_->attribute(k.leading()).table == table) {
      relevant.Insert(k);
    }
  }
  if (relevant.empty()) {
    stats_.skipped_inapplicable.fetch_add(1, std::memory_order_relaxed);
    IDXSEL_OBS_ONLY(obs_skipped_->Add();)
    return BaseCost(j);
  }
  ConfigKey key{j, std::move(relevant)};
  auto [cost, hit] = config_cost_cache_.GetOrCompute(key, [&] {
    double c;
    {
      IDXSEL_OBS_ONLY(BackendCallTimer timer(obs_latency_);)
      c = backend_->CostWithConfig(j, key.config);
    }
    // Same fallback as CostWithIndex: a garbage f_j(I*) degrades to "the
    // configuration does not help query j".
    if (!WellFormed(c)) {
      c = Sanitize(c, BaseCost(j), "CostWithConfig");
    }
    stats_.calls.fetch_add(1, std::memory_order_relaxed);
    IDXSEL_OBS_ONLY(obs_calls_->Add(); obs_config_entries_->Add(1);)
    return c;
  });
  if (hit) {
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    IDXSEL_OBS_ONLY(obs_hits_->Add();)
  }
  return cost;
}

double WhatIfEngine::WorkloadCostMultiIndex(const IndexConfig& config) {
  double total = 0.0;
  for (QueryId j = 0; j < workload_->num_queries(); ++j) {
    total += workload_->query(j).frequency * CostWithConfig(j, config);
  }
  for (const Index& k : config.indexes()) total += MaintenancePenalty(k);
  return total;
}

void WhatIfEngine::InvalidateCostCache() {
  // Keep the live-size gauges in lockstep with the caches they describe.
  const size_t cost_erased = cost_cache_.Clear();
  const size_t config_erased = config_cost_cache_.Clear();
  IDXSEL_OBS_ONLY(
      obs_cost_entries_->Add(-static_cast<int64_t>(cost_erased));
      obs_config_entries_->Add(-static_cast<int64_t>(config_erased));)
#if !defined(IDXSEL_OBS)
  (void)cost_erased;
  (void)config_erased;
#endif
  // The dense table shadows the cost cache, so it must forget too (sizes
  // and maintenance penalties are kept, mirroring the keyed caches).
  dense_->costs.Invalidate();
  for (size_t j = 0; j < workload_->num_queries(); ++j) {
    base_cost_[j].store(std::numeric_limits<double>::quiet_NaN(),
                        std::memory_order_relaxed);
  }
}

void WhatIfEngine::InvalidateFrequencyDependentCaches() {
  // MaintenancePenalty(k) = sum over write queries of b_j *
  // MaintenanceCost(j, k); a frequency change stales exactly this cache
  // (and its dense mirror). Per-execution costs and sizes are untouched.
  maintenance_cache_.Clear();
  dense_->maintenance.Invalidate();
}

}  // namespace idxsel::costmodel
