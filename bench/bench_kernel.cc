// Ablation — the flat cost-evaluation kernel (src/kernel/): interned
// dense lookups vs hashed-cache lookups, posting-list mask-filter hit
// rates, Fig.6-sized H6 step latency with steady-state allocation counts
// per step from a global operator-new tally, the SIMD cost-reduction leg,
// and the QueryMasks allocation contract.
//
// Emits `bench_kernel.json` (sidecar, next to the other bench CSVs) and
// `BENCH_kernel.json` (same document; run the binary from the repo root
// to refresh the committed copy).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/format.h"
#include "kernel/kernel.h"
#include "kernel/simd.h"
#include "obs/report.h"

// ------------------------------------------------- allocation accounting
// Counts every global allocation in the process; the H6 section diffs the
// counter around SelectRecursive to show the steady-state step loop
// allocates O(1) per committed step instead of O(candidates).

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace idxsel::bench {
namespace {

using Clock = std::chrono::steady_clock;

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t at = std::min(v.size() - 1,
                             static_cast<size_t>(p * (v.size() - 1) + 0.5));
  return v[at];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The Fig. 6 workload (N = 100, Q = 100): large enough that an H6 round
/// touches thousands of (query, index) cost resolutions, small enough for
/// the quick bench mode.
workload::Workload Fig6Workload() {
  workload::ScalableWorkloadParams params;
  params.num_tables = 2;
  params.attributes_per_table = 50;
  params.queries_per_table = 50;
  return workload::GenerateScalableWorkload(params);
}

// ----------------------------------------- interned vs hashed lookups

struct LookupResult {
  double hashed_ns = 0.0;
  double dense_ns = 0.0;
  uint64_t lookups = 0;
};

/// Warm-cache cost resolution: the same (query, index) pairs priced
/// through the sharded hash cache (key canonicalization + Index hashing)
/// and through the dense IndexId-slot table. Width-1 and width-2 keys,
/// the mix an H6 append round produces.
LookupResult LookupMicrobench(costmodel::WhatIfEngine& engine,
                              const workload::Workload& w,
                              uint64_t target_lookups) {
  struct Pair {
    workload::QueryId j;
    costmodel::Index k;
    kernel::IndexId id;
    uint32_t slot;
  };
  std::vector<Pair> pairs;
  for (workload::AttributeId a = 0; a < w.num_attributes(); ++a) {
    const kernel::IndexId single = engine.InternIndex(costmodel::Index(a));
    const auto& posting = w.queries_with(a);
    // One width-2 extension per single, as append evaluation would make.
    kernel::IndexId ext = kernel::kInvalidIndexId;
    costmodel::Index ext_key(a);
    for (workload::QueryId j : posting) {
      for (workload::AttributeId b : w.query(j).attributes) {
        if (b == a) continue;
        ext = engine.arena().InternAppend(single, b);
        ext_key = engine.MaterializeIndex(ext);
        break;
      }
      if (ext != kernel::kInvalidIndexId) break;
    }
    for (uint32_t s = 0; s < posting.size(); ++s) {
      pairs.push_back(Pair{posting[s], costmodel::Index(a), single, s});
      if (ext != kernel::kInvalidIndexId) {
        pairs.push_back(Pair{posting[s], ext_key, ext, s});
      }
    }
  }

  // Warm both caches so the loops below measure lookup machinery, not
  // backend pricing.
  double sink = 0.0;
  for (const Pair& p : pairs) {
    sink += engine.CostWithIndex(p.j, p.k);
    sink += engine.CostWithIndexDense(p.j, p.id, p.slot);
  }

  LookupResult result;
  const uint64_t sweeps =
      std::max<uint64_t>(1, target_lookups / std::max<size_t>(1, pairs.size()));
  result.lookups = sweeps * pairs.size();

  const double hashed_start = NowSeconds();
  for (uint64_t r = 0; r < sweeps; ++r) {
    for (const Pair& p : pairs) sink += engine.CostWithIndex(p.j, p.k);
  }
  result.hashed_ns = (NowSeconds() - hashed_start) * 1e9 /
                     static_cast<double>(result.lookups);

  const double dense_start = NowSeconds();
  for (uint64_t r = 0; r < sweeps; ++r) {
    for (const Pair& p : pairs) {
      sink += engine.CostWithIndexDense(p.j, p.id, p.slot);
    }
  }
  result.dense_ns = (NowSeconds() - dense_start) * 1e9 /
                    static_cast<double>(result.lookups);

  if (sink == -1.0) std::printf("unreachable\n");  // keep the loops alive
  return result;
}

// ------------------------------------------- SIMD cost-reduction leg

bool AssertMode() {
  const char* v = std::getenv("IDXSEL_BENCH_ASSERT");
  return v != nullptr && v[0] == '1';
}

/// splitmix64: deterministic fill for the microbench blocks.
uint64_t Mix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct SimdResult {
  double benefit_ref_ns = 0.0;    ///< branchy serial loop (pre-SIMD shape)
  double benefit_simd_ns = 0.0;   ///< dispatched exact reduction
  double benefit_scalar_ns = 0.0; ///< scalar template (forced)
  double sum_ref_ns = 0.0;
  double sum_simd_ns = 0.0;
  uint64_t elements = 0;
};

/// The dense cost-reduction path before this layer existed: one branch
/// per element on data crafted to mispredict (~50/50 random gain signs,
/// random NaN-unset slots) — exactly the pattern an H6 move evaluation
/// streams through. The SIMD leg must beat this by >= 2x on an AVX2 host
/// (asserted under IDXSEL_BENCH_ASSERT=1); the branchless blends are the
/// point, not just the lane width.
double BranchyBenefit(const double* costs, const uint32_t* qids,
                      const double* best, const double* freq, size_t n) {
  double acc = 0.0;
  for (size_t t = 0; t < n; ++t) {
    const double gain = best[qids[t]] - costs[t];
    if (gain > 0.0) acc += freq[qids[t]] * gain;
  }
  return acc;
}

double BranchySum(const double* row, size_t n) {
  double acc = 0.0;
  for (size_t t = 0; t < n; ++t) {
    if (!std::isnan(row[t])) acc += row[t];
  }
  return acc;
}

SimdResult SimdMicrobench() {
  constexpr size_t kBlock = 1u << 16;  // L2-resident: measures the ALUs,
                                       // not DRAM
  constexpr size_t kNumQueries = 256;  // best/freq stay L1-resident
  const uint64_t passes = FullMode() ? 1200 : 300;

  std::vector<double> costs(kBlock), row(kBlock);
  std::vector<double> best(kNumQueries), freq(kNumQueries);
  std::vector<uint32_t> qids(kBlock);
  uint64_t rng = 0xb41c4ull;
  for (size_t j = 0; j < kNumQueries; ++j) {
    best[j] = 64.0 + static_cast<double>(Mix64(rng) % 1024) / 8.0;
    freq[j] = 1.0 + static_cast<double>(Mix64(rng) % 32);
  }
  for (size_t t = 0; t < kBlock; ++t) {
    // Costs straddle the best[] range -> gain signs flip unpredictably.
    costs[t] = static_cast<double>(Mix64(rng) % 2048) / 8.0;
    qids[t] = static_cast<uint32_t>(Mix64(rng) % kNumQueries);
    const uint64_t r = Mix64(rng);
    row[t] = (r & 3u) == 0 ? std::numeric_limits<double>::quiet_NaN()
                           : static_cast<double>(r % 4096) / 16.0;
  }

  SimdResult result;
  result.elements = passes * kBlock;
  const double denom = static_cast<double>(result.elements);
  double sink = 0.0;

  const auto time_leg = [&](auto&& fn) {
    const double start = NowSeconds();
    for (uint64_t p = 0; p < passes; ++p) sink += fn();
    return (NowSeconds() - start) * 1e9 / denom;
  };

  result.benefit_ref_ns = time_leg([&] {
    return BranchyBenefit(costs.data(), qids.data(), best.data(), freq.data(),
                          kBlock);
  });
  result.benefit_simd_ns = time_leg([&] {
    return kernel::simd::ReduceBenefitIndexed(costs.data(), qids.data(),
                                              best.data(), freq.data(),
                                              kBlock);
  });
  {
    kernel::simd::ScopedForceScalar pin(true);
    result.benefit_scalar_ns = time_leg([&] {
      return kernel::simd::ReduceBenefitIndexed(costs.data(), qids.data(),
                                                best.data(), freq.data(),
                                                kBlock);
    });
  }
  result.sum_ref_ns = time_leg([&] { return BranchySum(row.data(), kBlock); });
  result.sum_simd_ns =
      time_leg([&] { return kernel::simd::SumSetSlots(row.data(), kBlock); });
  if (sink == -1.0) std::printf("unreachable\n");

  // The SIMD legs are not just fast, they are the *same number* as the
  // branchy loop — recheck the contract on the bench's own data.
  const double ref =
      BranchyBenefit(costs.data(), qids.data(), best.data(), freq.data(),
                     kBlock);
  const double simd = kernel::simd::ReduceBenefitIndexed(
      costs.data(), qids.data(), best.data(), freq.data(), kBlock);
  if (std::memcmp(&ref, &simd, sizeof ref) != 0) {
    std::fprintf(stderr,
                 "bench_kernel: SIMD exact reduction diverged from the "
                 "serial loop (%.17g vs %.17g)\n",
                 ref, simd);
    std::exit(1);
  }
  return result;
}

// ------------------------------------- QueryMasks allocation accounting

/// QueryMasks construction is allocation-lean by contract (kernel.h): a
/// fixed number of container reservations, never a per-query temporary.
/// Build masks for two workload sizes and compare global-new deltas: the
/// counts must be equal (size-independent) and tiny.
struct MaskAllocResult {
  uint64_t small_allocs = 0;
  uint64_t large_allocs = 0;
  size_t small_queries = 0;
  size_t large_queries = 0;
};

MaskAllocResult QueryMasksAllocMicrobench() {
  const auto measure = [](const workload::Workload& w) {
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    kernel::QueryMasks masks(w);
    const uint64_t after = g_allocations.load(std::memory_order_relaxed);
    // Keep the object alive across the read so nothing is elided.
    if (masks.posting_size(0) == ~size_t{0}) std::printf("unreachable\n");
    return after - before;
  };
  workload::ScalableWorkloadParams params;
  params.num_tables = 2;
  params.attributes_per_table = 20;
  params.queries_per_table = 25;
  const workload::Workload small = workload::GenerateScalableWorkload(params);
  params.attributes_per_table = 50;
  params.queries_per_table = 200;
  const workload::Workload large = workload::GenerateScalableWorkload(params);

  MaskAllocResult result;
  result.small_queries = small.num_queries();
  result.large_queries = large.num_queries();
  result.small_allocs = measure(small);
  result.large_allocs = measure(large);
  return result;
}

// --------------------------------------------------- H6 step latency

struct H6Stats {
  std::vector<double> step_ms;  ///< one sample per committed h6.round
  double total_seconds = 0.0;
  uint64_t steps = 0;
  uint64_t whatif_calls = 0;
  uint64_t allocations = 0;        ///< warm reps only
  uint64_t fast_path_hits = 0;
  uint64_t fallback_lookups = 0;
  uint64_t filtered_queries = 0;
};

uint64_t CounterDelta(const obs::RunReport& report, const char* name) {
  const auto it = report.metrics.counters.find(name);
  return it == report.metrics.counters.end() ? 0 : it->second;
}

/// Runs H6 `reps` times on one engine (first rep cold — excluded from the
/// step samples — the rest steady-state warm) and collects per-round span
/// durations, kernel counters, and the allocation tally.
H6Stats RunH6(costmodel::WhatIfEngine& engine, double budget, int reps) {
  H6Stats stats;
  core::RecursiveOptions options;
  options.budget = budget;
  options.threads = 1;
  for (int rep = 0; rep < reps; ++rep) {
    obs::RunScope scope("bench_kernel.h6");
    const uint64_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    const double start = NowSeconds();
    const core::RecursiveResult r = core::SelectRecursive(engine, options);
    const double elapsed = NowSeconds() - start;
    const uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - allocs_before;
    const obs::RunReport report = scope.Finish();
    if (rep == 0) {
      stats.steps = r.trace.size();
      stats.whatif_calls = r.whatif_calls;
      stats.fast_path_hits =
          CounterDelta(report, "idxsel.kernel.fast_path_hits");
      stats.fallback_lookups =
          CounterDelta(report, "idxsel.kernel.fallback_lookups");
      stats.filtered_queries =
          CounterDelta(report, "idxsel.kernel.filtered_queries");
      continue;  // cold run: arena interning + backend pricing, not steady
    }
    stats.total_seconds += elapsed;
    stats.allocations += allocs;
    for (const obs::SpanRecord& span : report.spans) {
      if (std::strcmp(span.name, "h6.round") == 0) {
        stats.step_ms.push_back(static_cast<double>(span.duration_ns) / 1e6);
      }
    }
  }
  return stats;
}

// --------------------------------------------------------------- report

std::string JsonDocument(const workload::Workload& w, double budget_w,
                         const LookupResult& lookup, const H6Stats& h6,
                         const SimdResult& simd,
                         const MaskAllocResult& mask_allocs) {
  char buf[2048];
  std::string out = "{\n" + SidecarHeaderJson("idxsel.bench_kernel.v2");
  std::snprintf(buf, sizeof buf,
                "  \"workload\": {\"tables\": 2, \"attributes\": %zu, "
                "\"queries\": %zu, \"budget_w\": %.2f},\n",
                w.num_attributes(), w.num_queries(), budget_w);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"lookup\": {\"lookups\": %llu, \"hashed_ns\": %.1f, "
      "\"dense_ns\": %.1f, \"speedup\": %.2f},\n",
      static_cast<unsigned long long>(lookup.lookups), lookup.hashed_ns,
      lookup.dense_ns,
      lookup.dense_ns > 0.0 ? lookup.hashed_ns / lookup.dense_ns : 0.0);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"posting_filter\": {\"fast_path_hits\": %llu, "
      "\"fallback_lookups\": %llu, \"filtered_queries\": %llu, "
      "\"filter_rate\": %.4f},\n",
      static_cast<unsigned long long>(h6.fast_path_hits),
      static_cast<unsigned long long>(h6.fallback_lookups),
      static_cast<unsigned long long>(h6.filtered_queries),
      h6.fast_path_hits + h6.fallback_lookups + h6.filtered_queries > 0
          ? static_cast<double>(h6.filtered_queries) /
                static_cast<double>(h6.fast_path_hits + h6.fallback_lookups +
                                    h6.filtered_queries)
          : 0.0);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"h6\": {\"steps\": %llu, \"whatif_calls\": %llu, "
      "\"step_samples\": %zu, \"step_p50_ms\": %.4f, "
      "\"step_p95_ms\": %.4f, \"step_mean_ms\": %.4f, "
      "\"allocations_per_step\": %.1f},\n",
      static_cast<unsigned long long>(h6.steps),
      static_cast<unsigned long long>(h6.whatif_calls), h6.step_ms.size(),
      Percentile(h6.step_ms, 0.50), Percentile(h6.step_ms, 0.95),
      Mean(h6.step_ms),
      h6.step_ms.empty() ? 0.0
                         : static_cast<double>(h6.allocations) /
                               static_cast<double>(h6.step_ms.size()));
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"simd\": {\"level\": \"%s\", \"elements\": %llu, "
      "\"benefit_ref_ns\": %.2f, \"benefit_simd_ns\": %.2f, "
      "\"benefit_scalar_ns\": %.2f, \"benefit_speedup\": %.2f, "
      "\"sum_ref_ns\": %.2f, \"sum_simd_ns\": %.2f, "
      "\"sum_speedup\": %.2f},\n",
      kernel::simd::LevelName(kernel::simd::ActiveLevel()),
      static_cast<unsigned long long>(simd.elements), simd.benefit_ref_ns,
      simd.benefit_simd_ns, simd.benefit_scalar_ns,
      simd.benefit_simd_ns > 0.0 ? simd.benefit_ref_ns / simd.benefit_simd_ns
                                 : 0.0,
      simd.sum_ref_ns, simd.sum_simd_ns,
      simd.sum_simd_ns > 0.0 ? simd.sum_ref_ns / simd.sum_simd_ns : 0.0);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"querymasks\": {\"small_queries\": %zu, \"small_allocs\": %llu, "
      "\"large_queries\": %zu, \"large_allocs\": %llu}\n}\n",
      mask_allocs.small_queries,
      static_cast<unsigned long long>(mask_allocs.small_allocs),
      mask_allocs.large_queries,
      static_cast<unsigned long long>(mask_allocs.large_allocs));
  out += buf;
  return out;
}

void WriteJson(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernel: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("results written to %s\n", path.c_str());
}

void Run() {
  const int reps = FullMode() ? 9 : 5;
  const uint64_t target_lookups = FullMode() ? 8'000'000 : 2'000'000;
  const double budget_w = 0.5;  // deep enough to commit append (morph) steps

  workload::Workload w = Fig6Workload();
  std::printf(
      "Kernel ablation on the Fig. 6 workload: N=%zu, Q=%zu, w=%.2f, "
      "%d reps (first cold, excluded).\n\n",
      w.num_attributes(), w.num_queries(), budget_w, reps);

  // Interned vs hashed lookups (one warm engine).
  ModelSetup lookup_setup(w);
  const LookupResult lookup =
      LookupMicrobench(*lookup_setup.engine, w, target_lookups);
  std::printf(
      "warm cost lookups (%llu): hashed cache %.1f ns, dense table %.1f "
      "ns  -> %.2fx\n\n",
      static_cast<unsigned long long>(lookup.lookups), lookup.hashed_ns,
      lookup.dense_ns, lookup.hashed_ns / lookup.dense_ns);

  // H6 step latency on its own engine.
  const costmodel::CostModel model(&w);
  const double budget = model.Budget(budget_w);
  ModelSetup h6_setup(w);
  const H6Stats h6 = RunH6(*h6_setup.engine, budget, reps);

  TablePrinter table({"steps", "what-if calls", "step p50 (ms)",
                      "step p95 (ms)", "step mean (ms)", "allocs/step"});
  table.AddRow({FormatCount(static_cast<int64_t>(h6.steps)),
                FormatCount(static_cast<int64_t>(h6.whatif_calls)),
                FormatDouble(Percentile(h6.step_ms, 0.50), 4),
                FormatDouble(Percentile(h6.step_ms, 0.95), 4),
                FormatDouble(Mean(h6.step_ms), 4),
                FormatDouble(static_cast<double>(h6.allocations) /
                                 static_cast<double>(std::max<size_t>(
                                     1, h6.step_ms.size())),
                             1)});
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "posting-list filter: %llu fast-path hits, %llu fallback lookups, "
      "%llu queries mask-filtered per run\n\n",
      static_cast<unsigned long long>(h6.fast_path_hits),
      static_cast<unsigned long long>(h6.fallback_lookups),
      static_cast<unsigned long long>(h6.filtered_queries));

  // SIMD cost-reduction leg: dispatched vector reduction vs the branchy
  // serial loop it replaced, on mispredict-hostile data.
  const SimdResult simd = SimdMicrobench();
  const double benefit_speedup = simd.benefit_simd_ns > 0.0
                                     ? simd.benefit_ref_ns /
                                           simd.benefit_simd_ns
                                     : 0.0;
  const double sum_speedup =
      simd.sum_simd_ns > 0.0 ? simd.sum_ref_ns / simd.sum_simd_ns : 0.0;
  std::printf(
      "simd cost reduction (%s, %llu elems): benefit %.2f -> %.2f ns/elem "
      "(%.2fx, scalar template %.2f), row sum %.2f -> %.2f ns/elem "
      "(%.2fx)\n",
      kernel::simd::LevelName(kernel::simd::ActiveLevel()),
      static_cast<unsigned long long>(simd.elements), simd.benefit_ref_ns,
      simd.benefit_simd_ns, benefit_speedup, simd.benefit_scalar_ns,
      simd.sum_ref_ns, simd.sum_simd_ns, sum_speedup);

  // QueryMasks allocation contract: fixed reservation count, independent
  // of workload size.
  const MaskAllocResult mask_allocs = QueryMasksAllocMicrobench();
  std::printf(
      "querymasks construction: %llu allocs @ %zu queries, %llu allocs @ "
      "%zu queries (contract: equal and tiny)\n\n",
      static_cast<unsigned long long>(mask_allocs.small_allocs),
      mask_allocs.small_queries,
      static_cast<unsigned long long>(mask_allocs.large_allocs),
      mask_allocs.large_queries);

  if (AssertMode()) {
    if (kernel::simd::ActiveLevel() == kernel::simd::Level::kAvx2 &&
        benefit_speedup < 2.0) {
      std::fprintf(stderr,
                   "bench_kernel: FAIL simd benefit reduction %.2fx < 2x "
                   "over the scalar dense cost-reduction path\n",
                   benefit_speedup);
      std::exit(1);
    }
    if (mask_allocs.small_allocs != mask_allocs.large_allocs ||
        mask_allocs.small_allocs > 8) {
      std::fprintf(stderr,
                   "bench_kernel: FAIL QueryMasks allocations not "
                   "size-independent (%llu vs %llu) or not tiny — a "
                   "per-query temporary crept back into construction\n",
                   static_cast<unsigned long long>(mask_allocs.small_allocs),
                   static_cast<unsigned long long>(mask_allocs.large_allocs));
      std::exit(1);
    }
  }

  const std::string json =
      JsonDocument(w, budget_w, lookup, h6, simd, mask_allocs);
  WriteJson("bench_kernel.json", json);
  WriteJson("BENCH_kernel.json", json);
}

}  // namespace
}  // namespace idxsel::bench

int main() {
  idxsel::bench::ObsSession obs("bench_kernel");
  idxsel::bench::Run();
  return 0;
}
