#include "audit/auditor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/check.h"
#include "kernel/kernel.h"
#include "kernel/simd.h"

namespace idxsel::audit {

namespace {

/// Bit-identical double comparison: the dense tables and the hashed
/// caches must hold the *same* computation's result, so even a 1-ulp
/// difference is a coherence bug, and NaN payloads must round-trip.
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

std::string BitsHex(double x) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(x)));
  return buf;
}

/// splitmix64 — the synthetic SIMD blocks must be reproducible across
/// runs and hosts, so the stream is seeded from the block size alone.
uint64_t Mix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Serial reference loops for the SIMD cross-validation, written exactly
// as the contracts in kernel/simd.h specify and deliberately NOT sharing
// code with simd_impl.h — a shared bug could not hide from a shared
// template, so the auditor re-derives each reduction independently.
// Min steps use MINPD tie semantics ((a < b) ? a : b) like both
// templates, which is the only tie order the contract promises.

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

double RefSumSetSlots(const double* row, size_t n) {
  double acc = 0.0;
  for (size_t t = 0; t < n; ++t) {
    acc += std::isnan(row[t]) ? 0.0 : row[t];
  }
  return acc;
}

double RefMinSetSlots(const double* row, size_t n) {
  double acc = std::numeric_limits<double>::infinity();
  for (size_t t = 0; t < n; ++t) {
    const double v =
        std::isnan(row[t]) ? std::numeric_limits<double>::infinity() : row[t];
    acc = acc < v ? acc : v;
  }
  return acc;
}

size_t RefFilterMasks(const uint64_t* masks, size_t n, uint64_t required,
                      uint32_t* out) {
  size_t count = 0;
  for (size_t t = 0; t < n; ++t) {
    if ((required & ~masks[t]) == 0) {
      out[count++] = static_cast<uint32_t>(t);
    }
  }
  return count;
}

/// Runs `fn` once per dispatch path — scalar pinned, then unpinned (AVX2
/// where the binary and CPU carry it, scalar again otherwise) — and
/// reports a violation unless both agree bit-for-bit with `ref`.
template <typename Fn>
void CheckBothPaths(AuditReport& report, const char* op, size_t n, double ref,
                    Fn&& fn) {
  double scalar = 0.0;
  {
    const kernel::simd::ScopedForceScalar pin(true);
    scalar = fn();
  }
  double dispatched = 0.0;
  {
    const kernel::simd::ScopedForceScalar unpin(false);
    dispatched = fn();
  }
  ++report.slots_checked;
  if (!SameBits(ref, scalar)) {
    report.AddViolation(std::string(op) + " (n=" + std::to_string(n) +
                        "): scalar template returned " + BitsHex(scalar) +
                        " but the serial reference is " + BitsHex(ref) +
                        " — the scalar fallback broke the exact "
                        "FP-reduction-order contract");
  }
  if (!SameBits(ref, dispatched)) {
    report.AddViolation(
        std::string(op) + " (n=" + std::to_string(n) + "): " +
        kernel::simd::LevelName(kernel::simd::SupportedLevel()) +
        " dispatch returned " + BitsHex(dispatched) +
        " but the serial reference is " + BitsHex(ref) +
        " — SIMD-vs-scalar cross-validation is no longer bit-identical");
  }
}

}  // namespace

std::string AuditReport::Summary() const {
  char buf[96];
  if (ok()) {
    std::snprintf(buf, sizeof(buf), "audit ok: %llu ids, %llu slots",
                  static_cast<unsigned long long>(ids_checked),
                  static_cast<unsigned long long>(slots_checked));
    return buf;
  }
  std::snprintf(buf, sizeof(buf),
                "audit FAILED: %llu violation(s) in %llu ids / %llu slots",
                static_cast<unsigned long long>(violation_count),
                static_cast<unsigned long long>(ids_checked),
                static_cast<unsigned long long>(slots_checked));
  std::string out = buf;
  for (const std::string& v : violations) {
    out += "\n  ";
    out += v;
  }
  if (violation_count > violations.size()) {
    out += "\n  ... (";
    out += std::to_string(violation_count - violations.size());
    out += " more)";
  }
  return out;
}

void AuditReport::Merge(const AuditReport& other) {
  ids_checked += other.ids_checked;
  slots_checked += other.slots_checked;
  violation_count += other.violation_count;
  for (const std::string& v : other.violations) {
    if (violations.size() >= kMaxMessages) break;
    violations.push_back(v);
  }
}

void AuditReport::AddViolation(std::string message) {
  ++violation_count;
  if (violations.size() < kMaxMessages) {
    violations.push_back(std::move(message));
  }
}

InvariantAuditor::InvariantAuditor(const costmodel::WhatIfEngine* engine)
    : engine_(engine) {
  IDXSEL_CHECK(engine != nullptr);
}

AuditReport InvariantAuditor::AuditCostTables() const {
  AuditReport report;
  const kernel::IndexArena& arena = engine_->arena();
  const workload::Workload& w = engine_->workload();
  const size_t n = arena.size();
  for (kernel::IndexId id = 0; id < n; ++id) {
    ++report.ids_checked;
    const costmodel::Index k = engine_->MaterializeIndex(id);
    const auto& posting = w.queries_with(arena.leading(id));

    // Dense cost row vs hashed cost cache under the canonical key.
    for (uint32_t slot = 0; slot < posting.size(); ++slot) {
      const double dense = engine_->PeekDenseCost(id, slot);
      if (std::isnan(dense)) continue;  // unset slot: nothing to validate
      ++report.slots_checked;
      const workload::QueryId j = posting[slot];
      double hashed = 0.0;
      if (!engine_->PeekCachedCost(j, k, &hashed)) {
        report.AddViolation(
            "dense cost slot (id=" + std::to_string(id) + ", query=" +
            std::to_string(j) +
            ") is set but the hashed cache has no entry for the canonical "
            "key — InheritCostRow copied a slot whose source was never "
            "filed, or canonicalization diverged");
        continue;
      }
      if (!SameBits(dense, hashed)) {
        report.AddViolation(
            "dense cost slot (id=" + std::to_string(id) + ", query=" +
            std::to_string(j) + ") holds " + std::to_string(dense) +
            " but the hashed cache holds " + std::to_string(hashed) +
            " — the two layouts answered the same what-if question "
            "differently");
      }
    }

    // Dense memory table vs hashed memory cache (keyed by the full index).
    const double dense_mem = engine_->PeekDenseMemory(id);
    if (!std::isnan(dense_mem)) {
      ++report.slots_checked;
      double hashed_mem = 0.0;
      if (!engine_->PeekCachedMemory(k, &hashed_mem)) {
        report.AddViolation("dense memory entry for id=" +
                            std::to_string(id) +
                            " is set but the hashed memory cache has no "
                            "entry for the index");
      } else if (!SameBits(dense_mem, hashed_mem)) {
        report.AddViolation(
            "dense memory entry for id=" + std::to_string(id) + " holds " +
            std::to_string(dense_mem) + " but the hashed cache holds " +
            std::to_string(hashed_mem));
      }
    }
  }
  return report;
}

AuditReport InvariantAuditor::AuditArenaMasks() const {
  AuditReport report;
  const kernel::IndexArena& arena = engine_->arena();
  const size_t n = arena.size();
  for (kernel::IndexId id = 0; id < n; ++id) {
    ++report.ids_checked;
    const uint32_t width = arena.width(id);
    const workload::AttributeId* attrs = arena.attrs(id);
    if (width == 0) {
      report.AddViolation("arena id=" + std::to_string(id) +
                          " has width 0 (empty tuples are not indexes)");
      continue;
    }
    const uint64_t expected = kernel::MaskOf(attrs, width);
    if (arena.mask(id) != expected) {
      report.AddViolation(
          "arena id=" + std::to_string(id) +
          " precomputed mask disagrees with MaskOf(attrs) — mask-based "
          "applicability filters are unsound for this tuple");
    }
    if (arena.leading(id) != attrs[0]) {
      report.AddViolation("arena id=" + std::to_string(id) +
                          " leading() is not attrs[0]");
    }
    // Index tuples never repeat an attribute; widths are tiny, so the
    // quadratic scan is cheaper than sorting a scratch copy.
    for (uint32_t u = 0; u < width; ++u) {
      for (uint32_t v = u + 1; v < width; ++v) {
        if (attrs[u] == attrs[v]) {
          report.AddViolation("arena id=" + std::to_string(id) +
                              " repeats attribute " +
                              std::to_string(attrs[u]));
        }
      }
    }
  }
  return report;
}

AuditReport InvariantAuditor::AuditPostingLists() const {
  AuditReport report;
  const workload::Workload& w = engine_->workload();
  for (workload::AttributeId a = 0; a < w.num_attributes(); ++a) {
    ++report.ids_checked;
    const auto& posting = w.queries_with(a);
    for (size_t i = 0; i < posting.size(); ++i) {
      ++report.slots_checked;
      if (i > 0 && posting[i - 1] >= posting[i]) {
        report.AddViolation(
            "posting list of attribute " + std::to_string(a) +
            " is not strictly ascending at position " + std::to_string(i) +
            " — posting-list cursors and dense row slots assume sorted, "
            "duplicate-free postings");
      }
      const auto& q_attrs = w.query(posting[i]).attributes;
      if (!std::binary_search(q_attrs.begin(), q_attrs.end(), a)) {
        report.AddViolation("posting list of attribute " +
                            std::to_string(a) + " lists query " +
                            std::to_string(posting[i]) +
                            " which does not reference the attribute");
      }
    }
  }
  return report;
}

AuditReport InvariantAuditor::AuditSimd() const {
  AuditReport report;
  namespace simd = kernel::simd;
  // The pass deliberately runs both template instantiations regardless of
  // a process-level IDXSEL_FORCE_SCALAR pin — on a host without AVX2 both
  // runs hit the scalar template and the cross-check degenerates to
  // scalar-vs-reference, which is still worth proving.

  // -- Synthetic blocks: deterministic values, random-looking NaN
  // patterns and mixed-sign gains, sizes straddling the 4-lane block
  // boundary and the scalar tail.
  constexpr size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 31, 64, 67};
  constexpr size_t kNumQueries = 97;
  std::vector<double> costs, cw, row;
  std::vector<double> best(kNumQueries), freq(kNumQueries);
  std::vector<uint32_t> qids, kept_ref, kept_got;
  std::vector<uint64_t> masks;
  for (const size_t n : kSizes) {
    ++report.ids_checked;
    uint64_t rng = 0x51d5e1ull + n;
    costs.resize(n);
    cw.resize(n);
    row.resize(n);
    qids.resize(n);
    masks.resize(n);
    for (size_t j = 0; j < kNumQueries; ++j) {
      best[j] = static_cast<double>(Mix64(rng) % 4096) / 16.0;
      freq[j] = 1.0 + static_cast<double>(Mix64(rng) % 64);
    }
    for (size_t t = 0; t < n; ++t) {
      costs[t] = static_cast<double>(Mix64(rng) % 4096) / 16.0;
      cw[t] = static_cast<double>(Mix64(rng) % 4096) / 16.0;
      qids[t] = static_cast<uint32_t>(Mix64(rng) % kNumQueries);
      const uint64_t r = Mix64(rng);
      row[t] = (r & 7u) == 0 ? std::numeric_limits<double>::quiet_NaN()
                             : static_cast<double>(r % 4096) / 16.0;
      masks[t] = Mix64(rng);
    }
    // Few required bits, so some masks cover and some don't.
    const uint64_t required = Mix64(rng) & Mix64(rng) & Mix64(rng);

    CheckBothPaths(report, "ReduceBenefitIndexed", n,
                   RefBenefit(costs.data(), qids.data(), best.data(),
                              freq.data(), n),
                   [&] {
                     return simd::ReduceBenefitIndexed(
                         costs.data(), qids.data(), best.data(), freq.data(),
                         n);
                   });
    CheckBothPaths(report, "ReduceAppendBenefit", n,
                   RefAppendBenefit(costs.data(), cw.data(), qids.data(),
                                    best.data(), freq.data(), n),
                   [&] {
                     return simd::ReduceAppendBenefit(costs.data(), cw.data(),
                                                      qids.data(), best.data(),
                                                      freq.data(), n);
                   });
    CheckBothPaths(report, "SumSetSlots", n, RefSumSetSlots(row.data(), n),
                   [&] { return simd::SumSetSlots(row.data(), n); });
    CheckBothPaths(report, "MinSetSlots", n, RefMinSetSlots(row.data(), n),
                   [&] { return simd::MinSetSlots(row.data(), n); });

    // FilterMasks: same kept count, same kept slots, same (ascending)
    // order from both dispatch paths.
    kept_ref.resize(n);
    kept_got.resize(n);
    const size_t ref_count =
        RefFilterMasks(masks.data(), n, required, kept_ref.data());
    for (int pin = 1; pin >= 0; --pin) {
      const simd::ScopedForceScalar scoped(pin == 1);
      const size_t got =
          simd::FilterMasks(masks.data(), n, required, kept_got.data());
      ++report.slots_checked;
      if (got != ref_count ||
          !std::equal(kept_ref.begin(),
                      kept_ref.begin() + static_cast<ptrdiff_t>(ref_count),
                      kept_got.begin())) {
        report.AddViolation(
            "FilterMasks (n=" + std::to_string(n) + ", " +
            simd::LevelName(simd::ActiveLevel()) + ") kept " +
            std::to_string(got) + " slot(s) but the serial filter keeps " +
            std::to_string(ref_count) +
            " — mask compaction diverged from the reference loop");
      }
    }
  }

  // -- Live dense state: the same cross-checks over every interned row
  // and the workload's real posting-order masks, so the ops are also
  // proven on the exact shapes (lengths, NaN layouts, mask mixes) this
  // selection actually produced.
  const kernel::IndexArena& arena = engine_->arena();
  const workload::Workload& w = engine_->workload();
  const kernel::QueryMasks qmasks(w);
  const size_t num_ids = arena.size();
  for (kernel::IndexId id = 0; id < num_ids; ++id) {
    ++report.ids_checked;
    const workload::AttributeId lead = arena.leading(id);
    const auto& posting = w.queries_with(lead);
    const size_t n = posting.size();
    row.resize(n);
    for (uint32_t slot = 0; slot < n; ++slot) {
      row[slot] = engine_->PeekDenseCost(id, slot);
    }
    CheckBothPaths(report, "SumSetSlots[dense row]", n,
                   RefSumSetSlots(row.data(), n),
                   [&] { return simd::SumSetSlots(row.data(), n); });
    CheckBothPaths(report, "MinSetSlots[dense row]", n,
                   RefMinSetSlots(row.data(), n),
                   [&] { return simd::MinSetSlots(row.data(), n); });

    kept_ref.resize(n);
    kept_got.resize(n);
    const size_t ref_count = RefFilterMasks(qmasks.posting_masks(lead), n,
                                            arena.mask(id), kept_ref.data());
    for (int pin = 1; pin >= 0; --pin) {
      const simd::ScopedForceScalar scoped(pin == 1);
      const size_t got = simd::FilterMasks(qmasks.posting_masks(lead), n,
                                           arena.mask(id), kept_got.data());
      ++report.slots_checked;
      if (got != ref_count ||
          !std::equal(kept_ref.begin(),
                      kept_ref.begin() + static_cast<ptrdiff_t>(ref_count),
                      kept_got.begin())) {
        report.AddViolation(
            "FilterMasks over live posting masks (id=" + std::to_string(id) +
            ", " + simd::LevelName(simd::ActiveLevel()) +
            ") diverged from the serial filter");
      }
    }
  }
  return report;
}

AuditReport InvariantAuditor::AuditAll() const {
  AuditReport report = AuditCostTables();
  report.Merge(AuditArenaMasks());
  report.Merge(AuditPostingLists());
  report.Merge(AuditSimd());
  return report;
}

void InvariantAuditor::CheckClean(const AuditReport& report) {
  if (report.ok()) return;
  std::fprintf(stderr, "%s\n", report.Summary().c_str());
  IDXSEL_CHECK(report.ok() && "invariant audit failed");
}

}  // namespace idxsel::audit
