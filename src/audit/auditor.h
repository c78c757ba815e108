// idxsel::audit — debug invariant auditor for the cost-evaluation caches.
//
// The dense kernel fast path (src/kernel) and the sharded hash caches
// (src/costmodel) answer the same what-if questions through two different
// layouts, and the pipeline's correctness argument is that they always
// agree (doc/cost_model.md: a filled dense slot implies the hashed cache
// holds the canonical key with the identical value). That coherence is
// invisible to black-box tests — a stale dense slot reads as a plausible
// cost — so this module re-derives it from first principles:
//
//   AuditCostTables    every set slot of every dense cost row must have a
//                      bit-identical twin in the hashed cost cache under
//                      the canonical (query, coverable-prefix-set) key;
//                      same for the dense memory table vs the memory cache
//   AuditArenaMasks    every interned tuple's precomputed mask equals
//                      MaskOf(attrs), width >= 1, and no attribute repeats
//   AuditPostingLists  Workload::queries_with(a) is strictly ascending and
//                      every listed query references a — the sortedness
//                      the posting-list cursors and dense slots rely on
//   AuditSimd          SIMD-vs-scalar cross-validation: every kernel/simd.h
//                      op must return bit-identical results from the AVX2
//                      path, the scalar template, and an independently
//                      written serial reference — over deterministic
//                      synthetic blocks and over the live dense rows /
//                      query masks
//
// Cost: one pass over the dense tables and postings, read-only peeks only
// (never computes, never touches stats), so an audit pass cannot perturb
// the call counts or cache contents it validates.
//
// Gating: call sites compile in when the build defines IDXSEL_AUDIT
// (CMake option IDXSEL_ENABLE_AUDIT, default ON) and fire at runtime when
// Enabled() — on under !NDEBUG, opt-in elsewhere via the environment
// variable IDXSEL_AUDIT=1 (how the sanitizer CI legs, which build
// RelWithDebInfo/NDEBUG, keep the auditor live). See doc/static_analysis.md.

#ifndef IDXSEL_AUDIT_AUDITOR_H_
#define IDXSEL_AUDIT_AUDITOR_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "costmodel/what_if.h"

namespace idxsel::audit {

namespace internal {

inline std::atomic<bool>& AuditFlag() {
  static std::atomic<bool> flag{[] {
    const char* v = std::getenv("IDXSEL_AUDIT");
#ifdef NDEBUG
    return v != nullptr && v[0] == '1';  // opt-in for optimized builds
#else
    return v == nullptr || v[0] != '0';  // debug default ON; =0 disables
#endif
  }()};
  return flag;
}

}  // namespace internal

/// True iff auditor call sites should run their passes.
inline bool Enabled() {
  return internal::AuditFlag().load(std::memory_order_relaxed);
}

inline void SetEnabled(bool on) {
  internal::AuditFlag().store(on, std::memory_order_relaxed);
}

/// RAII toggle for tests.
class ScopedAuditEnabled {
 public:
  explicit ScopedAuditEnabled(bool on) : previous_(Enabled()) {
    SetEnabled(on);
  }
  ~ScopedAuditEnabled() { SetEnabled(previous_); }
  ScopedAuditEnabled(const ScopedAuditEnabled&) = delete;
  ScopedAuditEnabled& operator=(const ScopedAuditEnabled&) = delete;

 private:
  bool previous_;
};

struct AuditReport {
  uint64_t ids_checked = 0;    ///< interned indexes visited
  uint64_t slots_checked = 0;  ///< dense slots / posting entries visited
  uint64_t violation_count = 0;
  /// Human-readable descriptions of the first violations (capped so a
  /// systematically broken table cannot OOM the report).
  std::vector<std::string> violations;
  static constexpr size_t kMaxMessages = 16;

  bool ok() const { return violation_count == 0; }
  /// "audit ok: N ids, M slots" or "audit FAILED: ..." with every
  /// retained violation on its own line.
  std::string Summary() const;

  void Merge(const AuditReport& other);
  void AddViolation(std::string message);
};

/// Read-only auditor over one engine's caches. Cheap to construct; holds
/// no state beyond the engine pointer, so call sites make one per pass.
///
/// Concurrency: runs read-only against live caches. Call it at quiescent
/// points (between H6 rounds, after a selection) — concurrent *writers*
/// could legitimately fill a dense slot after its hashed twin is read.
class InvariantAuditor {
 public:
  explicit InvariantAuditor(const costmodel::WhatIfEngine* engine);

  AuditReport AuditCostTables() const;
  AuditReport AuditArenaMasks() const;
  AuditReport AuditPostingLists() const;
  AuditReport AuditSimd() const;

  /// Every pass (cost tables, arena masks, posting lists, SIMD), merged.
  AuditReport AuditAll() const;

  /// Aborts with every retained violation on stderr when the report is
  /// not ok(); the macro-free sibling of IDXSEL_CHECK for audit results.
  static void CheckClean(const AuditReport& report);

 private:
  const costmodel::WhatIfEngine* engine_;
};

}  // namespace idxsel::audit

#endif  // IDXSEL_AUDIT_AUDITOR_H_
