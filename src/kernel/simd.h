// idxsel::kernel::simd — runtime-dispatched vector layer under the dense
// kernel.
//
// The kernel's hot loops are bandwidth-bound streams over three flat
// shapes: NaN-sentinel dense cost rows (DenseCostTable), 64-bit query
// attribute masks (QueryMasks), and per-attribute benefit reductions over
// posting lists. This module vectorizes those streams 4 lanes at a time
// (AVX2, with a portable scalar fallback compiled from the same
// implementation template — see simd_impl.h) behind one-call entry points
// that the selector, the what-if engine, the auditor, and the benches
// share.
//
// Dispatch model. The active level is decided at run time:
//
//   * kAvx2 when the binary carries the AVX2 translation unit (CMake
//     compiles only simd_avx2.cc with -mavx2, so the rest of the binary
//     stays portable) AND the CPU reports AVX2 AND scalar is not forced;
//   * kScalar otherwise.
//
// `IDXSEL_FORCE_SCALAR=1` (env, read once) or SetForceScalar /
// ScopedForceScalar (tests, A/B benches) pins the scalar path so both
// sides of the dispatch can be exercised on one machine.
//
// FP-reduction-order contract. Every reduction here is
// bit-identical to the plain serial loop it replaces: lanes are combined
// with per-element IEEE ops (identical in scalar and AVX2) and the final
// accumulation folds lanes horizontally in ascending element order —
// i.e. the exact order the scalar loop adds them. Excluded terms
// (NaN-unset slots, non-positive gains) are handled branchlessly by
// blending the term to +0.0 before the add (or +inf before a min), which
// is bit-identical to skipping because accumulators start at +0.0 and
// every retained term is finite (the engine sanitizes backend garbage
// before it reaches a dense row). This is what keeps the audit layer's
// SIMD-vs-scalar cross-validation and the plain-loop reference selector
// (tests/reference_h6.h) byte-identical. See doc/cost_model.md ("SIMD
// under the kernel").
//
// Thread-safety: all entry points are pure functions over caller-owned
// memory; the force-scalar switch is a relaxed atomic sampled per call.

#ifndef IDXSEL_KERNEL_SIMD_H_
#define IDXSEL_KERNEL_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

namespace idxsel::kernel::simd {

/// Vector width of the implementation (doubles per register block).
inline constexpr size_t kLanes = 4;

enum class Level : uint8_t {
  kScalar = 0,  ///< portable fallback (same template, plain loops)
  kAvx2 = 1,    ///< 256-bit AVX2 lanes
};

const char* LevelName(Level level);

/// Highest level this binary + CPU can run (ignores the force-scalar
/// override). kScalar when the AVX2 TU was not compiled in or the CPU
/// lacks AVX2.
Level SupportedLevel();

/// The level dispatched on the next call: SupportedLevel(), demoted to
/// kScalar while force-scalar is set.
Level ActiveLevel();

// -- Dispatch overrides -----------------------------------------------------

namespace internal {

inline std::atomic<bool>& ForceScalarFlag() {
  static std::atomic<bool> flag{[] {
    const char* v = std::getenv("IDXSEL_FORCE_SCALAR");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }()};
  return flag;
}

}  // namespace internal

/// True while dispatch is pinned to the scalar template (env
/// IDXSEL_FORCE_SCALAR=1 or SetForceScalar(true)).
inline bool ForceScalar() {
  return internal::ForceScalarFlag().load(std::memory_order_relaxed);
}

inline void SetForceScalar(bool on) {
  internal::ForceScalarFlag().store(on, std::memory_order_relaxed);
}

/// RAII pin to the scalar path for dispatch-equivalence tests.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on) : previous_(ForceScalar()) {
    SetForceScalar(on);
  }
  ~ScopedForceScalar() { SetForceScalar(previous_); }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  bool previous_;
};

// -- Reductions -------------------------------------------------------------
//
// Bit-identical to the serial loop written in each doc comment.

/// Benefit of a single-attribute candidate over a posting list:
///
///   for (t = 0; t < n; ++t) {
///     gain = best[qids[t]] - costs[t];
///     if (gain > 0) acc += freq[qids[t]] * gain;
///   }
///
/// `costs` is the per-slot cost array (posting order), `qids` the posting
/// list itself, `best`/`freq` are query-indexed tables.
double ReduceBenefitIndexed(const double* costs, const uint32_t* qids,
                            const double* best, const double* freq, size_t n);

/// Benefit of one append candidate over its affected-query block:
///
///   for (t = 0; t < n; ++t)
///     acc += freq[qids[t]] * (best[qids[t]] - min(cw[t], costs[t]));
///
/// `costs` are the candidate's dense-row values (gathered warm by
/// WhatIfEngine::CostWithIndexBatch), `cw` the per-query cost without the
/// replaced index, both packed in block order.
double ReduceAppendBenefit(const double* costs, const double* cw,
                           const uint32_t* qids, const double* best,
                           const double* freq, size_t n);

/// Sum of the set (non-NaN) slots of a dense row, in slot order:
///
///   for (t = 0; t < n; ++t) if (!isnan(row[t])) acc += row[t];
///
/// NaN lanes are blended to +0.0 (bit-identical to the skip).
double SumSetSlots(const double* row, size_t n);

/// Minimum over the set slots of a dense row (+inf when all unset):
///
///   acc = +inf; for (t = 0; t < n; ++t) if (!isnan(row[t])) acc = min(acc, row[t]);
///
/// NaN lanes are blended to +inf (the identity of min).
double MinSetSlots(const double* row, size_t n);

// -- Mask filtering ---------------------------------------------------------

/// Compacts the posting slots whose query mask covers `required`:
/// keeps slot t iff (required & ~masks[t]) == 0 — the kernel's one-sided
/// "every required attribute maybe-present" test, 4 masks per step.
/// Writes kept slot indices (ascending) to `out` (capacity >= n);
/// returns the kept count.
size_t FilterMasks(const uint64_t* masks, size_t n, uint64_t required,
                   uint32_t* out);

// -- Dense-row gathers ------------------------------------------------------

/// Gathers row[slots[t]] into out[t] for t in [0, n). Returns true iff
/// every gathered value is set (non-NaN); on false, `out` contents are
/// unspecified and nothing else happened — the caller falls back to the
/// one-at-a-time path that preserves exact backend call order.
bool GatherRowWarm(const double* row, const uint32_t* slots, size_t n,
                   double* out);

}  // namespace idxsel::kernel::simd

#endif  // IDXSEL_KERNEL_SIMD_H_
