// Implementation template of idxsel::kernel::simd — textually included by
// both translation units of the dispatch:
//
//   * simd.cc       (scalar fallback; no special flags)
//   * simd_avx2.cc  (AVX2; the only file CMake compiles with -mavx2)
//
// Each definer sets IDXSEL_SIMD_IMPL_NAMESPACE (scalar_impl / avx2_impl)
// and IDXSEL_SIMD_IMPL_AVX2 (0 / 1) before inclusion. Everything below
// the Vec abstraction is ONE shared algorithm body: the two paths differ
// only in how a 4-lane block is loaded, blended, and folded, which is
// what makes the scalar path a true reference — same term order, same
// blends, same horizontal fold — and the bit-identity contract of
// simd.h provable by construction (and re-proven by tests/simd_test.cc
// and audit::InvariantAuditor at run time).
//
// This header is internal to src/kernel/simd*; it is not installed and
// must not be included anywhere else (idxsel_lint `simd-confinement`).

#if !defined(IDXSEL_SIMD_IMPL_NAMESPACE) || !defined(IDXSEL_SIMD_IMPL_AVX2)
#error "simd_impl.h is an implementation template; define the impl macros"
#endif

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#if IDXSEL_SIMD_IMPL_AVX2
#include <immintrin.h>
#endif

#include "kernel/simd.h"

namespace idxsel::kernel::simd {
namespace IDXSEL_SIMD_IMPL_NAMESPACE {

// -- 4-lane block abstraction ----------------------------------------------

#if IDXSEL_SIMD_IMPL_AVX2

struct Vec {
  __m256d v;

  static Vec Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static Vec Broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static Vec Gather(const double* base, const uint32_t* idx) {
    const __m128i vindex =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    return {_mm256_i32gather_pd(base, vindex, 8)};
  }
  static Vec Sub(Vec a, Vec b) { return {_mm256_sub_pd(a.v, b.v)}; }
  static Vec Mul(Vec a, Vec b) { return {_mm256_mul_pd(a.v, b.v)}; }
  /// Elementwise (a < b) ? a : b — MINPD semantics in both templates.
  static Vec Min(Vec a, Vec b) { return {_mm256_min_pd(a.v, b.v)}; }
  /// term where gain > 0, else +0.0 (ordered compare: NaN gain -> +0.0).
  static Vec KeepIfGtZero(Vec gain, Vec term) {
    const __m256d keep =
        _mm256_cmp_pd(gain.v, _mm256_setzero_pd(), _CMP_GT_OQ);
    return {_mm256_and_pd(keep, term.v)};
  }
  /// x where x is ordered (non-NaN), else `fill`.
  static Vec FillNaN(Vec x, Vec fill) {
    const __m256d unord = _mm256_cmp_pd(x.v, x.v, _CMP_UNORD_Q);
    return {_mm256_blendv_pd(x.v, fill.v, unord)};
  }
  /// In-order horizontal fold: acc + lane0 + lane1 + lane2 + lane3, each
  /// add a separate rounding step — the exact serial-loop order.
  static double FoldAdd(double acc, Vec x) {
    const __m128d lo = _mm256_castpd256_pd128(x.v);
    const __m128d hi = _mm256_extractf128_pd(x.v, 1);
    acc += _mm_cvtsd_f64(lo);
    acc += _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
    acc += _mm_cvtsd_f64(hi);
    acc += _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
    return acc;
  }
  /// In-order horizontal min fold with MINPD step semantics.
  static double FoldMin(double acc, Vec x) {
    alignas(32) double lane[kLanes];
    _mm256_store_pd(lane, x.v);
    for (size_t t = 0; t < kLanes; ++t) {
      acc = acc < lane[t] ? acc : lane[t];
    }
    return acc;
  }
  static Vec Zero() { return {_mm256_setzero_pd()}; }
};

/// Keep bits (bit t set iff (required & ~masks[t]) == 0) for one 4-mask
/// block of the QueryMasks filter.
inline uint32_t KeepBits4(const uint64_t* masks, uint64_t required) {
  const __m256i m =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(masks));
  const __m256i req = _mm256_set1_epi64x(static_cast<int64_t>(required));
  // ANDNOT(m, req) = req & ~m: the attributes required but maybe-absent.
  const __m256i missing = _mm256_andnot_si256(m, req);
  const __m256i keep = _mm256_cmpeq_epi64(missing, _mm256_setzero_si256());
  return static_cast<uint32_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(keep)));
}

#else  // scalar template

struct Vec {
  double v[kLanes];

  static Vec Load(const double* p) {
    Vec r;
    for (size_t t = 0; t < kLanes; ++t) r.v[t] = p[t];
    return r;
  }
  static Vec Broadcast(double x) {
    Vec r;
    for (size_t t = 0; t < kLanes; ++t) r.v[t] = x;
    return r;
  }
  static Vec Gather(const double* base, const uint32_t* idx) {
    Vec r;
    for (size_t t = 0; t < kLanes; ++t) r.v[t] = base[idx[t]];
    return r;
  }
  static Vec Sub(Vec a, Vec b) {
    Vec r;
    for (size_t t = 0; t < kLanes; ++t) r.v[t] = a.v[t] - b.v[t];
    return r;
  }
  static Vec Mul(Vec a, Vec b) {
    Vec r;
    for (size_t t = 0; t < kLanes; ++t) r.v[t] = a.v[t] * b.v[t];
    return r;
  }
  static Vec Min(Vec a, Vec b) {
    Vec r;
    for (size_t t = 0; t < kLanes; ++t) {
      r.v[t] = a.v[t] < b.v[t] ? a.v[t] : b.v[t];
    }
    return r;
  }
  static Vec KeepIfGtZero(Vec gain, Vec term) {
    Vec r;
    for (size_t t = 0; t < kLanes; ++t) {
      r.v[t] = gain.v[t] > 0.0 ? term.v[t] : 0.0;
    }
    return r;
  }
  static Vec FillNaN(Vec x, Vec fill) {
    Vec r;
    for (size_t t = 0; t < kLanes; ++t) {
      r.v[t] = std::isnan(x.v[t]) ? fill.v[t] : x.v[t];
    }
    return r;
  }
  static double FoldAdd(double acc, Vec x) {
    for (size_t t = 0; t < kLanes; ++t) acc += x.v[t];
    return acc;
  }
  static double FoldMin(double acc, Vec x) {
    for (size_t t = 0; t < kLanes; ++t) {
      acc = acc < x.v[t] ? acc : x.v[t];
    }
    return acc;
  }
  static Vec Zero() { return Broadcast(0.0); }
};

inline uint32_t KeepBits4(const uint64_t* masks, uint64_t required) {
  uint32_t bits = 0;
  for (size_t t = 0; t < kLanes; ++t) {
    bits |= static_cast<uint32_t>((required & ~masks[t]) == 0 ? 1u : 0u)
            << t;
  }
  return bits;
}

#endif  // IDXSEL_SIMD_IMPL_AVX2

// -- Shared algorithm bodies ------------------------------------------------

double ReduceBenefitIndexed(const double* costs, const uint32_t* qids,
                            const double* best, const double* freq,
                            size_t n) {
  const size_t blocks = n / kLanes;
  double acc = 0.0;
  // Vector math, serial-order fold — bit-identical to the plain loop (the
  // +0.0 of an excluded lane is an addition identity here: retained terms
  // are non-negative finite, so acc never holds -0.0 after a retained add,
  // and +0.0 + +0.0 == +0.0).
  for (size_t b = 0; b < blocks; ++b) {
    const size_t t = b * kLanes;
    const Vec gain =
        Vec::Sub(Vec::Gather(best, qids + t), Vec::Load(costs + t));
    const Vec term =
        Vec::KeepIfGtZero(gain, Vec::Mul(Vec::Gather(freq, qids + t), gain));
    acc = Vec::FoldAdd(acc, term);
  }
  for (size_t t = blocks * kLanes; t < n; ++t) {
    const double gain = best[qids[t]] - costs[t];
    acc += gain > 0.0 ? freq[qids[t]] * gain : 0.0;
  }
  return acc;
}

double ReduceAppendBenefit(const double* costs, const double* cw,
                           const uint32_t* qids, const double* best,
                           const double* freq, size_t n) {
  const size_t blocks = n / kLanes;
  double acc = 0.0;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t t = b * kLanes;
    const Vec new_cost = Vec::Min(Vec::Load(cw + t), Vec::Load(costs + t));
    const Vec gain = Vec::Sub(Vec::Gather(best, qids + t), new_cost);
    acc = Vec::FoldAdd(acc, Vec::Mul(Vec::Gather(freq, qids + t), gain));
  }
  for (size_t t = blocks * kLanes; t < n; ++t) {
    const double new_cost = cw[t] < costs[t] ? cw[t] : costs[t];
    acc += freq[qids[t]] * (best[qids[t]] - new_cost);
  }
  return acc;
}

double SumSetSlots(const double* row, size_t n) {
  const size_t blocks = n / kLanes;
  const Vec zero = Vec::Zero();
  double acc = 0.0;
  for (size_t b = 0; b < blocks; ++b) {
    acc = Vec::FoldAdd(acc, Vec::FillNaN(Vec::Load(row + b * kLanes), zero));
  }
  for (size_t t = blocks * kLanes; t < n; ++t) {
    acc += std::isnan(row[t]) ? 0.0 : row[t];
  }
  return acc;
}

double MinSetSlots(const double* row, size_t n) {
  const size_t blocks = n / kLanes;
  const Vec inf = Vec::Broadcast(std::numeric_limits<double>::infinity());
  double acc = std::numeric_limits<double>::infinity();
  for (size_t b = 0; b < blocks; ++b) {
    acc = Vec::FoldMin(acc, Vec::FillNaN(Vec::Load(row + b * kLanes), inf));
  }
  for (size_t t = blocks * kLanes; t < n; ++t) {
    const double v = std::isnan(row[t]) ? std::numeric_limits<double>::infinity()
                                        : row[t];
    acc = acc < v ? acc : v;
  }
  return acc;
}

size_t FilterMasks(const uint64_t* masks, size_t n, uint64_t required,
                   uint32_t* out) {
  const size_t blocks = n / kLanes;
  size_t count = 0;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t t = b * kLanes;
    uint32_t bits = KeepBits4(masks + t, required);
    // Branch-free compaction: unconditional store, advance by the keep
    // bit — kept slots come out ascending, like the scalar filter loop.
    for (size_t l = 0; l < kLanes; ++l) {
      out[count] = static_cast<uint32_t>(t + l);
      count += bits & 1u;
      bits >>= 1u;
    }
  }
  for (size_t t = blocks * kLanes; t < n; ++t) {
    out[count] = static_cast<uint32_t>(t);
    count += (required & ~masks[t]) == 0 ? 1u : 0u;
  }
  return count;
}

}  // namespace IDXSEL_SIMD_IMPL_NAMESPACE
}  // namespace idxsel::kernel::simd
