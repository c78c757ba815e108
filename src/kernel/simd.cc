// Scalar template instantiation + runtime dispatch of idxsel::kernel::simd.
//
// This translation unit is compiled with the project's portable flags
// (never -mavx2): the binary must start and run on any x86-64 (or
// non-x86) host, with the AVX2 entry points reached only after the CPU
// reports support. simd_avx2.cc carries the vector instantiation; CMake
// defines IDXSEL_SIMD_HAVE_AVX2 for this file exactly when that TU is
// part of the build.

#define IDXSEL_SIMD_IMPL_NAMESPACE scalar_impl
#define IDXSEL_SIMD_IMPL_AVX2 0
#include "kernel/simd_impl.h"
#undef IDXSEL_SIMD_IMPL_NAMESPACE
#undef IDXSEL_SIMD_IMPL_AVX2

namespace idxsel::kernel::simd {

#if defined(IDXSEL_SIMD_HAVE_AVX2)
// Instantiated in simd_avx2.cc from the same simd_impl.h template.
namespace avx2_impl {
double ReduceBenefitIndexed(const double* costs, const uint32_t* qids,
                            const double* best, const double* freq, size_t n);
double ReduceAppendBenefit(const double* costs, const double* cw,
                           const uint32_t* qids, const double* best,
                           const double* freq, size_t n);
double SumSetSlots(const double* row, size_t n);
double MinSetSlots(const double* row, size_t n);
size_t FilterMasks(const uint64_t* masks, size_t n, uint64_t required,
                   uint32_t* out);
}  // namespace avx2_impl
#endif

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Level SupportedLevel() {
#if defined(IDXSEL_SIMD_HAVE_AVX2)
  // Sampled once: CPU features do not change while the process runs.
  static const Level level = [] {
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kScalar;
#else
    return Level::kScalar;
#endif
  }();
  return level;
#else
  return Level::kScalar;
#endif
}

Level ActiveLevel() {
  return ForceScalar() ? Level::kScalar : SupportedLevel();
}

double ReduceBenefitIndexed(const double* costs, const uint32_t* qids,
                            const double* best, const double* freq,
                            size_t n) {
#if defined(IDXSEL_SIMD_HAVE_AVX2)
  if (ActiveLevel() == Level::kAvx2) {
    return avx2_impl::ReduceBenefitIndexed(costs, qids, best, freq, n);
  }
#endif
  return scalar_impl::ReduceBenefitIndexed(costs, qids, best, freq, n);
}

double ReduceAppendBenefit(const double* costs, const double* cw,
                           const uint32_t* qids, const double* best,
                           const double* freq, size_t n) {
#if defined(IDXSEL_SIMD_HAVE_AVX2)
  if (ActiveLevel() == Level::kAvx2) {
    return avx2_impl::ReduceAppendBenefit(costs, cw, qids, best, freq, n);
  }
#endif
  return scalar_impl::ReduceAppendBenefit(costs, cw, qids, best, freq, n);
}

double SumSetSlots(const double* row, size_t n) {
#if defined(IDXSEL_SIMD_HAVE_AVX2)
  if (ActiveLevel() == Level::kAvx2) {
    return avx2_impl::SumSetSlots(row, n);
  }
#endif
  return scalar_impl::SumSetSlots(row, n);
}

double MinSetSlots(const double* row, size_t n) {
#if defined(IDXSEL_SIMD_HAVE_AVX2)
  if (ActiveLevel() == Level::kAvx2) {
    return avx2_impl::MinSetSlots(row, n);
  }
#endif
  return scalar_impl::MinSetSlots(row, n);
}

size_t FilterMasks(const uint64_t* masks, size_t n, uint64_t required,
                   uint32_t* out) {
#if defined(IDXSEL_SIMD_HAVE_AVX2)
  if (ActiveLevel() == Level::kAvx2) {
    return avx2_impl::FilterMasks(masks, n, required, out);
  }
#endif
  return scalar_impl::FilterMasks(masks, n, required, out);
}

}  // namespace idxsel::kernel::simd
