// AVX2 backend: 4 atom lanes per 256-bit register. Compiled with -mavx2
// -mfma -ffp-contract=off (per-file, see src/snap/CMakeLists.txt);
// guarded so a build that defines EMBER_SNAP_HAVE_AVX2 without the flags
// still fails loudly rather than emitting illegal instructions.

#include "snap/simd/kernels.hpp"

#if defined(EMBER_SNAP_HAVE_AVX2)

#include <immintrin.h>

#include "snap/simd/kernels_impl.hpp"

namespace ember::snap::simd {
namespace {

struct Vec4 {
  __m256d v;

  static constexpr int width = 4;

  static Vec4 load(const double* p) { return {_mm256_load_pd(p)}; }
  void store_to(double* p) const { _mm256_store_pd(p, v); }
  static Vec4 broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static Vec4 zero() { return {_mm256_setzero_pd()}; }
  static Vec4 neg(Vec4 a) {
    return {_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0))};
  }
  static Vec4 fma(Vec4 a, Vec4 b, Vec4 c) {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
  }
  static Vec4 fmsub(Vec4 a, Vec4 b, Vec4 c) {
    return {_mm256_fmsub_pd(a.v, b.v, c.v)};
  }
  static Vec4 fnma(Vec4 a, Vec4 b, Vec4 c) {
    return {_mm256_fnmadd_pd(a.v, b.v, c.v)};
  }
  friend Vec4 operator*(Vec4 a, Vec4 b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend Vec4 operator+(Vec4 a, Vec4 b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend Vec4 operator-(Vec4 a, Vec4 b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend Vec4 operator/(Vec4 a, Vec4 b) { return {_mm256_div_pd(a.v, b.v)}; }
  static Vec4 sqrt(Vec4 a) { return {_mm256_sqrt_pd(a.v)}; }
};

}  // namespace

const SimdOps& avx2_ops() {
  static const SimdOps ops{
      Vec4::width,
      [](const MapBlockArgs& args) { return map_block_impl<Vec4>(args); },
      [](const UiBlockArgs& args) { ui_block_impl<Vec4>(args); },
      [](const DeiBlockArgs& args) { dei_block_impl<Vec4>(args); },
      [](const YiBlockArgs& args) { yi_block_impl<Vec4>(args); },
  };
  return ops;
}

}  // namespace ember::snap::simd

#endif  // EMBER_SNAP_HAVE_AVX2
