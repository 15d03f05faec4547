// AVX-512 backend: 8 neighbor or atom lanes per 512-bit register.
// Compiled with -mavx512f -ffp-contract=off (per-file, see
// src/snap/CMakeLists.txt). Negation flips the sign bit with the
// integer XOR, because _mm512_xor_pd needs AVX-512DQ and this TU only
// requires the F foundation subset (subtracting from zero would turn -0
// into +0). The square root is the masked form with every lane set:
// GCC 12 with -Werror reports _mm512_sqrt_pd as -Wuninitialized inside
// avx512fintrin.h. Guarded so a build that defines EMBER_SNAP_HAVE_AVX512
// without the flag still fails loudly rather than emitting illegal
// instructions.

#include "snap/simd/kernels.hpp"

#if defined(EMBER_SNAP_HAVE_AVX512)

#include <immintrin.h>

#include <cstdint>

#include "snap/simd/kernels_impl.hpp"

namespace ember::snap::simd {
namespace {

struct Vec8 {
  __m512d v;

  static constexpr int width = 8;

  static Vec8 load(const double* p) { return {_mm512_load_pd(p)}; }
  void store_to(double* p) const { _mm512_store_pd(p, v); }
  static Vec8 broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static Vec8 zero() { return {_mm512_setzero_pd()}; }
  static Vec8 neg(Vec8 a) {
    return {_mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(a.v), _mm512_set1_epi64(INT64_MIN)))};
  }
  static Vec8 fma(Vec8 a, Vec8 b, Vec8 c) {
    return {_mm512_fmadd_pd(a.v, b.v, c.v)};
  }
  static Vec8 fmsub(Vec8 a, Vec8 b, Vec8 c) {
    return {_mm512_fmsub_pd(a.v, b.v, c.v)};
  }
  static Vec8 fnma(Vec8 a, Vec8 b, Vec8 c) {
    return {_mm512_fnmadd_pd(a.v, b.v, c.v)};
  }
  friend Vec8 operator*(Vec8 a, Vec8 b) { return {_mm512_mul_pd(a.v, b.v)}; }
  friend Vec8 operator+(Vec8 a, Vec8 b) { return {_mm512_add_pd(a.v, b.v)}; }
  friend Vec8 operator-(Vec8 a, Vec8 b) { return {_mm512_sub_pd(a.v, b.v)}; }
  friend Vec8 operator/(Vec8 a, Vec8 b) { return {_mm512_div_pd(a.v, b.v)}; }
  static Vec8 sqrt(Vec8 a) { return {_mm512_mask_sqrt_pd(a.v, 0xFF, a.v)}; }
};

}  // namespace

const SimdOps& avx512_ops() {
  static const SimdOps ops{
      Vec8::width,
      [](const MapBlockArgs& args) { return map_block_impl<Vec8>(args); },
      [](const UiBlockArgs& args) { ui_block_impl<Vec8>(args); },
      [](const DeiBlockArgs& args) { dei_block_impl<Vec8>(args); },
      [](const YiBlockArgs& args) { yi_block_impl<Vec8>(args); },
  };
  return ops;
}

}  // namespace ember::snap::simd

#endif  // EMBER_SNAP_HAVE_AVX512
