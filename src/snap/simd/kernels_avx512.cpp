// AVX-512 backend: 8 neighbor or atom lanes per 512-bit register.
// Compiled with -mavx512f (per-file, see src/snap/CMakeLists.txt).
// Negation goes through subtraction because _mm512_xor_pd needs
// AVX-512DQ and this TU only requires the F foundation subset. Guarded
// so a build that defines EMBER_SNAP_HAVE_AVX512 without the flag still
// fails loudly rather than emitting illegal instructions.

#include "snap/simd/kernels.hpp"

#if defined(EMBER_SNAP_HAVE_AVX512)

#include <immintrin.h>

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
    return {_mm512_sub_pd(_mm512_setzero_pd(), a.v)};
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
};

}  // namespace

const SimdOps& avx512_ops() {
  static const SimdOps ops{
      Vec8::width,
      [](const UiBlockArgs& args) { ui_block_impl<Vec8>(args); },
      [](const DeiBlockArgs& args) { dei_block_impl<Vec8>(args); },
      [](const YiBlockArgs& args) { yi_block_impl<Vec8>(args); },
  };
  return ops;
}

}  // namespace ember::snap::simd

#endif  // EMBER_SNAP_HAVE_AVX512
