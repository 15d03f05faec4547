// Scalar backend: the lane kernel at width 1, one neighbor (map/ui/dei)
// or one atom (yi) per block. Intrinsics-free and compiled with the base
// flags plus -ffp-contract=off, so it runs on every host and fuses
// nothing, whatever the base ISA; EMBER_SIMD=scalar selects it on x86 as
// well. The per-atom Bispectrum::compute_yi[_coeffs] always runs this
// table's yi_block, and map_to_sphere its map_block.

#include <cmath>

#include "snap/simd/kernels_impl.hpp"

namespace ember::snap::simd {
namespace {

struct Vec1 {
  double v;

  static constexpr int width = 1;

  static Vec1 load(const double* p) { return {*p}; }
  void store_to(double* p) const { *p = v; }
  static Vec1 broadcast(double x) { return {x}; }
  static Vec1 zero() { return {0.0}; }
  static Vec1 neg(Vec1 a) { return {-a.v}; }
  // a * b + c, not std::fma: without FMA in the base ISA, std::fma is a
  // libm call per element.
  static Vec1 fma(Vec1 a, Vec1 b, Vec1 c) { return {a.v * b.v + c.v}; }
  static Vec1 fmsub(Vec1 a, Vec1 b, Vec1 c) { return {a.v * b.v - c.v}; }
  static Vec1 fnma(Vec1 a, Vec1 b, Vec1 c) { return {c.v - a.v * b.v}; }
  friend Vec1 operator*(Vec1 a, Vec1 b) { return {a.v * b.v}; }
  friend Vec1 operator+(Vec1 a, Vec1 b) { return {a.v + b.v}; }
  friend Vec1 operator-(Vec1 a, Vec1 b) { return {a.v - b.v}; }
  friend Vec1 operator/(Vec1 a, Vec1 b) { return {a.v / b.v}; }
  static Vec1 sqrt(Vec1 a) { return {std::sqrt(a.v)}; }
};

}  // namespace

const SimdOps& scalar_ops() {
  static const SimdOps ops{
      Vec1::width,
      [](const MapBlockArgs& args) { return map_block_impl<Vec1>(args); },
      [](const UiBlockArgs& args) { ui_block_impl<Vec1>(args); },
      [](const DeiBlockArgs& args) { dei_block_impl<Vec1>(args); },
      [](const YiBlockArgs& args) { yi_block_impl<Vec1>(args); },
  };
  return ops;
}

}  // namespace ember::snap::simd
