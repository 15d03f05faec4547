#pragma once

// Runtime ISA dispatch for the SNAP lane kernel.
//
// The production adjoint kernel batches the Wigner-U recursion and the
// Y : dU* contraction over blocks of neighbors, one neighbor per vector
// lane. It is one width-generic template (kernels_impl.hpp) instantiated
// at three widths: 8 (AVX-512F), 4 (AVX2 + FMA) and 1 (Scalar, portable
// C++). Which width runs is decided once per Bispectrum, at construction:
//
//   max_supported_isa()  CPUID probe of the executing machine, clamped to
//                        the backends this binary was built with (non-x86
//                        builds compile no vector TU and always report
//                        Scalar).
//   choose_isa()         max_supported_isa() further clamped by the
//                        EMBER_SIMD environment variable
//                        ("avx512" | "avx2" | "scalar"); unknown values
//                        throw. The override can only lower the ISA —
//                        requesting AVX-512 on an AVX2 host yields AVX2.
//
// AVX-512 hosts run width 8. On a 4-core AMD Zen 5 host (full-width
// 512-bit FMA, no frequency licence) it runs snap_serial ~1.4x faster
// than width 4. On a shared Sapphire Rapids VM its speed followed host
// load with elasticity 0.54 against ~0.9 for 256-bit code (likely the
// frequency licence of 512-bit FP work), so there EMBER_SIMD=avx2 gives
// steadier timings (DESIGN.md §8.1).
//
// Every ISA has a kernel table; Scalar is the width-1 instantiation, not
// a separate code path.
//
// This header is intrinsics-free; immintrin.h is confined to the
// kernels_avx*.cpp translation units (enforced by ember_lint's
// simd-intrinsics-include rule).

namespace ember::snap::simd {

// Ordered by width: choose_isa() clamps by comparing enumerators.
enum class SimdIsa {
  Scalar,  // 1 neighbor lane (portable instantiation)
  Avx2,    // 4 neighbor lanes per 256-bit register
  Avx512,  // 8 neighbor lanes per 512-bit register
};

[[nodiscard]] const char* to_string(SimdIsa isa);

// Neighbor lanes per vector register (1 for Scalar).
[[nodiscard]] int lane_width(SimdIsa isa);

// Best ISA the executing CPU *and* this binary support (cached probe).
[[nodiscard]] SimdIsa max_supported_isa();

// max_supported_isa() clamped by EMBER_SIMD; reads the environment on
// every call so tests can flip the override between kernel constructions.
[[nodiscard]] SimdIsa choose_isa();

struct SimdOps;

// Kernel table for an ISA. Throws ember::Error for a vector ISA this
// binary was built without (choose_isa() never returns one).
[[nodiscard]] const SimdOps& ops_for(SimdIsa isa);

}  // namespace ember::snap::simd
