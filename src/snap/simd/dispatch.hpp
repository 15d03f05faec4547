#pragma once

// Runtime ISA dispatch for the SNAP lane kernel.
//
// The production adjoint kernel batches the Wigner-U recursion and the
// Y : dU* contraction over blocks of neighbors, one neighbor per vector
// lane. It is one width-generic template (kernels_impl.hpp) instantiated
// at two widths: 4 (AVX2) and 1 (Scalar, portable C++). Which width runs
// is decided once per Bispectrum, at construction:
//
//   max_supported_isa()  CPUID probe of the executing machine, clamped to
//                        the backends this binary was built with (non-x86
//                        builds compile neither vector TU and always
//                        report Scalar).
//   choose_isa()         max_supported_isa() further clamped by the
//                        EMBER_SIMD environment variable
//                        ("avx2" | "scalar"); unknown values throw. The
//                        override can only lower the ISA — requesting
//                        AVX2 on a scalar-only host yields Scalar.
//
// AVX-512 hosts run the AVX2 kernel. A 512-bit instantiation (width 8)
// was 1.15-1.45x faster per kernel call on a shared 4-core Sapphire Rapids
// VM, but its speed followed the load on the host far less than the
// surrounding 256-bit and scalar code did: against a fixed scalar loop
// timed beside it, its time moved with elasticity 0.54, the 256-bit
// kernel's 0.82-0.92 and the scalar kernel's 0.95-1.0 (likely the
// frequency license of 512-bit FP work). A step made mostly of 512-bit work then
// ran up to 25 % faster or slower relative to everything else depending
// on what the other cores did.
//
// Every ISA has a kernel table; Scalar is the width-1 instantiation, not
// a separate code path.
//
// This header is intrinsics-free; immintrin.h is confined to the
// kernels_avx*.cpp translation units (enforced by ember_lint's
// simd-intrinsics-include rule).

namespace ember::snap::simd {

enum class SimdIsa {
  Scalar,  // 1 neighbor lane (portable instantiation)
  Avx2,    // 4 neighbor lanes per 256-bit register
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
