#include "snap/simd/dispatch.hpp"

#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "snap/simd/kernels.hpp"

namespace ember::snap::simd {

const char* to_string(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::Scalar:
      return "scalar";
    case SimdIsa::Avx2:
      return "avx2";
    case SimdIsa::Avx512:
      return "avx512";
  }
  return "scalar";
}

int lane_width(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::Scalar:
      return 1;
    case SimdIsa::Avx2:
      return 4;
    case SimdIsa::Avx512:
      return 8;
  }
  return 1;
}

namespace {

SimdIsa probe_cpu() {
#if defined(__x86_64__) || defined(__i386__)
#if defined(EMBER_SNAP_HAVE_AVX512)
  if (__builtin_cpu_supports("avx512f")) return SimdIsa::Avx512;
#endif
#if defined(EMBER_SNAP_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return SimdIsa::Avx2;
  }
#endif
#endif
  return SimdIsa::Scalar;
}

}  // namespace

SimdIsa max_supported_isa() {
  static const SimdIsa isa = probe_cpu();
  return isa;
}

SimdIsa choose_isa() {
  const SimdIsa cap = max_supported_isa();
  const char* env = std::getenv("EMBER_SIMD");
  if (env == nullptr || *env == '\0') return cap;
  const std::string value(env);
  SimdIsa requested = SimdIsa::Scalar;
  if (value == "scalar") {
    requested = SimdIsa::Scalar;
  } else if (value == "avx2") {
    requested = SimdIsa::Avx2;
  } else if (value == "avx512") {
    requested = SimdIsa::Avx512;
  } else {
    throw Error("EMBER_SIMD must be 'avx512', 'avx2' or 'scalar' (got '" +
                value + "')");
  }
  // The override only lowers: a request above the machine/binary
  // capability clamps down instead of selecting an unrunnable backend.
  return static_cast<int>(requested) < static_cast<int>(cap) ? requested : cap;
}

const SimdOps& ops_for(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::Scalar:
      return scalar_ops();
    case SimdIsa::Avx2:
#if defined(EMBER_SNAP_HAVE_AVX2)
      return avx2_ops();
#else
      break;
#endif
    case SimdIsa::Avx512:
#if defined(EMBER_SNAP_HAVE_AVX512)
      return avx512_ops();
#else
      break;
#endif
  }
  throw Error(std::string("SNAP lane kernel: no ") + to_string(isa) +
              " backend in this build");
}

}  // namespace ember::snap::simd
