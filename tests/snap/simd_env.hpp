#pragma once

// EMBER_SIMD helpers shared by the SNAP kernel tests.

#include <cstdlib>
#include <string>
#include <vector>

#include "snap/simd/dispatch.hpp"

namespace ember::snap {

// Scoped EMBER_SIMD override (the dispatcher reads the environment at
// every Bispectrum construction); nullptr unsets it.
class ScopedSimdEnv {
 public:
  explicit ScopedSimdEnv(const char* value) {
    const char* old = std::getenv("EMBER_SIMD");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv("EMBER_SIMD", value, 1);
    } else {
      ::unsetenv("EMBER_SIMD");
    }
  }
  ~ScopedSimdEnv() {
    if (had_old_) {
      ::setenv("EMBER_SIMD", old_.c_str(), 1);
    } else {
      ::unsetenv("EMBER_SIMD");
    }
  }
  ScopedSimdEnv(const ScopedSimdEnv&) = delete;
  ScopedSimdEnv& operator=(const ScopedSimdEnv&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

// Every ISA this host and binary can run, scalar first.
inline std::vector<simd::SimdIsa> host_isas() {
  std::vector<simd::SimdIsa> isas;
  for (const auto isa : {simd::SimdIsa::Scalar, simd::SimdIsa::Avx2,
                         simd::SimdIsa::Avx512}) {
    if (static_cast<int>(isa) <= static_cast<int>(simd::max_supported_isa())) {
      isas.push_back(isa);
    }
  }
  return isas;
}

}  // namespace ember::snap
