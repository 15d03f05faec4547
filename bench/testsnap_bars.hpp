#pragma once

// The TestSNAP bar series shared by Figs. 2-3 and Table I: Baseline,
// then Production at every lane width the host runs, narrowest first.
// Each TestSnap is constructed with EMBER_SIMD set to its ISA's name, or
// unset for the host's widest (the Production bar keeps the ISA chosen at
// construction); the caller's EMBER_SIMD is restored afterwards.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "snap/simd/dispatch.hpp"
#include "snap/testsnap.hpp"

namespace ember::bench {

struct TestSnapBarTime {
  snap::TestSnapBar bar;
  snap::simd::SimdIsa isa;
  double grind = 0.0;  // best-of-repeats seconds per atom-step
};

inline std::vector<TestSnapBarTime> time_testsnap_bars(
    const snap::SnapParams& params, int natoms, int nnbor, std::uint64_t seed,
    int repeats) {
  const char* old = std::getenv("EMBER_SIMD");
  const bool had_old = old != nullptr;
  const std::string saved = had_old ? old : "";
  const snap::simd::SimdIsa host = snap::simd::max_supported_isa();
  const auto time_bar = [&](snap::TestSnapBar bar, snap::simd::SimdIsa isa) {
    if (isa == host) {
      ::unsetenv("EMBER_SIMD");
    } else {
      ::setenv("EMBER_SIMD", snap::simd::to_string(isa), 1);
    }
    snap::TestSnap ts(params, natoms, nnbor, seed);
    return TestSnapBarTime{bar, ts.simd_isa(), ts.grind_time(bar, repeats)};
  };

  std::vector<TestSnapBarTime> bars{
      time_bar(snap::TestSnapBar::Baseline, host)};
  for (const auto isa : {snap::simd::SimdIsa::Scalar, snap::simd::SimdIsa::Avx2,
                         snap::simd::SimdIsa::Avx512}) {
    if (static_cast<int>(isa) > static_cast<int>(host)) break;
    bars.push_back(time_bar(snap::TestSnapBar::Production, isa));
  }
  if (had_old) {
    ::setenv("EMBER_SIMD", saved.c_str(), 1);
  } else {
    ::unsetenv("EMBER_SIMD");
  }
  return bars;
}

// "Baseline" or "Production, width 8 (avx512)".
inline std::string bar_name(const TestSnapBarTime& t) {
  if (t.bar == snap::TestSnapBar::Baseline) return "Baseline";
  return "Production, width " + std::to_string(snap::simd::lane_width(t.isa)) +
         " (" + snap::simd::to_string(t.isa) + ")";
}

}  // namespace ember::bench
