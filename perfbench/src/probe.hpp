#pragma once

// Host-speed probe: a fixed block of the benchmark's own work (gathers,
// exp/sqrt and complex multiply-adds over 4096 doubles), timed between
// MD steps and after every set-up.
//
// Why: on a shared VM host the same binary's step time drifts by up to 2x
// over minutes as other tenants load the physical cores, and no statistic
// of the step times alone is steady against that. The probe feels the same
// contention at the same moment, but its code never changes with the
// program under test, so run.py reports step times scaled by
// kProbeRefBlockSeconds / (probe seconds per block): the step time the run
// would have had at the probe's reference speed. Raw times are printed
// next to them.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// About one block on an idle 4-core Xeon (AVX-512) VM, the host the
// bounds in BENCHMARK.json were set on. Only a scale: any constant works
// as long as it stays the same between the runs being compared.
inline constexpr double kProbeRefBlockSeconds = 30e-6;

class HostProbe {
 public:
  HostProbe() : x_(kN), y_(kN), idx_(kN) {
    for (std::size_t i = 0; i < kN; ++i) {
      x_[i] = 1.0 + 1e-4 * static_cast<double>(i);
      y_[i] = 0.5 - 1e-5 * static_cast<double>(i);
      idx_[i] = static_cast<std::uint32_t>((i * 2654435761ULL) % kN);
    }
  }

  // Runs `blocks` blocks and returns their wall time in seconds, after
  // one untimed block that brings the arrays back into cache (the MD step
  // before it has evicted them). Only reads shared state, so thread ranks
  // may call it concurrently.
  double run(int blocks) const {
    if (blocks <= 0) return 0.0;
    auto t0 = std::chrono::steady_clock::now();
    double acc = 0.0, re = 0.0, im = 0.0;
    for (int b = -1; b < blocks; ++b) {
      if (b == 0) t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kN; ++i) {
        const std::size_t j = idx_[i];
        const double d = x_[j] - 0.5 * x_[i];
        acc += std::exp(-d) * std::sqrt(d * d + 1.0);
        re += x_[i] * y_[i] - x_[j] * y_[j];
        im += x_[i] * y_[j] + x_[j] * y_[i];
      }
    }
    volatile double keep = acc + re + im;  // the work must not be elided
    (void)keep;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

 private:
  static constexpr std::size_t kN = 4096;
  std::vector<double> x_, y_;
  std::vector<std::uint32_t> idx_;
};

}  // namespace perfbench
