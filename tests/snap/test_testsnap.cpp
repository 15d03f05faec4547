// TestSNAP's two bars must compute the same forces at every lane width the
// host runs, threaded runs must be bitwise serial, and the bars must be
// ordered: Production beats Baseline, and the host width beats width 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "snap/simd/dispatch.hpp"
#include "snap/testsnap.hpp"
#include "simd_env.hpp"

namespace ember::snap {
namespace {

// A TestSnap constructed under EMBER_SIMD=isa; its Production bar keeps
// that ISA.
std::unique_ptr<TestSnap> make_testsnap(simd::SimdIsa isa,
                                        const SnapParams& p, int natoms,
                                        int nnbor, std::uint64_t seed) {
  const ScopedSimdEnv env(simd::to_string(isa));
  auto ts = std::make_unique<TestSnap>(p, natoms, nnbor, seed);
  EXPECT_EQ(ts->simd_isa(), isa);
  return ts;
}

std::vector<Vec3> run_forces(TestSnap& ts, TestSnapBar bar,
                             ExecutionPolicy policy = {}) {
  ts.run(bar, policy);
  return {ts.forces().begin(), ts.forces().end()};
}

// Both bars at every host ISA against the oracle: the Baseline bar at
// width 1, whose Z and dB stages are the independent reference path.
class TestSnapVariants : public ::testing::TestWithParam<int> {};

TEST_P(TestSnapVariants, AllVariantsAgreeWithBaseline) {
  SnapParams p;
  p.twojmax = GetParam();
  p.rcut = 4.7;
  // 29 atoms: the last Production block is partial at widths 4 and 8.
  const auto oracle_ts = make_testsnap(simd::SimdIsa::Scalar, p, 29, 20, 7);
  const std::vector<Vec3> ref = run_forces(*oracle_ts, TestSnapBar::Baseline);
  double fscale = 0.0;
  for (const auto& f : ref) fscale = std::max(fscale, f.norm());
  ASSERT_GT(fscale, 0.0);

  for (const auto isa : host_isas()) {
    const auto ts = make_testsnap(isa, p, 29, 20, 7);
    for (const auto bar : {TestSnapBar::Baseline, TestSnapBar::Production}) {
      const std::vector<Vec3> f = run_forces(*ts, bar);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        for (int d = 0; d < 3; ++d) {
          EXPECT_NEAR(f[i][d], ref[i][d], 1e-12 * fscale)
              << to_string(bar) << " at " << simd::to_string(isa) << " atom "
              << i << " dim " << d;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoJmax, TestSnapVariants,
                         ::testing::Values(2, 4, 8, 14));

TEST(TestSnapThreads, ThreadedRunIsBitwiseSerial) {
  SnapParams p;
  p.twojmax = 6;
  for (const auto isa : host_isas()) {
    // 3 workers over 29 atoms: blocks of 10/10/9 atoms put every atom in
    // a different Production lane than the serial sweep does.
    const auto ts = make_testsnap(isa, p, 29, 18, 5);
    for (const auto bar : {TestSnapBar::Baseline, TestSnapBar::Production}) {
      const std::vector<Vec3> serial = run_forces(*ts, bar);
      const std::vector<Vec3> threaded = run_forces(*ts, bar, {3});
      for (std::size_t i = 0; i < serial.size(); ++i) {
        for (int d = 0; d < 3; ++d) {
          EXPECT_EQ(threaded[i][d], serial[i][d])
              << to_string(bar) << " at " << simd::to_string(isa) << " atom "
              << i << " dim " << d;
        }
      }
    }
  }
}

// Serial run times of two bars, best of three interleaved rounds.
// Thread CPU time leaves out the time the test spends descheduled, so
// other work on a loaded machine cannot skew the comparison, and the
// interleaving makes cache contention hit both bars alike.
std::pair<double, double> grind_pair(TestSnap& ta, TestSnapBar a,
                                     TestSnap& tb, TestSnapBar b) {
  const auto cpu_run = [](TestSnap& ts, TestSnapBar bar) {
    const ThreadCpuTimer t;
    ts.run(bar);
    return t.seconds();
  };
  double sa = 1e30;
  double sb = 1e30;
  for (int round = 0; round < 3; ++round) {
    sa = std::min(sa, cpu_run(ta, a));
    sb = std::min(sb, cpu_run(tb, b));
  }
  return {sa, sb};
}

TEST(TestSnapTiming, ProgressionEndsFasterThanItStarts) {
  // The paper's headline algorithmic claim, on any hardware: the adjoint
  // refactorization removes the O(J^5) per-neighbor work.
  SnapParams p;
  p.twojmax = 8;
  TestSnap ts(p, 60, 26, 17);
  const auto [t_base, t_prod] = grind_pair(ts, TestSnapBar::Baseline, ts,
                                           TestSnapBar::Production);
  EXPECT_LT(t_prod, 0.5 * t_base);
}

TEST(TestSnapTiming, HostWidthBeatsScalar) {
  if (simd::max_supported_isa() == simd::SimdIsa::Scalar) {
    GTEST_SKIP() << "this host runs only the width-1 kernel";
  }
  SnapParams p;
  p.twojmax = 8;
  const auto scalar = make_testsnap(simd::SimdIsa::Scalar, p, 100, 26, 13);
  const auto host = make_testsnap(simd::max_supported_isa(), p, 100, 26, 13);
  const auto [t_scalar, t_host] = grind_pair(
      *scalar, TestSnapBar::Production, *host, TestSnapBar::Production);
  EXPECT_LT(t_host, t_scalar);
}

}  // namespace
}  // namespace ember::snap
