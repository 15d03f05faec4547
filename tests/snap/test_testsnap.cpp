// The eight TestSNAP kernel variants must all compute identical forces;
// the optimization progression must actually be a progression.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/timer.hpp"
#include "snap/testsnap.hpp"

namespace ember::snap {
namespace {

class TestSnapVariants : public ::testing::TestWithParam<int> {};

TEST_P(TestSnapVariants, AllVariantsAgreeWithBaseline) {
  SnapParams p;
  p.twojmax = GetParam();
  p.rcut = 4.7;
  TestSnap ts(p, 24, 20, 7);

  ts.run(TestSnapVariant::V0_Baseline);
  std::vector<Vec3> ref(ts.forces().begin(), ts.forces().end());
  double fscale = 0.0;
  for (const auto& f : ref) fscale = std::max(fscale, f.norm());

  for (const auto v : kAllTestSnapVariants) {
    ts.run(v);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      for (int d = 0; d < 3; ++d) {
        EXPECT_NEAR(ts.forces()[i][d], ref[i][d], 1e-9 * std::max(1.0, fscale))
            << to_string(v) << " atom " << i << " dim " << d;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoJmax, TestSnapVariants,
                         ::testing::Values(2, 4, 8, 14));

// Serial run times of two variants, best of three interleaved rounds.
// Thread CPU time leaves out the time the test spends descheduled, so
// other work on a loaded machine cannot skew the comparison, and the
// interleaving makes cache contention hit both variants alike.
std::pair<double, double> grind_pair(TestSnap& ts, TestSnapVariant a,
                                     TestSnapVariant b) {
  const auto cpu_run = [&ts](TestSnapVariant v) {
    const ThreadCpuTimer t;
    ts.run(v);
    return t.seconds();
  };
  double ta = 1e30;
  double tb = 1e30;
  for (int round = 0; round < 3; ++round) {
    ta = std::min(ta, cpu_run(a));
    tb = std::min(tb, cpu_run(b));
  }
  return {ta, tb};
}

TEST(TestSnapTiming, AdjointBeatsBaseline) {
  // The paper's headline algorithmic claim, on any hardware: the adjoint
  // refactorization removes the O(J^5) per-neighbor work.
  SnapParams p;
  p.twojmax = 8;
  TestSnap ts(p, 100, 26, 11);
  const auto [t0, t3] = grind_pair(ts, TestSnapVariant::V0_Baseline,
                                   TestSnapVariant::V3_Adjoint);
  EXPECT_LT(t3, 0.7 * t0);
}

TEST(TestSnapTiming, HalfRangeBeatsFullRange) {
  SnapParams p;
  p.twojmax = 8;
  TestSnap ts(p, 100, 26, 13);
  const auto [t4, t5] = grind_pair(ts, TestSnapVariant::V4_Fused,
                                   TestSnapVariant::V5_HalfMb);
  EXPECT_LT(t5, t4);
}

TEST(TestSnapTiming, ProgressionEndsFasterThanItStarts) {
  SnapParams p;
  p.twojmax = 8;
  TestSnap ts(p, 60, 26, 17);
  const auto [t0, t7] = grind_pair(ts, TestSnapVariant::V0_Baseline,
                                   TestSnapVariant::V7_CachedCk);
  EXPECT_LT(t7, 0.5 * t0);
}

}  // namespace
}  // namespace ember::snap
