// Wider SNAP property sweeps: parameter variations (rmin0, rfac0, wself,
// weights), descriptor smoothness, scaling of stage costs, and behaviors
// the production potential relies on implicitly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "snap/bispectrum.hpp"
#include "snap/wigner.hpp"

namespace ember::snap {
namespace {

std::vector<Vec3> shell(Rng& rng, int n, double rlo, double rhi) {
  std::vector<Vec3> rij;
  while (static_cast<int>(rij.size()) < n) {
    Vec3 r{rng.uniform(-rhi, rhi), rng.uniform(-rhi, rhi),
           rng.uniform(-rhi, rhi)};
    if (r.norm() > rlo && r.norm() < rhi) rij.push_back(r);
  }
  return rij;
}

struct ParamCase {
  double rmin0;
  double rfac0;
  double wself;
};

class SnapParamSweep : public ::testing::TestWithParam<ParamCase> {};

TEST_P(SnapParamSweep, RotationInvarianceHoldsForAllConventions) {
  const auto pc = GetParam();
  SnapParams p;
  p.twojmax = 6;
  p.rcut = 4.0;
  p.rmin0 = pc.rmin0;
  p.rfac0 = pc.rfac0;
  p.wself = pc.wself;
  Bispectrum bi(p);

  Rng rng(31);
  auto rij = shell(rng, 10, std::max(0.8, pc.rmin0 + 0.3), p.rcut * 0.95);
  bi.compute_ui(rij, {});
  bi.compute_zi();
  bi.compute_bi();
  std::vector<double> b0(bi.blist().begin(), bi.blist().end());

  // Rotate about z by an odd angle.
  const double c = std::cos(1.234), s = std::sin(1.234);
  for (auto& r : rij) r = {c * r.x - s * r.y, s * r.x + c * r.y, r.z};
  bi.compute_ui(rij, {});
  bi.compute_zi();
  bi.compute_bi();
  for (int l = 0; l < bi.num_b(); ++l) {
    EXPECT_NEAR(bi.blist()[l], b0[l], 1e-9 * std::max(1.0, std::abs(b0[l])));
  }
}

TEST_P(SnapParamSweep, ForcesStillMatchFiniteDifferences) {
  const auto pc = GetParam();
  SnapParams p;
  p.twojmax = 4;
  p.rcut = 3.6;
  p.rmin0 = pc.rmin0;
  p.rfac0 = pc.rfac0;
  p.wself = pc.wself;
  Bispectrum bi(p);
  Rng rng(37);
  auto rij = shell(rng, 8, std::max(0.8, pc.rmin0 + 0.3), p.rcut * 0.9);
  std::vector<double> beta(bi.num_b());
  for (auto& b : beta) b = rng.uniform(-1, 1);

  bi.compute_ui(rij, {});
  bi.compute_yi(beta);
  std::vector<Vec3> de_all(rij.size());
  bi.compute_deidrj_all(de_all);
  const Vec3 de = de_all[0];

  const double h = 1e-6;
  for (int d = 0; d < 3; ++d) {
    auto pert = rij;
    pert[0][d] += h;
    bi.compute_ui(pert, {});
    bi.compute_zi();
    bi.compute_bi();
    double ep = 0;
    for (int l = 0; l < bi.num_b(); ++l) ep += beta[l] * bi.blist()[l];
    pert[0][d] -= 2 * h;
    bi.compute_ui(pert, {});
    bi.compute_zi();
    bi.compute_bi();
    double em = 0;
    for (int l = 0; l < bi.num_b(); ++l) em += beta[l] * bi.blist()[l];
    EXPECT_NEAR(de[d], (ep - em) / (2 * h), 2e-5 * std::max(1.0, std::abs(de[d])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Conventions, SnapParamSweep,
    ::testing::Values(ParamCase{0.0, 0.99363, 1.0},
                      ParamCase{0.5, 0.99363, 1.0},
                      ParamCase{0.0, 0.75, 1.0},
                      ParamCase{0.0, 0.99363, 0.5},
                      ParamCase{0.3, 0.85, 2.0}));

TEST(SnapSmoothness, EnergyIsContinuousAcrossTheCutoff) {
  // Slide a neighbor through the cutoff: B must approach the
  // one-fewer-neighbor values continuously (switching function at work).
  SnapParams p;
  p.twojmax = 6;
  p.rcut = 4.0;
  Bispectrum bi(p);
  Rng rng(41);
  const auto base = shell(rng, 6, 0.9, 3.4);

  auto b_with_extra = [&](double r_extra) {
    auto rij = base;
    if (r_extra < p.rcut) rij.push_back({r_extra, 0, 0});
    bi.compute_ui(rij, {});
    bi.compute_zi();
    bi.compute_bi();
    return std::vector<double>(bi.blist().begin(), bi.blist().end());
  };
  const auto just_in = b_with_extra(p.rcut - 1e-5);
  const auto just_out = b_with_extra(p.rcut + 1e-5);
  for (std::size_t l = 0; l < just_in.size(); ++l) {
    EXPECT_NEAR(just_in[l], just_out[l],
                1e-6 * std::max(1.0, std::abs(just_out[l])));
  }
}

TEST(SnapSmoothness, DescriptorsVaryContinuouslyWithPosition) {
  SnapParams p;
  p.twojmax = 4;
  p.rcut = 3.5;
  Bispectrum bi(p);
  Rng rng(43);
  auto rij = shell(rng, 5, 0.9, 3.0);

  bi.compute_ui(rij, {});
  bi.compute_zi();
  bi.compute_bi();
  std::vector<double> b0(bi.blist().begin(), bi.blist().end());

  rij[0].x += 1e-7;
  bi.compute_ui(rij, {});
  bi.compute_zi();
  bi.compute_bi();
  for (int l = 0; l < bi.num_b(); ++l) {
    EXPECT_NEAR(bi.blist()[l], b0[l], 1e-4 * std::max(1.0, std::abs(b0[l])));
  }
}

TEST(SnapScaling, StageCostsGrowWithTheDocumentedExponents) {
  // Measure compute_zi at 2J = 4, 8, 14 and check the growth sits near
  // the O(J^7) law (the paper's complexity table).
  Rng rng(47);
  std::vector<double> times;
  const int twojs[3] = {4, 8, 14};
  for (const int tj : twojs) {
    SnapParams p;
    p.twojmax = tj;
    p.rcut = 4.0;
    Bispectrum bi(p);
    const auto rij = shell(rng, 20, 0.9, 3.8);
    bi.compute_ui(rij, {});
    // Best-of-5 thread CPU time: time spent descheduled or one slow sample
    // would skew the exponent when the suite runs under a loaded machine.
    const int reps = tj <= 8 ? 40 : 4;
    double best = 1e30;
    for (int trial = 0; trial < 5; ++trial) {
      const ThreadCpuTimer t;
      for (int r = 0; r < reps; ++r) bi.compute_zi();
      best = std::min(best, t.seconds() / reps);
    }
    times.push_back(best);
  }
  // Effective exponent between 2J=8 and 2J=14 from t ~ J^alpha.
  const double alpha =
      std::log(times[2] / times[1]) / std::log(14.0 / 8.0);
  EXPECT_GT(alpha, 4.5);   // far superlinear
  EXPECT_LT(alpha, 9.0);   // bounded near the J^7 law
}

TEST(SnapScaling, UiCostIsLinearInNeighbors) {
  SnapParams p;
  p.twojmax = 8;
  p.rcut = 4.2;
  Bispectrum bi(p);
  Rng rng(53);
  // One neighbor slot per neighbor at every kernel width (1, 4, 8), so
  // 16 -> 128 neighbors is 8x the slot work.
  const auto few = shell(rng, 16, 0.9, 4.0);
  const auto many = shell(rng, 128, 0.9, 4.0);
  const std::vector<Vec3> none;
  // Best-of-9 thread CPU time, all three sizes interleaved: each sample is
  // short, so take the minimum to shed scheduler noise when the suite runs
  // under a loaded machine, and a burst of load hits every size alike.
  auto time_ui = [&](const std::vector<Vec3>& rij) {
    const ThreadCpuTimer t;
    for (int r = 0; r < 30; ++r) bi.compute_ui(rij, {});
    return t.seconds();
  };
  double best_none = 1e30;
  double best_few = 1e30;
  double best_many = 1e30;
  for (int trial = 0; trial < 9; ++trial) {
    best_none = std::min(best_none, time_ui(none));
    best_few = std::min(best_few, time_ui(few));
    best_many = std::min(best_many, time_ui(many));
  }
  // compute_ui has a fixed part that does not depend on the neighbors
  // (zeroing Utot, the self term and the full-range expansion), so
  // compare the costs above the zero-neighbor intercept.
  const double ratio = (best_many - best_none) / (best_few - best_none);
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 20.0);  // ~8x for 8x the neighbors, wide timing slack
}

TEST(SnapEdge, ZeroNeighborsGivesSelfOnlyDescriptors) {
  SnapParams p;
  p.twojmax = 6;
  Bispectrum bi(p);
  bi.compute_ui({}, {});
  bi.compute_zi();
  bi.compute_bi();
  // All components finite and strictly positive (powers of wself via the
  // CG contraction of identity matrices).
  for (int l = 0; l < bi.num_b(); ++l) {
    EXPECT_TRUE(std::isfinite(bi.blist()[l]));
  }
  // And the adjoint force on a (nonexistent) neighbor direction is zero
  // by construction when dU is evaluated for a far atom.
}

TEST(SnapEdge, SingleNeighborForcesAreCentral) {
  // One neighbor: by symmetry the force must point along the bond.
  SnapParams p;
  p.twojmax = 6;
  p.rcut = 3.0;
  Bispectrum bi(p);
  Rng rng(59);
  std::vector<double> beta(bi.num_b());
  for (auto& b : beta) b = rng.uniform(-1, 1);

  const Vec3 bond{1.1, 0.7, -0.4};
  const std::vector<Vec3> rij{bond};
  bi.compute_ui(rij, {});
  bi.compute_yi(beta);
  Vec3 de;
  bi.compute_deidrj_all(std::span<Vec3>(&de, 1));
  // de parallel to bond: cross product vanishes.
  const Vec3 c = cross(de, bond);
  EXPECT_NEAR(c.norm(), 0.0, 1e-10 * std::max(1.0, de.norm() * bond.norm()));
}

TEST(SnapEdge, ConjugationSymmetryOfUtotAndZ) {
  // The symmetry exploited by the V5+ kernels, on the accumulated Utot
  // and on the coupled Z matrices: X[J-a, J-b] = (-1)^(a+b) conj(X[a,b]).
  SnapParams p;
  p.twojmax = 6;
  p.rcut = 3.6;
  Bispectrum bi(p);
  Rng rng(61);
  const auto rij = shell(rng, 9, 0.9, 3.4);
  bi.compute_ui(rij, {});
  bi.compute_zi();

  const auto& idx = bi.index();
  for (int j = 0; j <= p.twojmax; ++j) {
    const int n = j + 1;
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        const Cplx lhs = bi.utot()[idx.u_index(j, a, b)];
        const Cplx rhs = bi.utot()[idx.u_index(j, j - a, j - b)];
        const double sign = ((a + b) % 2 == 0) ? 1.0 : -1.0;
        EXPECT_NEAR(lhs.re, sign * rhs.re, 1e-11);
        EXPECT_NEAR(lhs.im, -sign * rhs.im, 1e-11);
      }
    }
  }
  for (const auto& t : idx.z_triples()) {
    const Cplx* z = bi.zlist().data() + t.idxz_u;
    const int n = t.j + 1;
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        const Cplx lhs = z[a * n + b];
        const Cplx rhs = z[(t.j - a) * n + (t.j - b)];
        const double sign = ((a + b) % 2 == 0) ? 1.0 : -1.0;
        EXPECT_NEAR(lhs.re, sign * rhs.re,
                    1e-9 * std::max(1.0, std::abs(rhs.re)));
        EXPECT_NEAR(lhs.im, -sign * rhs.im,
                    1e-9 * std::max(1.0, std::abs(rhs.im)));
      }
    }
  }
}

TEST(SnapEdge, NeighborWeightZeroEqualsAbsentNeighbor) {
  SnapParams p;
  p.twojmax = 4;
  Bispectrum bi(p);
  Rng rng(67);
  auto rij = shell(rng, 6, 0.9, 4.0);

  bi.compute_ui({rij.begin(), rij.end() - 1}, {});
  bi.compute_zi();
  bi.compute_bi();
  std::vector<double> without(bi.blist().begin(), bi.blist().end());

  std::vector<double> w(rij.size(), 1.0);
  w.back() = 0.0;
  bi.compute_ui(rij, w);
  bi.compute_zi();
  bi.compute_bi();
  for (int l = 0; l < bi.num_b(); ++l) {
    EXPECT_NEAR(bi.blist()[l], without[l],
                1e-11 * std::max(1.0, std::abs(without[l])));
  }
}

}  // namespace
}  // namespace ember::snap
