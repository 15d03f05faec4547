// Property tests of the bispectrum kernel: recursion vs closed form,
// rotation and permutation invariance, cutoff smoothness, bzero.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "snap/bispectrum.hpp"
#include "snap/wigner.hpp"

namespace ember::snap {
namespace {

std::vector<Vec3> random_neighbors(Rng& rng, int n, double rlo, double rhi) {
  std::vector<Vec3> rij;
  rij.reserve(n);
  while (static_cast<int>(rij.size()) < n) {
    Vec3 r{rng.uniform(-rhi, rhi), rng.uniform(-rhi, rhi),
           rng.uniform(-rhi, rhi)};
    const double d = r.norm();
    if (d > rlo && d < rhi * 0.98) rij.push_back(r);
  }
  return rij;
}

// Apply rotation matrix (row-major 3x3) to a vector.
Vec3 rotate(const double R[9], const Vec3& v) {
  return {R[0] * v.x + R[1] * v.y + R[2] * v.z,
          R[3] * v.x + R[4] * v.y + R[5] * v.z,
          R[6] * v.x + R[7] * v.y + R[8] * v.z};
}

// Random rotation from three Euler-like Givens rotations.
void random_rotation(Rng& rng, double R[9]) {
  const double a = rng.uniform(0.0, 2 * M_PI);
  const double b = rng.uniform(0.0, M_PI);
  const double c = rng.uniform(0.0, 2 * M_PI);
  const double ca = std::cos(a), sa = std::sin(a);
  const double cb = std::cos(b), sb = std::sin(b);
  const double cc = std::cos(c), sc = std::sin(c);
  // Z(a) * Y(b) * Z(c)
  R[0] = ca * cb * cc - sa * sc;
  R[1] = -ca * cb * sc - sa * cc;
  R[2] = ca * sb;
  R[3] = sa * cb * cc + ca * sc;
  R[4] = -sa * cb * sc + ca * cc;
  R[5] = sa * sb;
  R[6] = -sb * cc;
  R[7] = sb * sc;
  R[8] = cb;
}

TEST(Bispectrum, RecursionMatchesClosedFormWigner) {
  SnapParams p;
  p.twojmax = 8;
  p.rcut = 4.7;
  p.switch_flag = false;  // fc = 1 so utot of one neighbor is the bare U
  p.wself = 0.0;          // no self term
  Bispectrum bi(p);

  const Vec3 rij{1.2, -0.8, 2.1};
  bi.compute_ui(std::span<const Vec3>(&rij, 1), {});

  const auto ck = map_to_sphere(rij, p.rcut, p.rfac0, p.rmin0, false);
  for (int j = 0; j <= p.twojmax; ++j) {
    const auto ref = wigner_matrix(j, ck.a, ck.b);
    const int n = j + 1;
    for (int ma = 0; ma < n; ++ma) {
      for (int mb = 0; mb < n; ++mb) {
        const Cplx got = bi.utot()[bi.index().u_index(j, ma, mb)];
        EXPECT_NEAR(got.re, ref[ma * n + mb].re, 1e-12)
            << "j=" << j << " ma=" << ma << " mb=" << mb;
        EXPECT_NEAR(got.im, ref[ma * n + mb].im, 1e-12);
      }
    }
  }
}

class BispectrumInvariance : public ::testing::TestWithParam<int> {};

TEST_P(BispectrumInvariance, RotationInvariant) {
  const int twojmax = GetParam();
  SnapParams p;
  p.twojmax = twojmax;
  p.rcut = 4.7;
  Bispectrum bi(p);

  Rng rng(42 + twojmax);
  const auto rij = random_neighbors(rng, 12, 0.8, p.rcut);

  bi.compute_ui(rij, {});
  bi.compute_zi();
  bi.compute_bi();
  std::vector<double> b0(bi.blist().begin(), bi.blist().end());

  for (int trial = 0; trial < 3; ++trial) {
    double R[9];
    random_rotation(rng, R);
    std::vector<Vec3> rot(rij.size());
    for (std::size_t k = 0; k < rij.size(); ++k) rot[k] = rotate(R, rij[k]);
    bi.compute_ui(rot, {});
    bi.compute_zi();
    bi.compute_bi();
    for (int l = 0; l < bi.num_b(); ++l) {
      EXPECT_NEAR(bi.blist()[l], b0[l],
                  1e-9 * std::max(1.0, std::abs(b0[l])))
          << "component " << l << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoJmax, BispectrumInvariance,
                         ::testing::Values(2, 4, 6, 8));

TEST(Bispectrum, PermutationInvariant) {
  SnapParams p;
  p.twojmax = 6;
  Bispectrum bi(p);
  Rng rng(5);
  auto rij = random_neighbors(rng, 10, 0.8, p.rcut);

  bi.compute_ui(rij, {});
  bi.compute_zi();
  bi.compute_bi();
  std::vector<double> b0(bi.blist().begin(), bi.blist().end());

  // Reverse the neighbor order.
  std::reverse(rij.begin(), rij.end());
  bi.compute_ui(rij, {});
  bi.compute_zi();
  bi.compute_bi();
  for (int l = 0; l < bi.num_b(); ++l) {
    EXPECT_NEAR(bi.blist()[l], b0[l], 1e-10 * std::max(1.0, std::abs(b0[l])));
  }
}

TEST(Bispectrum, ComponentsAreReal) {
  // The imaginary part of Z : U* must cancel; check via the z elements'
  // contribution directly by comparing against an explicitly symmetrized
  // sum (we only verify B is insensitive to conjugating the neighbor set
  // through z -> -z mirror, which flips the imaginary parts).
  SnapParams p;
  p.twojmax = 8;
  Bispectrum bi(p);
  Rng rng(9);
  auto rij = random_neighbors(rng, 8, 0.8, p.rcut);
  bi.compute_ui(rij, {});
  bi.compute_zi();
  bi.compute_bi();
  for (int l = 0; l < bi.num_b(); ++l) {
    EXPECT_TRUE(std::isfinite(bi.blist()[l]));
  }
  // Mirror symmetry z -> -z is a rotation by pi about x composed with a
  // parity flip; bispectrum components are parity even, so B must match.
  std::vector<Vec3> mirrored;
  mirrored.reserve(rij.size());
  for (const auto& r : rij) mirrored.push_back({r.x, r.y, -r.z});
  std::vector<double> b0(bi.blist().begin(), bi.blist().end());
  bi.compute_ui(mirrored, {});
  bi.compute_zi();
  bi.compute_bi();
  for (int l = 0; l < bi.num_b(); ++l) {
    EXPECT_NEAR(bi.blist()[l], b0[l], 1e-9 * std::max(1.0, std::abs(b0[l])));
  }
}

TEST(Bispectrum, NeighborContributionVanishesAtCutoff) {
  SnapParams p;
  p.twojmax = 8;
  p.rcut = 4.0;
  Bispectrum bi(p);
  Rng rng(12);
  auto rij = random_neighbors(rng, 6, 0.8, p.rcut);

  bi.compute_ui(rij, {});
  bi.compute_zi();
  bi.compute_bi();
  std::vector<double> b0(bi.blist().begin(), bi.blist().end());

  // Add a neighbor just inside the cutoff: B must barely change.
  auto with_extra = rij;
  with_extra.push_back({p.rcut - 1e-7, 0.0, 0.0});
  bi.compute_ui(with_extra, {});
  bi.compute_zi();
  bi.compute_bi();
  for (int l = 0; l < bi.num_b(); ++l) {
    EXPECT_NEAR(bi.blist()[l], b0[l], 1e-8 * std::max(1.0, std::abs(b0[l])));
  }
}

TEST(Bispectrum, BzeroSubtractsIsolatedAtom) {
  SnapParams p;
  p.twojmax = 6;
  p.bzero_flag = true;
  Bispectrum bi(p);
  // Isolated atom: all components must be exactly zero after subtraction.
  bi.compute_ui({}, {});
  bi.compute_zi();
  bi.compute_bi();
  for (int l = 0; l < bi.num_b(); ++l) {
    EXPECT_NEAR(bi.blist()[l], 0.0, 1e-12);
  }
}

TEST(Bispectrum, WeightsScaleContributions) {
  // Two identical neighbors with weight 1 must equal one neighbor with
  // weight 2 (U accumulation is linear in the weighted density).
  SnapParams p;
  p.twojmax = 4;
  Bispectrum bi(p);
  const Vec3 r{1.5, 0.3, -0.9};
  const std::vector<Vec3> two{r, r};
  const std::vector<double> w1{1.0, 1.0};
  bi.compute_ui(two, w1);
  bi.compute_zi();
  bi.compute_bi();
  std::vector<double> b_two(bi.blist().begin(), bi.blist().end());

  const std::vector<Vec3> one{r};
  const std::vector<double> w2{2.0};
  bi.compute_ui(one, w2);
  bi.compute_zi();
  bi.compute_bi();
  for (int l = 0; l < bi.num_b(); ++l) {
    EXPECT_NEAR(bi.blist()[l], b_two[l], 1e-10 * std::max(1.0, std::abs(b_two[l])));
  }
}

TEST(Bispectrum, FlopEstimatesArePositiveAndOrdered) {
  SnapParams p8;
  p8.twojmax = 8;
  SnapParams p14;
  p14.twojmax = 14;
  Bispectrum b8(p8);
  Bispectrum b14(p14);
  EXPECT_GT(b8.flops_yi(), b8.flops_ui(1));
  // O(J^7) growth: 2J=14 coupling sweep must dwarf 2J=8's.
  EXPECT_GT(b14.flops_yi() / b8.flops_yi(), 8.0);
  EXPECT_GT(b8.flops_adjoint_atom(26), 0.0);
  // Baseline dB per neighbor costs far more than adjoint dE per neighbor.
  EXPECT_GT(b8.flops_dbidrj(), 5.0 * b8.flops_deidrj());
}

TEST(Bispectrum, FlopCountsAreCachedFromTheYWorkList) {
  for (const int tj : {2, 8, 14}) {
    SnapParams p;
    p.twojmax = tj;
    const Bispectrum bi(p);
    const SnapIndex& idx = bi.index();
    // yi executes a complex product (6) per work-list product, two FMAs
    // (4) per coefficient, two FMAs (4) per group output into Y and 2 per
    // half element for the weight fold.
    EXPECT_EQ(bi.flops_yi(),
              6.0 * static_cast<double>(idx.y_products().size()) +
                  4.0 * static_cast<double>(idx.y_coeffs().size()) +
                  4.0 * static_cast<double>(idx.y_outputs().size()) +
                  2.0 * idx.u_half_total());
    double bi_flops = 0.0;
    double db_flops = 0.0;
    for (const auto& bt : idx.b_triples()) {
      bi_flops += 4.0 * (bt.j + 1) * (bt.j + 1);
      db_flops += 12.0 * ((bt.j + 1) * (bt.j + 1) +
                          (bt.j1 + 1) * (bt.j1 + 1) +
                          (bt.j2 + 1) * (bt.j2 + 1));
    }
    EXPECT_EQ(bi.flops_bi(), bi_flops);
    EXPECT_EQ(bi.flops_dbidrj(), db_flops);
    // dE per neighbor: the replayed U recursion (22) and the reverse
    // sweep (36) per half element; the S0 seed (4) per half element and
    // the chain rule (33) once.
    EXPECT_EQ(bi.flops_duidrj(), 58.0 * idx.u_half_total());
    EXPECT_EQ(bi.flops_deidrj(), 4.0 * idx.u_half_total() + 33.0);
    // The adjoint atom total adds per-neighbor work to the cached Y count.
    EXPECT_EQ(bi.flops_adjoint_atom(0), bi.flops_yi());
    EXPECT_EQ(bi.flops_adjoint_atom(3) - bi.flops_adjoint_atom(2),
              bi.flops_ui(1) + bi.flops_duidrj() + bi.flops_deidrj());
  }
}

}  // namespace
}  // namespace ember::snap
