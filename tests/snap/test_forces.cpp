// Force-path validation: the adjoint kernel (compute_yi / compute_deidrj_all)
// and the baseline kernel (compute_zi / compute_dbidrj) must both agree
// with central finite differences of the SNAP energy, and with each other.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "snap/bispectrum.hpp"

namespace ember::snap {
namespace {

struct Cluster {
  std::vector<Vec3> pos;
  double rcut;
};

Cluster random_cluster(Rng& rng, int n, double rcut) {
  Cluster c;
  c.rcut = rcut;
  const double span = 1.6 * rcut;
  while (static_cast<int>(c.pos.size()) < n) {
    Vec3 cand{rng.uniform(0.0, span), rng.uniform(0.0, span),
              rng.uniform(0.0, span)};
    bool ok = true;
    for (const auto& p : c.pos) {
      if ((cand - p).norm() < 1.0) {
        ok = false;
        break;
      }
    }
    if (ok) c.pos.push_back(cand);
  }
  return c;
}

// Total SNAP energy of an open cluster (no PBC): sum of atomic energies.
double total_energy(Bispectrum& bi, const Cluster& c, double beta0,
                    std::span<const double> beta) {
  double e = 0.0;
  std::vector<Vec3> rij;
  for (std::size_t i = 0; i < c.pos.size(); ++i) {
    rij.clear();
    for (std::size_t k = 0; k < c.pos.size(); ++k) {
      if (k == i) continue;
      const Vec3 d = c.pos[k] - c.pos[i];
      if (d.norm() < c.rcut) rij.push_back(d);
    }
    bi.compute_ui(rij, {});
    bi.compute_zi();
    bi.compute_bi();
    e += bi.energy(beta0, beta);
  }
  return e;
}

// Forces via the adjoint path. F_k = -dE/dr_k accumulated over all central
// atoms i whose neighborhood contains k.
std::vector<Vec3> adjoint_forces(Bispectrum& bi, const Cluster& c,
                                 std::span<const double> beta) {
  std::vector<Vec3> f(c.pos.size());
  std::vector<Vec3> rij;
  std::vector<std::size_t> nbr;
  for (std::size_t i = 0; i < c.pos.size(); ++i) {
    rij.clear();
    nbr.clear();
    for (std::size_t k = 0; k < c.pos.size(); ++k) {
      if (k == i) continue;
      const Vec3 d = c.pos[k] - c.pos[i];
      if (d.norm() < c.rcut) {
        rij.push_back(d);
        nbr.push_back(k);
      }
    }
    bi.compute_ui(rij, {});
    bi.compute_yi(beta);
    std::vector<Vec3> de(rij.size());  // dE_i / dr_k
    bi.compute_deidrj_all(de);
    for (std::size_t m = 0; m < rij.size(); ++m) {
      f[nbr[m]] -= de[m];
      f[i] += de[m];  // dE_i/dr_i = -sum_k dE_i/dr_k
    }
  }
  return f;
}

// Forces via the baseline path (per-neighbor dB contracted with beta).
std::vector<Vec3> baseline_forces(Bispectrum& bi, const Cluster& c,
                                  std::span<const double> beta) {
  std::vector<Vec3> f(c.pos.size());
  std::vector<Vec3> rij;
  std::vector<std::size_t> nbr;
  for (std::size_t i = 0; i < c.pos.size(); ++i) {
    rij.clear();
    nbr.clear();
    for (std::size_t k = 0; k < c.pos.size(); ++k) {
      if (k == i) continue;
      const Vec3 d = c.pos[k] - c.pos[i];
      if (d.norm() < c.rcut) {
        rij.push_back(d);
        nbr.push_back(k);
      }
    }
    bi.compute_ui(rij, {});
    bi.compute_zi();
    for (std::size_t m = 0; m < rij.size(); ++m) {
      bi.compute_duidrj(rij[m], 1.0);
      bi.compute_dbidrj();
      Vec3 de;
      for (int l = 0; l < bi.num_b(); ++l) de += beta[l] * bi.dblist()[l];
      f[nbr[m]] -= de;
      f[i] += de;
    }
  }
  return f;
}

std::vector<double> random_beta(Rng& rng, int n) {
  std::vector<double> beta(n);
  for (auto& b : beta) b = rng.uniform(-1.0, 1.0);
  return beta;
}

class SnapForces : public ::testing::TestWithParam<int> {};

TEST_P(SnapForces, AdjointMatchesFiniteDifference) {
  const int twojmax = GetParam();
  SnapParams p;
  p.twojmax = twojmax;
  p.rcut = 3.6;
  Bispectrum bi(p);

  Rng rng(77 + twojmax);
  const Cluster c = random_cluster(rng, 8, p.rcut);
  const auto beta = random_beta(rng, bi.num_b());

  const auto f = adjoint_forces(bi, c, beta);

  const double h = 1e-6;
  Cluster pert = c;
  for (std::size_t k = 0; k < c.pos.size(); ++k) {
    for (int d = 0; d < 3; ++d) {
      pert.pos[k][d] = c.pos[k][d] + h;
      const double ep = total_energy(bi, pert, 0.0, beta);
      pert.pos[k][d] = c.pos[k][d] - h;
      const double em = total_energy(bi, pert, 0.0, beta);
      pert.pos[k][d] = c.pos[k][d];
      const double fd = -(ep - em) / (2 * h);
      EXPECT_NEAR(f[k][d], fd, 2e-5 * std::max(1.0, std::abs(fd)))
          << "atom " << k << " dim " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoJmax, SnapForces, ::testing::Values(2, 4, 8));

TEST(SnapForcesPaths, BaselineEqualsAdjoint) {
  SnapParams p;
  p.twojmax = 8;
  p.rcut = 3.6;
  Bispectrum bi(p);
  Rng rng(3);
  const Cluster c = random_cluster(rng, 10, p.rcut);
  const auto beta = random_beta(rng, bi.num_b());

  const auto fa = adjoint_forces(bi, c, beta);
  const auto fb = baseline_forces(bi, c, beta);
  for (std::size_t k = 0; k < c.pos.size(); ++k) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(fa[k][d], fb[k][d],
                  1e-9 * std::max(1.0, std::abs(fa[k][d])));
    }
  }
}

TEST(SnapForcesPaths, DuMatchesFiniteDifferenceOfU) {
  // d(fc * u)/dr check for a single neighbor against finite differences of
  // compute_ui (wself = 0 so utot is exactly the weighted U of the pair).
  SnapParams p;
  p.twojmax = 6;
  p.rcut = 4.0;
  p.wself = 0.0;
  Bispectrum bi(p);

  const Vec3 r0{1.3, -0.4, 1.7};
  bi.compute_duidrj(r0, 1.0);
  std::vector<DU> du(bi.dulist().begin(), bi.dulist().end());

  const double h = 1e-6;
  for (int d = 0; d < 3; ++d) {
    Vec3 rp = r0, rm = r0;
    rp[d] += h;
    rm[d] -= h;
    bi.compute_ui(std::span<const Vec3>(&rp, 1), {});
    std::vector<Cplx> up(bi.utot().begin(), bi.utot().end());
    bi.compute_ui(std::span<const Vec3>(&rm, 1), {});
    for (int i = 0; i < bi.index().u_total(); ++i) {
      const double fdre = (up[i].re - bi.utot()[i].re) / (2 * h);
      const double fdim = (up[i].im - bi.utot()[i].im) / (2 * h);
      EXPECT_NEAR(du[i].d[d].re, fdre, 1e-6);
      EXPECT_NEAR(du[i].d[d].im, fdim, 1e-6);
    }
  }
}

TEST(SnapForcesPaths, EnergyTranslationInvariance) {
  // Translating the whole cluster must not change the energy, and the sum
  // of forces must vanish (Newton's third law within the cluster).
  SnapParams p;
  p.twojmax = 6;
  p.rcut = 3.6;
  Bispectrum bi(p);
  Rng rng(8);
  Cluster c = random_cluster(rng, 9, p.rcut);
  const auto beta = random_beta(rng, bi.num_b());

  const double e0 = total_energy(bi, c, 0.1, beta);
  const auto f = adjoint_forces(bi, c, beta);

  Vec3 fsum;
  for (const auto& fk : f) fsum += fk;
  EXPECT_NEAR(fsum.x, 0.0, 1e-9);
  EXPECT_NEAR(fsum.y, 0.0, 1e-9);
  EXPECT_NEAR(fsum.z, 0.0, 1e-9);

  for (auto& r : c.pos) r += Vec3{3.3, -1.1, 0.7};
  EXPECT_NEAR(total_energy(bi, c, 0.1, beta), e0, 1e-9 * std::abs(e0));
}

}  // namespace
}  // namespace ember::snap
