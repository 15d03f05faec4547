// Parity contract of the production SNAP kernel. The lane kernel
// (compute_ui -> compute_yi -> compute_deidrj_all) must reproduce the
// independent Baseline path (full-range U recursion, Z, dB) to <= 1e-12
// per force component, at every lane width the host runs (EMBER_SIMD =
// scalar | avx2), across 2J, neighbor counts around the lane width (0,
// 1, w-1, w, w+1 and several blocks), linear and quadratic models, and
// 1/4/8 threads. Runs at a fixed thread count are bitwise
// repeatable. Utot is also checked against the closed-form Wigner
// matrices. The SIMD width 4 must also match the width-1 instantiation,
// and the dispatcher tests pin the EMBER_SIMD override rules.
// SymmetricKernelEdgeCases holds the reverse-mode dE to the same bound on
// shells the random draws miss: neighbors at the cutoff rim, on one
// ray or duplicated, and with the switching function off.
//
// The atom-block Y sweep (compute_ui(.., lane) -> compute_yi_block) must
// reproduce Y summed from the Baseline Z, and an atom's Y, energy and
// forces must be bitwise the same in any lane of any block.
//
// Suite names keep the kernel's lineage: "Symmetric" is the half-plane
// adjoint kernel (at width 1 under EMBER_SIMD=scalar), "Simd" its lane
// width 4, and "Naive" the full-range Baseline path used as oracle.
// "SimdAtomBlock" covers the atom-lane Y sweep at every width.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "md/compute_context.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "parallel/thread_pool.hpp"
#include "snap/simd/dispatch.hpp"
#include "snap/simd/kernels.hpp"
#include "snap/snap_potential.hpp"
#include "snap/wigner.hpp"
#include "simd_env.hpp"

namespace ember::snap {
namespace {

SnapParams base_params(int twojmax) {
  SnapParams p;
  p.twojmax = twojmax;
  p.rcut = 3.4;
  p.bzero_flag = true;
  return p;
}

// Randomized neighbor shell with radii well inside the cutoff.
std::vector<Vec3> random_shell(Rng& rng, int n, double rlo, double rhi) {
  std::vector<Vec3> rij;
  rij.reserve(n);
  while (static_cast<int>(rij.size()) < n) {
    Vec3 r{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
           rng.uniform(-1.0, 1.0)};
    const double norm = r.norm();
    if (norm < 0.2 || norm > 1.0) continue;
    const double scale = rng.uniform(rlo, rhi) / norm;
    rij.push_back(scale * r);
  }
  return rij;
}

// Utot from the closed-form Wigner matrices: sum_k w_k fc_k U(r_k) plus
// wself on the diagonal.
std::vector<Cplx> closed_form_utot(const Bispectrum& bi,
                                   const std::vector<Vec3>& rij,
                                   const std::vector<double>& wj) {
  const SnapParams& p = bi.params();
  const SnapIndex& idx = bi.index();
  std::vector<Cplx> utot(idx.u_total());
  for (int j = 0; j <= p.twojmax; ++j) {
    for (int ma = 0; ma <= j; ++ma) {
      utot[idx.u_index(j, ma, ma)] += Cplx{p.wself, 0.0};
    }
  }
  for (std::size_t k = 0; k < rij.size(); ++k) {
    const CayleyKlein ck =
        map_to_sphere(rij[k], p.rcut, p.rfac0, p.rmin0, p.switch_flag);
    for (int j = 0; j <= p.twojmax; ++j) {
      const auto u = wigner_matrix(j, ck.a, ck.b);
      for (int e = 0; e < (j + 1) * (j + 1); ++e) {
        utot[idx.u_block(j) + e] += (wj[k] * ck.fc) * u[e];
      }
    }
  }
  return utot;
}

// Adjoint dE of every neighbor (compute_ui -> compute_yi ->
// compute_deidrj_all) against the Baseline full-range recursion and dB
// contraction, <= 1e-12 per component.
void expect_de_matches_baseline(Bispectrum& bi, const std::vector<Vec3>& rij,
                                const std::vector<double>& wj,
                                const std::vector<double>& beta,
                                const std::string& where) {
  bi.compute_ui(rij, wj);
  bi.compute_yi(beta);
  std::vector<Vec3> de(rij.size());
  bi.compute_deidrj_all(de);
  bi.compute_zi();
  for (std::size_t m = 0; m < rij.size(); ++m) {
    bi.compute_duidrj(rij[m], wj[m]);
    bi.compute_dbidrj();
    Vec3 de_base;
    for (int l = 0; l < bi.num_b(); ++l) de_base += beta[l] * bi.dblist()[l];
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(de[m][d], de_base[d], 1e-12)
          << where << " neighbor " << m << " dim " << d;
    }
  }
}

class SymmetricKernelParity : public ::testing::TestWithParam<int> {};

TEST_P(SymmetricKernelParity, StagesMatchNaiveOracle) {
  const int twojmax = GetParam();
  for (const simd::SimdIsa isa : host_isas()) {
    ScopedSimdEnv env(simd::to_string(isa));
    Bispectrum bi(base_params(twojmax));
    ASSERT_EQ(bi.simd_isa(), isa);
    const int w = simd::lane_width(isa);
    // 0 and 1 neighbors, a block one short, exactly full and one over,
    // and several blocks with a remainder.
    const std::set<int> counts{0, 1, w - 1, w, w + 1, 2 * w + 3};
    for (const int nn : counts) {
      const std::string where = std::string(simd::to_string(isa)) +
                                " n=" + std::to_string(nn);
      Rng rng(101 + static_cast<std::uint64_t>(32 * twojmax + nn));
      const auto rij = random_shell(rng, nn, 0.8, 3.2);
      std::vector<double> wj(rij.size());
      for (auto& x : wj) x = rng.uniform(0.5, 1.5);
      // Model-scale coefficients keep the forces O(1), so the absolute
      // 1e-12 bound sits well above double rounding but far below any
      // real kernel discrepancy.
      std::vector<double> beta(bi.num_b());
      for (auto& b : beta) b = 0.01 * rng.uniform(-1.0, 1.0);

      bi.compute_ui(rij, wj);
      const auto ref_u = closed_form_utot(bi, rij, wj);
      for (int e = 0; e < bi.index().u_total(); ++e) {
        EXPECT_NEAR(bi.utot()[e].re, ref_u[e].re, 1e-12) << where << " u " << e;
        EXPECT_NEAR(bi.utot()[e].im, ref_u[e].im, 1e-12) << where << " u " << e;
      }

      bi.compute_yi(beta);
      const double e_adj = bi.energy_from_yi(0.4, beta);
      bi.compute_zi();
      bi.compute_bi();
      const double e_base = bi.energy(0.4, beta);
      EXPECT_NEAR(e_adj, e_base, 1e-12 * std::max(1.0, std::abs(e_base)))
          << where;
      expect_de_matches_baseline(bi, rij, wj, beta, where);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoJmaxSweep, SymmetricKernelParity,
                         ::testing::Values(2, 4, 6, 8, 14));

class SymmetricKernelEdgeCases : public ::testing::TestWithParam<int> {};

TEST_P(SymmetricKernelEdgeCases, DeMatchesBaseline) {
  // Shells the random 0.8-3.2 A draws above never reach: neighbors just
  // inside the cutoff (fc and dfc near zero), neighbors sharing a ray
  // with an adjacent exact duplicate (identical lane constants in one
  // block), and the unswitched kernel (dfc = 0: only the a/b gradient
  // carries the force).
  const int twojmax = GetParam();
  for (const simd::SimdIsa isa : host_isas()) {
    ScopedSimdEnv env(simd::to_string(isa));
    for (const bool switched : {true, false}) {
      SnapParams p = base_params(twojmax);
      p.switch_flag = switched;
      Bispectrum bi(p);
      ASSERT_EQ(bi.simd_isa(), isa);
      const std::string where = std::string(simd::to_string(isa)) +
                                (switched ? " switched" : " unswitched");
      Rng rng(409 + static_cast<std::uint64_t>(twojmax));
      std::vector<double> beta(bi.num_b());
      for (auto& b : beta) b = 0.01 * rng.uniform(-1.0, 1.0);

      const auto rim = random_shell(rng, 7, p.rcut - 0.1, p.rcut - 1e-6);
      expect_de_matches_baseline(bi, rim, std::vector<double>(7, 1.0), beta,
                                 where + " rim");

      const Vec3 ray = (1.0 / std::sqrt(14.0)) * Vec3{1.0, -2.0, 3.0};
      const std::vector<Vec3> same_ray{0.9 * ray, 1.7 * ray, 1.7 * ray,
                                       2.5 * ray, 3.3 * ray};
      expect_de_matches_baseline(bi, same_ray, {1.0, 0.8, 0.8, 1.2, 1.0},
                                 beta, where + " same ray");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoJmaxSweep, SymmetricKernelEdgeCases,
                         ::testing::Values(2, 8, 14));

// Every SIMD ISA the host runs, i.e. lane width > 1.
std::vector<simd::SimdIsa> host_simd_isas() {
  std::vector<simd::SimdIsa> isas;
  for (const auto isa : host_isas()) {
    if (isa != simd::SimdIsa::Scalar) isas.push_back(isa);
  }
  return isas;
}

class SimdKernelParity : public ::testing::TestWithParam<int> {};

TEST_P(SimdKernelParity, MatchesSymmetricAcrossNeighborCounts) {
  // The same template at width 4/8 against its width-1 instantiation:
  // padded remainder lanes must not leak into Utot, the energy or any
  // neighbor's force.
  const int twojmax = GetParam();
  for (const simd::SimdIsa isa : host_simd_isas()) {
    ScopedSimdEnv env(simd::to_string(isa));
    Bispectrum simd_bi(base_params(twojmax));
    ASSERT_EQ(simd_bi.simd_isa(), isa);
    Bispectrum sym = [&] {
      ScopedSimdEnv scalar("scalar");
      return Bispectrum(base_params(twojmax));
    }();
    ASSERT_EQ(sym.simd_isa(), simd::SimdIsa::Scalar);
    const int w = simd::lane_width(isa);
    const std::set<int> counts{0, 1, w - 1, w, w + 1, 7, 9, 22};
    for (const int nn : counts) {
      const std::string where = std::string(simd::to_string(isa)) +
                                " n=" + std::to_string(nn);
      Rng rng(101 + static_cast<std::uint64_t>(16 * twojmax + nn));
      const auto rij = random_shell(rng, nn, 0.8, 3.2);
      const std::vector<double> wj(rij.size(), 1.0);
      std::vector<double> beta(sym.num_b());
      for (auto& b : beta) b = 0.01 * rng.uniform(-1.0, 1.0);

      sym.compute_ui(rij, wj);
      simd_bi.compute_ui(rij, wj);
      for (int e = 0; e < sym.index().u_total(); ++e) {
        EXPECT_NEAR(simd_bi.utot()[e].re, sym.utot()[e].re, 1e-12)
            << where << " u " << e;
        EXPECT_NEAR(simd_bi.utot()[e].im, sym.utot()[e].im, 1e-12)
            << where << " u " << e;
      }

      sym.compute_yi(beta);
      simd_bi.compute_yi(beta);
      const double e_sym = sym.energy_from_yi(0.4, beta);
      const double e_simd = simd_bi.energy_from_yi(0.4, beta);
      EXPECT_NEAR(e_simd, e_sym, 1e-12 * std::max(1.0, std::abs(e_sym)))
          << where;

      std::vector<Vec3> de_sym(rij.size());
      std::vector<Vec3> de_simd(rij.size());
      sym.compute_deidrj_all(de_sym);
      simd_bi.compute_deidrj_all(de_simd);
      for (std::size_t m = 0; m < rij.size(); ++m) {
        for (int d = 0; d < 3; ++d) {
          EXPECT_NEAR(de_simd[m][d], de_sym[m][d], 1e-12)
              << where << " neighbor " << m << " dim " << d;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoJmaxSweep, SimdKernelParity,
                         ::testing::Values(2, 4, 8));

// Per-triple adjoint coefficients beta[idxb] * beta_scale.
std::vector<double> fold_coeffs(const SnapIndex& idx,
                                const std::vector<double>& beta) {
  std::vector<double> c;
  for (const auto& t : idx.z_triples()) {
    c.push_back(beta[t.idxb] * t.beta_scale);
  }
  return c;
}

// Weight-folded half-range Y summed from the Baseline Z list of the last
// compute_zi: Y[j,ma,mb] = sum over the triples coupling to j of
// coeff[t] * Z_t[ma,mb], independent of the Y work list.
std::vector<Cplx> y_from_z(const Bispectrum& bi,
                           const std::vector<double>& coeffs) {
  const SnapIndex& idx = bi.index();
  std::vector<Cplx> y(idx.u_half_total());
  for (std::size_t ti = 0; ti < idx.z_triples().size(); ++ti) {
    const ZTriple& t = idx.z_triples()[ti];
    for (int ma = 0; ma <= t.j; ++ma) {
      for (int mb = 0; 2 * mb <= t.j; ++mb) {
        y[idx.u_half_index(t.j, ma, mb)] +=
            coeffs[ti] * bi.zlist()[t.idxz_u + ma * (t.j + 1) + mb];
      }
    }
  }
  for (int e = 0; e < idx.u_half_total(); ++e) {
    y[e] = idx.half_weights()[e] * y[e];
  }
  return y;
}

class SimdAtomBlockParity : public ::testing::TestWithParam<int> {};

TEST_P(SimdAtomBlockParity, BlockYMatchesBaselineZ) {
  // One block of lane-width atoms with different neighbor counts: each
  // lane's Y must equal Y summed from that atom's Baseline Z list, its
  // energy the Baseline energy, and its forces those of the per-atom
  // (width-1 Y) call.
  const int twojmax = GetParam();
  for (const simd::SimdIsa isa : host_isas()) {
    ScopedSimdEnv env(simd::to_string(isa));
    Bispectrum bi(base_params(twojmax));
    Bispectrum ref(base_params(twojmax));
    const int w = bi.lane_width();
    Rng rng(701 + static_cast<std::uint64_t>(twojmax));
    std::vector<double> beta(bi.num_b());
    for (auto& b : beta) b = 0.01 * rng.uniform(-1.0, 1.0);
    const std::vector<double> coeffs = fold_coeffs(bi.index(), beta);
    std::vector<std::vector<Vec3>> rij;
    std::vector<std::vector<double>> wj;
    for (int a = 0; a < w; ++a) {
      rij.push_back(random_shell(rng, 3 + 2 * a, 0.8, 3.2));
      wj.emplace_back(rij.back().size());
      for (auto& x : wj.back()) x = rng.uniform(0.5, 1.5);
      bi.compute_ui(rij[a], wj[a], a);
    }
    bi.compute_yi_block(coeffs);

    const int nh = bi.index().u_half_total();
    for (int a = 0; a < w; ++a) {
      const std::string where = std::string(simd::to_string(isa)) +
                                " lane " + std::to_string(a);
      ref.compute_ui(rij[a], wj[a]);
      ref.compute_zi();
      ref.compute_bi();
      const std::vector<Cplx> y_ref = y_from_z(ref, coeffs);
      for (int e = 0; e < nh; ++e) {
        const Cplx want = y_ref[e];
        const double tol = 1e-12 * std::max(1.0, std::abs(want.re) +
                                                     std::abs(want.im));
        EXPECT_NEAR(bi.yi_half(e, a).re, want.re, tol) << where << " y " << e;
        EXPECT_NEAR(bi.yi_half(e, a).im, want.im, tol) << where << " y " << e;
      }
      const double e_base = ref.energy(0.4, beta);
      EXPECT_NEAR(bi.energy_from_yi(0.4, beta, a), e_base,
                  1e-12 * std::max(1.0, std::abs(e_base)))
          << where;

      std::vector<Vec3> de(rij[a].size());
      bi.compute_deidrj_all(de, a);
      ref.compute_ui(rij[a], wj[a]);
      ref.compute_yi_coeffs(coeffs);  // the width-1 sweep
      std::vector<Vec3> de_ref(rij[a].size());
      ref.compute_deidrj_all(de_ref);
      for (std::size_t m = 0; m < de.size(); ++m) {
        for (int d = 0; d < 3; ++d) {
          EXPECT_NEAR(de[m][d], de_ref[m][d], 1e-12)
              << where << " neighbor " << m << " dim " << d;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoJmaxSweep, SimdAtomBlockParity,
                         ::testing::Values(2, 4, 6, 8, 14));

struct LaneResult {
  std::vector<Cplx> y;
  double energy = 0.0;
  std::vector<Vec3> de;
};

LaneResult lane_result(Bispectrum& bi, int lane, int nn,
                       const std::vector<double>& beta) {
  LaneResult r;
  for (int e = 0; e < bi.index().u_half_total(); ++e) {
    r.y.push_back(bi.yi_half(e, lane));
  }
  r.energy = bi.energy_from_yi(0.4, beta, lane);
  r.de.resize(nn);
  bi.compute_deidrj_all(r.de, lane);
  return r;
}

void expect_bitwise(const LaneResult& got, const LaneResult& want,
                    const std::string& where) {
  ASSERT_EQ(got.y.size(), want.y.size());
  for (std::size_t e = 0; e < want.y.size(); ++e) {
    EXPECT_EQ(got.y[e].re, want.y[e].re) << where << " y " << e;
    EXPECT_EQ(got.y[e].im, want.y[e].im) << where << " y " << e;
  }
  EXPECT_EQ(got.energy, want.energy) << where;
  ASSERT_EQ(got.de.size(), want.de.size());
  for (std::size_t m = 0; m < want.de.size(); ++m) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(got.de[m][d], want.de[m][d]) << where << " neighbor " << m;
    }
  }
}

TEST(SimdAtomBlock, LaneResultsAreBitwiseIndependentOfLaneAndBlockMates) {
  for (const simd::SimdIsa isa : host_isas()) {
    ScopedSimdEnv env(simd::to_string(isa));
    Bispectrum bi(base_params(8));
    const int w = bi.lane_width();
    Rng rng(811);
    std::vector<double> beta(bi.num_b());
    for (auto& b : beta) b = 0.01 * rng.uniform(-1.0, 1.0);
    const std::vector<double> coeffs = fold_coeffs(bi.index(), beta);
    std::vector<std::vector<Vec3>> atoms;
    for (int a = 0; a <= w; ++a) {
      atoms.push_back(random_shell(rng, 5 + 3 * a, 0.8, 3.2));
    }
    const auto nn = [&](int a) { return static_cast<int>(atoms[a].size()); };

    // Each atom alone in lane 0 is the reference; alone in the last lane
    // must match it.
    std::vector<LaneResult> alone;
    for (int a = 0; a <= w; ++a) {
      bi.compute_ui(atoms[a], {}, 0);
      bi.compute_yi_block(coeffs);
      alone.push_back(lane_result(bi, 0, nn(a), beta));
      bi.compute_ui(atoms[a], {}, w - 1);
      bi.compute_yi_block(coeffs);
      expect_bitwise(lane_result(bi, w - 1, nn(a), beta), alone[a],
                     std::string(simd::to_string(isa)) + " last lane, atom " +
                         std::to_string(a));
    }

    // Blocks of 1, w-1, w and w+1 atoms, lanes filled in order.
    for (const int natoms : std::set<int>{1, w - 1, w, w + 1}) {
      if (natoms == 0) continue;
      for (int b0 = 0; b0 < natoms; b0 += w) {
        const int nb = std::min(w, natoms - b0);
        for (int l = 0; l < nb; ++l) bi.compute_ui(atoms[b0 + l], {}, l);
        bi.compute_yi_block(coeffs);
        for (int l = 0; l < nb; ++l) {
          expect_bitwise(lane_result(bi, l, nn(b0 + l), beta), alone[b0 + l],
                         std::string(simd::to_string(isa)) + " block of " +
                             std::to_string(natoms) + ", atom " +
                             std::to_string(b0 + l));
        }
      }
    }
  }
}

TEST(SimdAtomBlock, YiBlockWritesEveryHalfElement) {
  // Zero-weight elements have no work-list terms, but dei seeds its
  // adjoint with Y over every half element, so the sweep must still
  // store them: over NaN-filled Y planes, each reads exactly 0 after one
  // block and every other element is finite.
  const SnapIndex& idx = SnapIndex::shared(8);
  for (const simd::SimdIsa isa : host_isas()) {
    const simd::SimdOps& ops = simd::ops_for(isa);
    const std::size_t w = static_cast<std::size_t>(ops.width);
    Rng rng(907);
    aligned_vector<double> uf_re(idx.u_total() * w);
    aligned_vector<double> uf_im(idx.u_total() * w);
    for (auto& x : uf_re) x = rng.uniform(-1.0, 1.0);
    for (auto& x : uf_im) x = rng.uniform(-1.0, 1.0);
    std::vector<double> coeffs(idx.z_triples().size());
    for (auto& c : coeffs) c = rng.uniform(-1.0, 1.0);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    aligned_vector<double> y_re(idx.u_half_total() * w, nan);
    aligned_vector<double> y_im(idx.u_half_total() * w, nan);
    ops.yi_block({&idx, ops.width, uf_re.data(), uf_im.data(), coeffs.data(),
                  y_re.data(), y_im.data()});
    for (int e = 0; e < idx.u_half_total(); ++e) {
      for (std::size_t l = 0; l < w; ++l) {
        const double re = y_re[e * w + l];
        const double im = y_im[e * w + l];
        if (idx.half_weights()[e] == 0.0) {
          EXPECT_EQ(re, 0.0) << simd::to_string(isa) << " e " << e;
          EXPECT_EQ(im, 0.0) << simd::to_string(isa) << " e " << e;
        } else {
          EXPECT_TRUE(std::isfinite(re) && std::isfinite(im))
              << simd::to_string(isa) << " e " << e << " lane " << l;
        }
      }
    }
  }
}

TEST(SymmetricKernel, MixedStageSequenceStaysCorrect) {
  // The quadratic force path runs compute_zi/compute_bi between
  // compute_ui and compute_yi, and the Baseline path runs compute_duidrj
  // on the same instance. Neither may disturb the lane state that
  // compute_deidrj_all reads.
  Rng rng(91);
  const auto rij = random_shell(rng, 12, 0.9, 3.0);
  Bispectrum bi(base_params(8));
  std::vector<double> beta(bi.num_b());
  for (auto& b : beta) b = 0.01 * rng.uniform(-1.0, 1.0);

  bi.compute_ui(rij, {});
  bi.compute_yi(beta);
  std::vector<Vec3> plain(rij.size());
  bi.compute_deidrj_all(plain);

  bi.compute_ui(rij, {});
  bi.compute_zi();
  bi.compute_bi();
  bi.compute_yi(beta);
  for (const auto& r : rij) bi.compute_duidrj(r, 1.0);
  bi.compute_dbidrj();
  std::vector<Vec3> mixed(rij.size());
  bi.compute_deidrj_all(mixed);
  for (std::size_t m = 0; m < rij.size(); ++m) {
    for (int d = 0; d < 3; ++d) EXPECT_EQ(mixed[m][d], plain[m][d]);
  }
}

// ---- full-potential parity over a periodic system ------------------------

SnapModel parity_model(int twojmax, bool quadratic, std::uint64_t seed) {
  SnapParams p = base_params(twojmax);
  p.rcut = 2.6;
  SnapModel m;
  m.params = p;
  Rng rng(seed);
  m.beta.resize(SnapIndex(twojmax).num_b());
  for (auto& b : m.beta) b = 0.02 * rng.uniform(-1.0, 1.0);
  m.beta0 = -1.0;
  if (quadratic) {
    const std::size_t n = m.beta.size();
    Rng qrng(seed + 100);
    m.alpha.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double v = 1e-4 * qrng.uniform(-1.0, 1.0);
        m.alpha[i * n + j] = v;
        m.alpha[j * n + i] = v;
      }
    }
  }
  return m;
}

md::System perturbed_diamond(int reps, double sigma, std::uint64_t seed) {
  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Diamond;
  spec.a = 3.567;
  spec.nx = spec.ny = spec.nz = reps;
  md::System sys = md::build_lattice(spec, 12.011);
  Rng rng(seed);
  md::perturb(sys, sigma, rng);
  return sys;
}

struct ForceRun {
  double energy = 0.0;
  double virial = 0.0;
  std::vector<Vec3> f;
};

ForceRun run_potential(const SnapModel& model, const md::System& start,
                       int nthreads, SnapPotential::Path path) {
  md::System sys = start;
  SnapPotential pot(model, path);
  const md::ComputeContext ctx{ExecutionPolicy{nthreads}};
  md::NeighborList nl(pot.cutoff(), 0.3);
  nl.build(sys, /*use_ghosts=*/false, &ctx);
  sys.zero_forces();
  const auto ev = pot.compute(ctx, sys, nl);
  return {ev.energy, ev.virial,
          std::vector<Vec3>(sys.f.begin(), sys.f.end())};
}

void expect_potential_parity(bool quadratic) {
  const md::System sys = perturbed_diamond(2, 0.1, 23);
  const SnapModel model = parity_model(8, quadratic, 7);
  const ForceRun oracle =
      run_potential(model, sys, 1, SnapPotential::Path::Baseline);
  for (const simd::SimdIsa isa : host_isas()) {
    ScopedSimdEnv env(simd::to_string(isa));
    for (const int nth : {1, 4, 8}) {
      const std::string where =
          std::string(simd::to_string(isa)) + ", " + std::to_string(nth) +
          " threads";
      const ForceRun got =
          run_potential(model, sys, nth, SnapPotential::Path::Adjoint);
      EXPECT_NEAR(got.energy, oracle.energy,
                  1e-12 * std::max(1.0, std::abs(oracle.energy)))
          << where;
      EXPECT_NEAR(got.virial, oracle.virial,
                  1e-12 * std::max(1.0, std::abs(oracle.virial)))
          << where;
      ASSERT_EQ(got.f.size(), oracle.f.size());
      for (std::size_t i = 0; i < oracle.f.size(); ++i) {
        for (int d = 0; d < 3; ++d) {
          EXPECT_NEAR(got.f[i][d], oracle.f[i][d], 1e-12)
              << where << ", atom " << i << " dim " << d;
        }
      }

      // Bitwise repeatable at a fixed thread count.
      const ForceRun again =
          run_potential(model, sys, nth, SnapPotential::Path::Adjoint);
      EXPECT_EQ(again.energy, got.energy) << where;
      EXPECT_EQ(again.virial, got.virial) << where;
      for (std::size_t i = 0; i < got.f.size(); ++i) {
        for (int d = 0; d < 3; ++d) {
          EXPECT_EQ(again.f[i][d], got.f[i][d]) << where << ", atom " << i;
        }
      }
    }
  }
}

TEST(SymmetricKernel, LinearPotentialMatchesNaive) {
  expect_potential_parity(/*quadratic=*/false);
}

TEST(SymmetricKernel, QuadraticPotentialMatchesNaive) {
  expect_potential_parity(/*quadratic=*/true);
}

TEST(SymmetricKernel, PartialAtomBlocksMatchNaive) {
  // 61 atoms (a diamond cell with three vacancies): no thread count splits
  // them into whole blocks of 8, so the last block of some chunk pads
  // atom lanes.
  const md::System full = perturbed_diamond(2, 0.1, 29);
  md::System sys(full.box(), full.mass());
  for (int i = 0; i < full.nlocal() - 3; ++i) sys.add_atom(full.x[i]);
  const SnapModel model = parity_model(8, /*quadratic=*/false, 11);
  const ForceRun oracle =
      run_potential(model, sys, 1, SnapPotential::Path::Baseline);
  for (const simd::SimdIsa isa : host_isas()) {
    ScopedSimdEnv env(simd::to_string(isa));
    for (const int nth : {1, 4, 8}) {
      const std::string where =
          std::string(simd::to_string(isa)) + ", " + std::to_string(nth) +
          " threads";
      const ForceRun got =
          run_potential(model, sys, nth, SnapPotential::Path::Adjoint);
      EXPECT_NEAR(got.energy, oracle.energy,
                  1e-12 * std::max(1.0, std::abs(oracle.energy)))
          << where;
      ASSERT_EQ(got.f.size(), oracle.f.size());
      for (std::size_t i = 0; i < oracle.f.size(); ++i) {
        for (int d = 0; d < 3; ++d) {
          EXPECT_NEAR(got.f[i][d], oracle.f[i][d], 1e-12)
              << where << ", atom " << i << " dim " << d;
        }
      }
      const ForceRun again =
          run_potential(model, sys, nth, SnapPotential::Path::Adjoint);
      EXPECT_EQ(again.energy, got.energy) << where;
      for (std::size_t i = 0; i < got.f.size(); ++i) {
        for (int d = 0; d < 3; ++d) {
          EXPECT_EQ(again.f[i][d], got.f[i][d]) << where << ", atom " << i;
        }
      }
    }
  }
}

TEST(SimdKernel, PotentialMatchesSymmetricAcrossThreads) {
  const md::System sys = perturbed_diamond(2, 0.1, 23);
  const SnapModel model = parity_model(8, /*quadratic=*/false, 7);
  const ForceRun oracle = [&] {
    ScopedSimdEnv scalar("scalar");
    return run_potential(model, sys, 1, SnapPotential::Path::Adjoint);
  }();
  for (const simd::SimdIsa isa : host_simd_isas()) {
    ScopedSimdEnv env(simd::to_string(isa));
    for (const int nth : {1, 4}) {
      const std::string where =
          std::string(simd::to_string(isa)) + ", " + std::to_string(nth) +
          " threads";
      const ForceRun got =
          run_potential(model, sys, nth, SnapPotential::Path::Adjoint);
      EXPECT_NEAR(got.energy, oracle.energy,
                  1e-12 * std::max(1.0, std::abs(oracle.energy)))
          << where;
      EXPECT_NEAR(got.virial, oracle.virial,
                  1e-12 * std::max(1.0, std::abs(oracle.virial)))
          << where;
      ASSERT_EQ(got.f.size(), oracle.f.size());
      for (std::size_t i = 0; i < oracle.f.size(); ++i) {
        for (int d = 0; d < 3; ++d) {
          EXPECT_NEAR(got.f[i][d], oracle.f[i][d], 1e-12)
              << where << ", atom " << i << " dim " << d;
        }
      }
    }
  }
}

// ---- dispatch ------------------------------------------------------------

TEST(SimdDispatch, ScalarOverrideRunsWidthOneKernel) {
  ScopedSimdEnv env("scalar");
  EXPECT_EQ(simd::choose_isa(), simd::SimdIsa::Scalar);
  EXPECT_EQ(simd::ops_for(simd::SimdIsa::Scalar).width, 1);
  const Bispectrum bi(base_params(4));
  EXPECT_EQ(bi.simd_isa(), simd::SimdIsa::Scalar);
}

TEST(SimdDispatch, OverrideOnlyLowersTheIsa) {
  const simd::SimdIsa cap = simd::max_supported_isa();
  {
    ScopedSimdEnv env("scalar");
    EXPECT_EQ(simd::choose_isa(), simd::SimdIsa::Scalar);
  }
  {
    // avx2 lowers an AVX-512 host to width 4 and clamps a scalar-only
    // host down instead of failing.
    ScopedSimdEnv env("avx2");
    EXPECT_EQ(simd::lane_width(simd::choose_isa()),
              std::min(4, simd::lane_width(cap)));
  }
  {
    // The highest request is clamped to the capability.
    ScopedSimdEnv env("avx512");
    EXPECT_EQ(simd::choose_isa(), cap);
  }
  {
    ScopedSimdEnv env(nullptr);
    EXPECT_EQ(simd::choose_isa(), cap);
  }
}

TEST(SimdDispatch, UnknownOverrideThrows) {
  ScopedSimdEnv env("sse9");
  EXPECT_THROW(static_cast<void>(simd::choose_isa()), Error);
  EXPECT_THROW(Bispectrum(base_params(2)), Error);
  {
    // Every ISA name is a valid value, whether or not the host runs it.
    ScopedSimdEnv known("avx512");
    EXPECT_NO_THROW(static_cast<void>(simd::choose_isa()));
  }
}

TEST(SimdDispatch, LaneWidthMatchesIsa) {
  EXPECT_EQ(simd::lane_width(simd::SimdIsa::Scalar), 1);
  EXPECT_EQ(simd::lane_width(simd::SimdIsa::Avx2), 4);
  EXPECT_EQ(simd::lane_width(simd::SimdIsa::Avx512), 8);
  EXPECT_STREQ(simd::to_string(simd::SimdIsa::Avx2), "avx2");
  EXPECT_STREQ(simd::to_string(simd::SimdIsa::Avx512), "avx512");
  // Every ISA the host runs has a kernel table of its lane width.
  for (const simd::SimdIsa isa : host_isas()) {
    EXPECT_EQ(simd::ops_for(isa).width, simd::lane_width(isa));
  }
  // An instance reports the ISA it actually dispatched to.
  const Bispectrum bi(base_params(2));
  EXPECT_EQ(bi.simd_isa(), simd::choose_isa());
}

}  // namespace
}  // namespace ember::snap
