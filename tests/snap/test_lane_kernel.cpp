// Parity contract of the production SNAP kernel. The lane kernel
// (compute_ui -> compute_yi -> compute_deidrj_all) must reproduce the
// independent Baseline path (full-range U recursion, Z, dB) to <= 1e-12
// per force component, at every lane width the host runs (EMBER_SIMD =
// scalar | avx2 | avx512), across 2J, neighbor counts around the lane
// width (0, 1, w-1, w, w+1 and several blocks), linear and quadratic
// models, and 1/4/8 threads. Runs at a fixed thread count are bitwise
// repeatable. Utot is also checked against the closed-form Wigner
// matrices. The SIMD widths 4/8 must also match the width-1 instantiation,
// and the dispatcher tests pin the EMBER_SIMD override rules.
//
// Suite names keep the kernel's lineage: "Symmetric" is the half-plane
// adjoint kernel (at width 1 under EMBER_SIMD=scalar), "Simd" its lane
// widths 4 and 8, and "Naive" the full-range Baseline path used as oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "md/compute_context.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "parallel/thread_pool.hpp"
#include "snap/simd/dispatch.hpp"
#include "snap/simd/kernels.hpp"
#include "snap/snap_potential.hpp"
#include "snap/wigner.hpp"

namespace ember::snap {
namespace {

// Scoped EMBER_SIMD override (the dispatcher reads the environment at
// every Bispectrum construction).
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
std::vector<simd::SimdIsa> host_isas() {
  std::vector<simd::SimdIsa> isas;
  for (const auto isa : {simd::SimdIsa::Scalar, simd::SimdIsa::Avx2,
                         simd::SimdIsa::Avx512}) {
    if (static_cast<int>(isa) <= static_cast<int>(simd::max_supported_isa())) {
      isas.push_back(isa);
    }
  }
  return isas;
}

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
      std::vector<Vec3> de(rij.size());
      bi.compute_deidrj_all(de);

      bi.compute_zi();
      bi.compute_bi();
      const double e_base = bi.energy(0.4, beta);
      EXPECT_NEAR(e_adj, e_base, 1e-12 * std::max(1.0, std::abs(e_base)))
          << where;
      for (std::size_t m = 0; m < rij.size(); ++m) {
        bi.compute_duidrj(rij[m], wj[m]);
        bi.compute_dbidrj();
        Vec3 de_base;
        for (int l = 0; l < bi.num_b(); ++l) {
          de_base += beta[l] * bi.dblist()[l];
        }
        for (int d = 0; d < 3; ++d) {
          EXPECT_NEAR(de[m][d], de_base[d], 1e-12)
              << where << " neighbor " << m << " dim " << d;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoJmaxSweep, SymmetricKernelParity,
                         ::testing::Values(2, 4, 6, 8, 14));

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

TEST(SymmetricKernel, MixedStageSequenceStaysCorrect) {
  // The quadratic force path runs compute_zi/compute_bi between
  // compute_ui and compute_yi, and the Baseline path runs compute_duidrj
  // on the same instance. Neither may disturb the lane caches that
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
    // Requesting above capability clamps down instead of failing.
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
}

TEST(SimdDispatch, LaneWidthMatchesIsa) {
  EXPECT_EQ(simd::lane_width(simd::SimdIsa::Scalar), 1);
  EXPECT_EQ(simd::lane_width(simd::SimdIsa::Avx2), 4);
  EXPECT_EQ(simd::lane_width(simd::SimdIsa::Avx512), 8);
  EXPECT_STREQ(simd::to_string(simd::SimdIsa::Avx2), "avx2");
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
