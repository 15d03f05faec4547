// Tests for the closed-form Wigner matrices and the Cayley-Klein mapping
// (map_to_sphere, and the lane kernel's map_block at every host width).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "snap/bispectrum.hpp"
#include "snap/simd/dispatch.hpp"
#include "snap/simd/kernels.hpp"
#include "snap/wigner.hpp"

namespace ember::snap {
namespace {

// Random unit-norm Cayley-Klein pair.
std::pair<Cplx, Cplx> random_cayley_klein(Rng& rng) {
  const Cplx a{rng.gaussian(), rng.gaussian()};
  const Cplx b{rng.gaussian(), rng.gaussian()};
  const double norm =
      std::sqrt(a.re * a.re + a.im * a.im + b.re * b.re + b.im * b.im);
  return {{a.re / norm, a.im / norm}, {b.re / norm, b.im / norm}};
}

// Matrix multiply for row-major (n x n) Cplx arrays.
std::vector<Cplx> matmul(const std::vector<Cplx>& A, const std::vector<Cplx>& B,
                         int n) {
  std::vector<Cplx> C(static_cast<std::size_t>(n) * n);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < n; ++k) {
      const Cplx aik = A[i * n + k];
      for (int j = 0; j < n; ++j) C[i * n + j] += aik * B[k * n + j];
    }
  }
  return C;
}

TEST(Wigner, SpinHalfIsTheGroupElement) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const auto [a, b] = random_cayley_klein(rng);
    const auto u = wigner_matrix(1, a, b);
    // Expected g = [[a, -b*], [b, a*]] in (row k', col k) with k=0 -> v.
    // Basis f_0 = v, f_1 = u: column k=1 transforms u -> a u + b v, giving
    // element [1][1] = a, [0][1] = b; column k=0: v -> -b* u + a* v.
    EXPECT_NEAR(u[1 * 2 + 1].re, a.re, 1e-14);
    EXPECT_NEAR(u[1 * 2 + 1].im, a.im, 1e-14);
    EXPECT_NEAR(u[0 * 2 + 1].re, b.re, 1e-14);
    EXPECT_NEAR(u[0 * 2 + 1].im, b.im, 1e-14);
    EXPECT_NEAR(u[1 * 2 + 0].re, -b.re, 1e-14);
    EXPECT_NEAR(u[1 * 2 + 0].im, b.im, 1e-14);  // -conj(b)
    EXPECT_NEAR(u[0 * 2 + 0].re, a.re, 1e-14);
    EXPECT_NEAR(u[0 * 2 + 0].im, -a.im, 1e-14);  // conj(a)
  }
}

class WignerUnitarity : public ::testing::TestWithParam<int> {};

TEST_P(WignerUnitarity, UUdaggerIsIdentity) {
  const int twoj = GetParam();
  Rng rng(100 + twoj);
  const auto [a, b] = random_cayley_klein(rng);
  const auto u = wigner_matrix(twoj, a, b);
  const int n = twoj + 1;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      Cplx sum{};
      for (int k = 0; k < n; ++k) sum += u[i * n + k] * conj(u[j * n + k]);
      EXPECT_NEAR(sum.re, i == j ? 1.0 : 0.0, 1e-11);
      EXPECT_NEAR(sum.im, 0.0, 1e-11);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllJ, WignerUnitarity,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 11, 14));

TEST(Wigner, CompositionHomomorphism) {
  // U(g1) U(g2) = U(g1 g2) with the SU(2) product of Cayley-Klein pairs:
  // g = [[a, -b*],[b, a*]]; product (a,b) * (c,d) has
  //   a' = a c - b* d, b' = b c + a* d.
  Rng rng(7);
  for (int twoj : {2, 5, 8}) {
    const auto [a1, b1] = random_cayley_klein(rng);
    const auto [a2, b2] = random_cayley_klein(rng);
    const Cplx a12 = a1 * a2 - conj(b1) * b2;
    const Cplx b12 = b1 * a2 + conj(a1) * b2;
    const auto u1 = wigner_matrix(twoj, a1, b1);
    const auto u2 = wigner_matrix(twoj, a2, b2);
    const auto u12 = wigner_matrix(twoj, a12, b12);
    const auto prod = matmul(u1, u2, twoj + 1);
    const int n = twoj + 1;
    for (int e = 0; e < n * n; ++e) {
      EXPECT_NEAR(prod[e].re, u12[e].re, 1e-11) << "twoj=" << twoj;
      EXPECT_NEAR(prod[e].im, u12[e].im, 1e-11);
    }
  }
}

TEST(Wigner, ConjugationSymmetry) {
  // conj(U[k',k]) = (-1)^(k+k') U[J-k', J-k] — the symmetry that SNAP's
  // symmetrized layouts exploit.
  Rng rng(23);
  for (int twoj : {1, 3, 6, 9}) {
    const auto [a, b] = random_cayley_klein(rng);
    const auto u = wigner_matrix(twoj, a, b);
    const int n = twoj + 1;
    for (int kp = 0; kp < n; ++kp) {
      for (int k = 0; k < n; ++k) {
        const Cplx lhs = conj(u[kp * n + k]);
        const double sign = ((k + kp) % 2 == 0) ? 1.0 : -1.0;
        const Cplx rhs = sign * u[(twoj - kp) * n + (twoj - k)];
        EXPECT_NEAR(lhs.re, rhs.re, 1e-12);
        EXPECT_NEAR(lhs.im, rhs.im, 1e-12);
      }
    }
  }
}

TEST(MapToSphere, UnitNormAndSwitching) {
  Rng rng(3);
  const double rcut = 4.7;
  for (int trial = 0; trial < 50; ++trial) {
    Vec3 rij{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
             rng.uniform(-2.0, 2.0)};
    if (rij.norm() < 0.3 || rij.norm() >= rcut) continue;
    const auto ck = map_to_sphere(rij, rcut, 0.99363, 0.0, true);
    const double norm2 = ck.a.re * ck.a.re + ck.a.im * ck.a.im +
                         ck.b.re * ck.b.re + ck.b.im * ck.b.im;
    EXPECT_NEAR(norm2, 1.0, 1e-12);
    EXPECT_GE(ck.fc, 0.0);
    EXPECT_LE(ck.fc, 1.0);
  }
  // fc -> 0 smoothly at the cutoff.
  const auto near_cut =
      map_to_sphere({rcut - 1e-6, 0.0, 0.0}, rcut, 0.99363, 0.0, true);
  EXPECT_NEAR(near_cut.fc, 0.0, 1e-10);
}

TEST(MapToSphere, DerivativesMatchFiniteDifferences) {
  // Default mapping, an inner radius rmin0 > 0 (with one point inside
  // it, where fc is flat), and the switch off.
  const double rcut = 4.7;
  const double h = 1e-6;
  struct Case {
    Vec3 r0;
    double rmin0;
    bool switch_flag;
  };
  const Case cases[] = {
      {{1.1, -0.7, 1.9}, 0.0, true},  {{1.1, -0.7, 1.9}, 0.6, true},
      {{0.3, 0.2, -0.1}, 0.6, true},  {{1.1, -0.7, 1.9}, 0.0, false},
      {{-2.0, 1.3, 0.4}, 0.6, false},
  };
  for (const Case& c : cases) {
    const auto map = [&](const Vec3& r) {
      return map_to_sphere(r, rcut, 0.99363, c.rmin0, c.switch_flag);
    };
    const auto ck = map(c.r0);
    for (int d = 0; d < 3; ++d) {
      Vec3 rp = c.r0;
      Vec3 rm = c.r0;
      rp[d] += h;
      rm[d] -= h;
      const auto ckp = map(rp);
      const auto ckm = map(rm);
      SCOPED_TRACE("rmin0 " + std::to_string(c.rmin0) + " switch " +
                   std::to_string(c.switch_flag) + " dim " +
                   std::to_string(d));
      EXPECT_NEAR(ck.da[d].re, (ckp.a.re - ckm.a.re) / (2 * h), 1e-6);
      EXPECT_NEAR(ck.da[d].im, (ckp.a.im - ckm.a.im) / (2 * h), 1e-6);
      EXPECT_NEAR(ck.db[d].re, (ckp.b.re - ckm.b.re) / (2 * h), 1e-6);
      EXPECT_NEAR(ck.db[d].im, (ckp.b.im - ckm.b.im) / (2 * h), 1e-6);
      EXPECT_NEAR(ck.dfc[d], (ckp.fc - ckm.fc) / (2 * h), 1e-6);
    }
  }
}

// Every ISA this host and binary can run.
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

// map_block's slot s of lane l, against the same field of map_to_sphere.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_lane_is_map_to_sphere(const double* ck, int w, int l,
                                  const CayleyKlein& want,
                                  const std::string& where) {
  const auto slot = [&](int s) { return ck[s * w + l]; };
  EXPECT_TRUE(same_bits(slot(simd::kCkARe), want.a.re)) << where;
  EXPECT_TRUE(same_bits(slot(simd::kCkAIm), want.a.im)) << where;
  EXPECT_TRUE(same_bits(slot(simd::kCkBRe), want.b.re)) << where;
  EXPECT_TRUE(same_bits(slot(simd::kCkBIm), want.b.im)) << where;
  EXPECT_TRUE(same_bits(slot(simd::kCkFc), want.fc)) << where;
  for (int d = 0; d < 3; ++d) {
    EXPECT_TRUE(same_bits(slot(simd::kCkDaRe0 + d), want.da[d].re)) << where;
    EXPECT_TRUE(same_bits(slot(simd::kCkDaIm0 + d), want.da[d].im)) << where;
    EXPECT_TRUE(same_bits(slot(simd::kCkDbRe0 + d), want.db[d].re)) << where;
    EXPECT_TRUE(same_bits(slot(simd::kCkDbIm0 + d), want.db[d].im)) << where;
    EXPECT_TRUE(same_bits(slot(simd::kCkDfc0 + d), want.dfc[d])) << where;
  }
}

TEST(MapToSphere, LaneKernelIsBitwiseMapToSphere) {
  // map_block at every host width against map_to_sphere, memcmp per
  // slot: random shells (some neighbors on the coordinate planes), the
  // cutoff rim, points inside rmin0 > 0, switch on and off, and every
  // block fill 1..width (padded lanes must copy the last active lane).
  const double rcut = 3.4;
  const double rfac0 = 0.99363;
  Rng rng(29);
  for (const simd::SimdIsa isa : host_isas()) {
    const simd::SimdOps& ops = simd::ops_for(isa);
    const int w = ops.width;
    for (const double rmin0 : {0.0, 0.9}) {
      for (const bool sw : {true, false}) {
        for (int trial = 0; trial < 60; ++trial) {
          const int n = 1 + trial % w;
          std::vector<Vec3> rij;
          while (static_cast<int>(rij.size()) < n) {
            Vec3 r{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                   rng.uniform(-1.0, 1.0)};
            if (r.norm() < 0.1 || r.norm() > 1.0) continue;
            const int kind = static_cast<int>(rij.size() + trial) % 4;
            double radius = rng.uniform(0.3, rcut - 0.01);  // random shell
            if (kind == 1) radius = rcut - 1e-6;             // the rim
            if (kind == 2 && rmin0 > 0.0) radius = rng.uniform(0.2, rmin0);
            if (kind == 3) r[trial % 3] = 0.0;  // on a coordinate plane
            rij.push_back((radius / r.norm()) * r);
          }
          aligned_vector<double> ck(simd::kCkSlots * w, -1.0);
          ASSERT_TRUE(ops.map_block({.rcut = rcut,
                                     .rfac0 = rfac0,
                                     .rmin0 = rmin0,
                                     .switch_flag = sw,
                                     .rij = rij.data(),
                                     .n = n,
                                     .ck = ck.data()}));
          for (int l = 0; l < w; ++l) {
            const int k = std::min(l, n - 1);
            expect_lane_is_map_to_sphere(
                ck.data(), w, l,
                map_to_sphere(rij[k], rcut, rfac0, rmin0, sw),
                std::string(simd::to_string(isa)) + " rmin0 " +
                    std::to_string(rmin0) + (sw ? " switched" : " unswitched") +
                    " n " + std::to_string(n) + " lane " + std::to_string(l));
          }
        }
      }
    }
  }
}

// The mapping as a plain scalar formula, one rounding per operation.
// This file compiles with -ffp-contract=off (tests/snap/CMakeLists.txt),
// so nothing here fuses; map_to_sphere (the lane kernel at width 1) must
// match it bit for bit in any build, which fails if the compiler
// contracts a multiply-add inside a kernel TU (e.g. under -mfma).
CayleyKlein scalar_formula(const Vec3& rij, double rcut, double rfac0,
                           double rmin0, bool switch_flag) {
  const double r = rij.norm();
  const double rscale0 = rfac0 * M_PI / (rcut - rmin0);
  const double theta0 = (r - rmin0) * rscale0;
  const double z0 = r / std::tan(theta0);
  const double dz0dr = z0 / r - rscale0 * (r * r + z0 * z0) / r;
  const double r0inv = 1.0 / std::sqrt(r * r + z0 * z0);
  const double x = rij.x;
  const double y = rij.y;
  const double z = rij.z;
  CayleyKlein ck;
  ck.a = {r0inv * z0, -r0inv * z};
  ck.b = {r0inv * y, -r0inv * x};
  const double dr0invdr = -r0inv * r0inv * r0inv * (r + z0 * dz0dr) / r;
  const double dr0inv[3] = {dr0invdr * x, dr0invdr * y, dr0invdr * z};
  const double u[3] = {x / r, y / r, z / r};
  for (int d = 0; d < 3; ++d) {
    ck.da[d] = Cplx{z0, -z} * dr0inv[d] + Cplx{r0inv * dz0dr * u[d], 0.0};
    ck.db[d] = Cplx{y, -x} * dr0inv[d];
  }
  ck.da[2] += Cplx{0.0, -r0inv};
  ck.db[0] += Cplx{0.0, -r0inv};
  ck.db[1] += Cplx{r0inv, 0.0};
  ck.fc = 1.0;
  ck.dfc[0] = ck.dfc[1] = ck.dfc[2] = 0.0;
  if (switch_flag && r > rmin0) {
    const double arg = M_PI * (r - rmin0) / (rcut - rmin0);
    ck.fc = 0.5 * (std::cos(arg) + 1.0);
    const double dfcdr = -0.5 * M_PI / (rcut - rmin0) * std::sin(arg);
    for (int d = 0; d < 3; ++d) ck.dfc[d] = dfcdr * u[d];
  }
  return ck;
}

TEST(MapToSphere, MatchesTheUnfusedScalarFormulaBitwise) {
  const double rcut = 3.4;
  Rng rng(31);
  for (const double rmin0 : {0.0, 0.9}) {
    for (const bool sw : {true, false}) {
      for (int trial = 0; trial < 400; ++trial) {
        Vec3 r{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
               rng.uniform(-1.0, 1.0)};
        if (r.norm() < 0.1 || r.norm() > 1.0) continue;
        if (trial % 5 == 0) r[trial % 3] = 0.0;
        const double radius =
            trial % 7 == 0 ? rcut - 1e-6 : rng.uniform(0.2, rcut - 0.01);
        r = (radius / r.norm()) * r;
        const CayleyKlein want = scalar_formula(r, rcut, 0.99363, rmin0, sw);
        const CayleyKlein got = map_to_sphere(r, rcut, 0.99363, rmin0, sw);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << "rmin0 " << rmin0 << (sw ? " switched" : " unswitched")
            << " r " << r.x << " " << r.y << " " << r.z;
      }
    }
  }
}

// Runs f and expects the (0, rcut) error.
template <class F>
void expect_range_error(F f, const std::string& where) {
  try {
    f();
    ADD_FAILURE() << where << ": no error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("neighbor distance outside (0, rcut)"),
              std::string::npos)
        << where << ": " << e.what();
  }
}

TEST(MapToSphere, RejectsDistancesOutsideTheCutoff) {
  // map_to_sphere and the lane kernel behind compute_ui keep the
  // (0, rcut) check, in any lane of any block.
  for (const Vec3& r : {Vec3{4.7, 0.0, 0.0}, Vec3{}}) {
    expect_range_error(
        [&] { (void)map_to_sphere(r, 4.7, 0.99363, 0.0, true); },
        "map_to_sphere");
  }
  SnapParams p;
  p.twojmax = 4;
  p.rcut = 3.0;
  Bispectrum bi(p);
  for (int bad = 0; bad < 10; ++bad) {
    std::vector<Vec3> rij(10, Vec3{1.0, 0.5, -0.3});
    rij[bad] = bad % 2 == 0 ? Vec3{0.0, 3.0, 0.0} : Vec3{};
    expect_range_error([&] { bi.compute_ui(rij, {}); },
                       "compute_ui, neighbor " + std::to_string(bad));
  }
}

}  // namespace
}  // namespace ember::snap
