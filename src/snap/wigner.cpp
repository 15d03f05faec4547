#include "wigner.hpp"

#include <cmath>

#include "common/error.hpp"
#include "snap/factorial.hpp"
#include "snap/simd/kernels.hpp"

namespace ember::snap {

CayleyKlein map_to_sphere(const Vec3& rij, double rcut, double rfac0,
                          double rmin0, bool switch_flag) {
  // The width-1 call of the lane kernel's mapping, so the Baseline,
  // TestSNAP and lane-kernel paths share one implementation.
  alignas(64) double s[simd::kCkSlots];
  EMBER_REQUIRE(simd::scalar_ops().map_block({.rcut = rcut,
                                               .rfac0 = rfac0,
                                               .rmin0 = rmin0,
                                               .switch_flag = switch_flag,
                                               .rij = &rij,
                                               .n = 1,
                                               .ck = s}),
                "neighbor distance outside (0, rcut)");
  CayleyKlein ck;
  ck.a = {s[simd::kCkARe], s[simd::kCkAIm]};
  ck.b = {s[simd::kCkBRe], s[simd::kCkBIm]};
  for (int d = 0; d < 3; ++d) {
    ck.da[d] = {s[simd::kCkDaRe0 + d], s[simd::kCkDaIm0 + d]};
    ck.db[d] = {s[simd::kCkDbRe0 + d], s[simd::kCkDbIm0 + d]};
    ck.dfc[d] = s[simd::kCkDfc0 + d];
  }
  ck.fc = s[simd::kCkFc];
  return ck;
}

Cplx wigner_element(int twoj, int kp, int k, const Cplx& a, const Cplx& b) {
  const int J = twoj;
  EMBER_REQUIRE(kp >= 0 && kp <= J && k >= 0 && k <= J,
                "wigner element index out of range");

  // Powers of the four Cayley-Klein quantities up to J.
  Cplx pow_a[16], pow_b[16], pow_ac[16], pow_mbc[16];
  pow_a[0] = pow_b[0] = pow_ac[0] = pow_mbc[0] = {1.0, 0.0};
  const Cplx ac = conj(a);
  const Cplx mbc = -conj(b);
  for (int n = 1; n <= J; ++n) {
    pow_a[n] = pow_a[n - 1] * a;
    pow_b[n] = pow_b[n - 1] * b;
    pow_ac[n] = pow_ac[n - 1] * ac;
    pow_mbc[n] = pow_mbc[n - 1] * mbc;
  }

  const auto binom = [](int n, int r) -> long double {
    return factorial(n) / (factorial(r) * factorial(n - r));
  };

  Cplx sum{0.0, 0.0};
  const int pmin = std::max(0, k + kp - J);
  const int pmax = std::min(k, kp);
  for (int p = pmin; p <= pmax; ++p) {
    const auto coeff =
        static_cast<double>(binom(k, p) * binom(J - k, kp - p));
    sum += coeff * (pow_a[p] * pow_b[k - p] * pow_mbc[kp - p] *
                    pow_ac[J - k - kp + p]);
  }
  const auto norm = static_cast<double>(
      std::sqrt(factorial(kp) * factorial(J - kp) /
                (factorial(k) * factorial(J - k))));
  return norm * sum;
}

std::vector<Cplx> wigner_matrix(int twoj, const Cplx& a, const Cplx& b) {
  const int n = twoj + 1;
  std::vector<Cplx> u(static_cast<std::size_t>(n) * n);
  for (int kp = 0; kp < n; ++kp) {
    for (int k = 0; k < n; ++k) {
      u[static_cast<std::size_t>(kp) * n + k] = wigner_element(twoj, kp, k, a, b);
    }
  }
  return u;
}

}  // namespace ember::snap
