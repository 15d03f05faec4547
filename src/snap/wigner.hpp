#pragma once

// Closed-form Wigner rotation matrices in the spin-j representation,
// parameterized by Cayley-Klein parameters (a, b) with |a|^2 + |b|^2 = 1.
//
// This is the *reference* implementation: O(j) work per matrix element via
// the explicit factorial sum. The production kernel (bispectrum.cpp) uses a
// two-term recursion over j derived from the same generating function; the
// test suite pins the recursion against this closed form.
//
// Conventions. The SU(2) element is
//     g = [[ a, -conj(b) ],
//          [ b,  conj(a) ]]
// acting on the spinor (u, v). In the monomial basis
//     f_k = u^k v^(J-k) / sqrt(k! (J-k)!),   k = 0..J,  J = 2j,
// the representation matrix is
//     U^J[k', k] = sqrt(k'!(J-k')!/(k!(J-k)!)) *
//                  sum_p C(k,p) C(J-k, k'-p) a^p b^(k-p)
//                        (-conj(b))^(k'-p) conj(a)^(p-? ...)
// (see wigner.cpp for the exact exponent bookkeeping). Row index k' = j+m',
// column index k = j+m.

#include <vector>

#include "common/vec3.hpp"
#include "snap/cplx.hpp"

namespace ember::snap {

// Cayley-Klein parameters of a neighbor displacement mapped onto the
// 3-sphere, plus their Cartesian derivatives (needed for dU/dr).
struct CayleyKlein {
  Cplx a;        // r0inv * (z0 - i z)
  Cplx b;        // r0inv * (y - i x)
  Cplx da[3];    // d a / d{x,y,z}
  Cplx db[3];    // d b / d{x,y,z}
  double fc;     // switching function value
  double dfc[3]; // d fc / d{x,y,z}
};

// Map displacement rij (with |rij| in (0, rcut)) to the 3-sphere.
// rfac0 and rmin0 follow the LAMMPS convention:
//   theta0 = rfac0 * pi * (r - rmin0) / (rcut - rmin0),  z0 = r / tan(theta0).
// The width-1 call of the lane kernel's map_block (src/snap/simd), so its
// result is bitwise the lane kernel's at every width. Throws outside
// (0, rcut).
CayleyKlein map_to_sphere(const Vec3& rij, double rcut, double rfac0,
                          double rmin0, bool switch_flag);

// Full (J+1)x(J+1) Wigner matrix for doubled momentum J = twoj, row-major
// with element [k' * (J+1) + k]. Closed form; reference/test use only.
std::vector<Cplx> wigner_matrix(int twoj, const Cplx& a, const Cplx& b);

// Single element U^J[kp, k] by the closed-form sum.
Cplx wigner_element(int twoj, int kp, int k, const Cplx& a, const Cplx& b);

}  // namespace ember::snap
