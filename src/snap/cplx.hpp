#pragma once

// Lightweight complex type for the SNAP kernels.
//
// std::complex<double> multiplication lowers to the __muldc3 runtime call
// under strict IEEE rules (NaN/Inf fix-up), which destroys vectorization in
// the U-recursion hot loop. Cplx provides the naive arithmetic the kernels
// need; inputs are always finite by construction.

namespace ember::snap {

struct Cplx {
  double re = 0.0;
  double im = 0.0;

  constexpr Cplx() = default;
  constexpr Cplx(double r, double i) : re(r), im(i) {}

  constexpr Cplx& operator+=(const Cplx& o) {
    re += o.re;
    im += o.im;
    return *this;
  }
  constexpr Cplx& operator-=(const Cplx& o) {
    re -= o.re;
    im -= o.im;
    return *this;
  }
  constexpr Cplx& operator*=(double s) {
    re *= s;
    im *= s;
    return *this;
  }
};

constexpr Cplx operator+(Cplx a, const Cplx& b) { return a += b; }
constexpr Cplx operator-(Cplx a, const Cplx& b) { return a -= b; }
constexpr Cplx operator*(Cplx a, double s) { return a *= s; }
constexpr Cplx operator*(double s, Cplx a) { return a *= s; }
constexpr Cplx operator*(const Cplx& a, const Cplx& b) {
  return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}
constexpr Cplx conj(const Cplx& a) { return {a.re, -a.im}; }
constexpr Cplx operator-(const Cplx& a) { return {-a.re, -a.im}; }

// Re(a * conj(b)) — the contraction primitive of the Y : dU* force kernel.
constexpr double re_mul_conj(const Cplx& a, const Cplx& b) {
  return a.re * b.re + a.im * b.im;
}

}  // namespace ember::snap
