#pragma once

// Tersoff bond-order potential (single element), used as the quantum-
// accuracy stand-in: it is the ground-truth oracle the FitSNAP-lite
// pipeline trains linear SNAP models against, and it drives the melt-
// quench / high-pressure-anneal science pipeline.
//
//   E = 1/2 sum_i sum_{j!=i} fC(r_ij) [ fR(r_ij) + b_ij fA(r_ij) ]
//   fR = A exp(-lambda1 r),  fA = -B exp(-lambda2 r)
//   b_ij = (1 + beta^n zeta_ij^n)^(-1/2n)
//   zeta_ij = sum_{k!=i,j} fC(r_ik) g(theta_ijk) exp[lambda3^m (r_ij-r_ik)^m]
//   g(theta) = gamma (1 + c^2/d^2 - c^2 / (d^2 + (h - cos theta)^2))
//
// Default parameters are Tersoff's 1988 carbon set (the LAMMPS SiC.tersoff
// C entry).

#include "md/potential.hpp"

namespace ember::ref {

struct TersoffParams {
  double m = 3.0;
  double gamma = 1.0;
  double lambda3 = 0.0;       // 1/A
  double c = 38049.0;
  double d = 4.3484;
  double h = -0.57058;        // cos(theta0)
  double n = 0.72751;
  double beta = 1.5724e-7;
  double lambda2 = 2.2119;    // 1/A
  double B = 346.74;          // eV
  double R = 1.95;            // cutoff center [A]
  double D = 0.15;            // cutoff half-width [A]
  double lambda1 = 3.4879;    // 1/A
  double A = 1393.6;          // eV
};

class PairTersoff final : public md::PairPotential {
 public:
  explicit PairTersoff(const TersoffParams& p = {}) : p_(p) {}

  [[nodiscard]] double cutoff() const override { return p_.R + p_.D; }
  [[nodiscard]] const char* name() const override { return "tersoff"; }
  [[nodiscard]] const TersoffParams& params() const { return p_; }

  using md::PairPotential::compute;
  md::EnergyVirial compute(const md::ComputeContext& ctx, md::System& sys,
                           const md::NeighborList& nl) override;

  // Scalar ingredients, exposed for unit tests.
  [[nodiscard]] double fc(double r) const;
  [[nodiscard]] double fc_d(double r) const;
  [[nodiscard]] double g_theta(double costheta) const;
  [[nodiscard]] double g_theta_d(double costheta) const;
  [[nodiscard]] double bij(double zeta) const;
  [[nodiscard]] double bij_d(double zeta) const;

 private:
  struct BondOrder {
    double b;   // b_ij(zeta)
    double db;  // d b_ij / d zeta
  };
  // bij and bij_d from one t = (beta zeta)^n.
  [[nodiscard]] BondOrder bond_order(double zeta) const;

  TersoffParams p_;
};

}  // namespace ember::ref
