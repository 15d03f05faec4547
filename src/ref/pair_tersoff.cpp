#include "pair_tersoff.hpp"

#include <cmath>
#include <vector>

namespace ember::ref {

double PairTersoff::fc(double r) const {
  if (r < p_.R - p_.D) return 1.0;
  if (r > p_.R + p_.D) return 0.0;
  return 0.5 * (1.0 - std::sin(M_PI_2 * (r - p_.R) / p_.D));
}

double PairTersoff::fc_d(double r) const {
  if (r < p_.R - p_.D || r > p_.R + p_.D) return 0.0;
  return -(M_PI_4 / p_.D) * std::cos(M_PI_2 * (r - p_.R) / p_.D);
}

double PairTersoff::g_theta(double costheta) const {
  const double u = p_.h - costheta;
  const double c2 = p_.c * p_.c;
  const double d2 = p_.d * p_.d;
  return p_.gamma * (1.0 + c2 / d2 - c2 / (d2 + u * u));
}

double PairTersoff::g_theta_d(double costheta) const {
  const double u = p_.h - costheta;
  const double c2 = p_.c * p_.c;
  const double d2 = p_.d * p_.d;
  const double denom = d2 + u * u;
  return -2.0 * p_.gamma * c2 * u / (denom * denom);
}

PairTersoff::BondOrder PairTersoff::bond_order(double zeta) const {
  if (zeta <= 0.0) return {1.0, 0.0};
  // b = (1 + t)^(-1/2n) with t = (beta zeta)^n, so
  // db/dzeta = -1/2 (1 + t)^(-1/2n - 1) t / zeta = -1/2 b / (1 + t) t / zeta.
  const double t = std::pow(p_.beta * zeta, p_.n);
  const double b = std::pow(1.0 + t, -1.0 / (2.0 * p_.n));
  return {b, -0.5 * b / (1.0 + t) * (t / zeta)};
}

double PairTersoff::bij(double zeta) const { return bond_order(zeta).b; }

double PairTersoff::bij_d(double zeta) const { return bond_order(zeta).db; }

md::EnergyVirial PairTersoff::compute(const md::ComputeContext& ctx,
                                      md::System& sys,
                                      const md::NeighborList& nl) {
  const double rc = cutoff();
  const double rc2 = rc * rc;
  const auto [abegin, aend] = ctx.atom_range(sys.nlocal());
  ctx.zero_partials();
  // Scatter kernel: atom i writes onto its neighbors j and k, so worker 0
  // targets sys.f directly and workers >= 1 accumulate into private force
  // arrays that merge_forces() adds back in a fixed worker order.
  ctx.prepare_scatter(sys.ntotal());

  ctx.pool().parallel_for(abegin, aend, /*grain=*/64,
                          [&](int tid, int bb, int ee) {
  auto& s = ctx.scratch(tid);
  const std::span<Vec3> f =
      tid == 0 ? std::span<Vec3>(sys.f) : std::span<Vec3>(s.f);

  // Scratch: in-range neighbors of the current atom with their cutoff
  // function, and the angular terms of pair (j, k) for the current j,
  // taken once in the zeta loop and reused by the three-body forces.
  struct Nb {
    Vec3 d;       // displacement i -> neighbor
    double r;
    double fc;
    double fc_d;
    int j;
  };
  struct Angle {
    double cost;  // cos(theta_ijk)
    double g;     // g(theta) and g'(cos theta)
    double gd;
    double ex;    // exp(lambda3^m (r_ij - r_ik)^m) and its r_ij derivative
    double dex;
  };
  std::vector<Nb> nbr;
  std::vector<Angle> ang;
  const double l3m = std::pow(p_.lambda3, p_.m);

  for (int i = bb; i < ee; ++i) {
    nbr.clear();
    for (const auto& en : nl.neighbors(i)) {
      const Vec3 d = sys.x[en.j] + en.shift - sys.x[i];
      const double r2 = d.norm2();
      if (r2 >= rc2) continue;
      const double r = std::sqrt(r2);
      const double fcr = fc(r);
      if (fcr == 0.0) continue;
      nbr.push_back({d, r, fcr, fc_d(r), en.j});
    }
    ang.resize(nbr.size());

    for (std::size_t jj = 0; jj < nbr.size(); ++jj) {
      const Vec3& rij = nbr[jj].d;
      const double r1 = nbr[jj].r;
      const int j = nbr[jj].j;
      const double fc_ij = nbr[jj].fc;
      const double fcd_ij = nbr[jj].fc_d;
      const double fr = p_.A * std::exp(-p_.lambda1 * r1);
      const double fa = -p_.B * std::exp(-p_.lambda2 * r1);
      const double fr_d = -p_.lambda1 * fr;
      const double fa_d = -p_.lambda2 * fa;

      // zeta_ij over the other neighbors of i.
      double zeta = 0.0;
      for (std::size_t kk = 0; kk < nbr.size(); ++kk) {
        if (kk == jj) continue;
        const double r2k = nbr[kk].r;
        Angle& a = ang[kk];
        a.cost = dot(rij, nbr[kk].d) / (r1 * r2k);
        a.g = g_theta(a.cost);
        a.gd = g_theta_d(a.cost);
        a.ex = 1.0;
        a.dex = 0.0;
        if (p_.lambda3 != 0.0) {
          const double dr = r1 - r2k;
          a.ex = std::exp(l3m * std::pow(dr, p_.m));
          a.dex = l3m * p_.m * std::pow(dr, p_.m - 1.0) * a.ex;
        }
        zeta += nbr[kk].fc * a.g * a.ex;
      }
      const auto [b, db] = bond_order(zeta);

      // Pair part: e2 = 1/2 fC (fR + b fA) at fixed b.
      s.energy += 0.5 * fc_ij * (fr + b * fa);
      const double de2dr =
          0.5 * (fcd_ij * (fr + b * fa) + fc_ij * (fr_d + b * fa_d));
      // Force on i along -rhat (rij points i->j): F_i = de2/dr * rhat.
      const Vec3 f2 = (de2dr / r1) * rij;
      f[i] += f2;
      f[j] -= f2;
      s.virial += -de2dr * r1;

      // Three-body part: prefactor = dE/dzeta = 1/2 fC(rij) fA(rij) db.
      const double pf = 0.5 * fc_ij * fa * db;
      if (pf == 0.0) continue;
      for (std::size_t kk = 0; kk < nbr.size(); ++kk) {
        if (kk == jj) continue;
        const Vec3& rik = nbr[kk].d;
        const double r2k = nbr[kk].r;
        const double fc_ik = nbr[kk].fc;
        const double fcd_ik = nbr[kk].fc_d;
        const int k = nbr[kk].j;
        const auto [cost, g, gd, ex, dex] = ang[kk];

        // Gradients of cos(theta) w.r.t. the positions of j and k.
        const Vec3 dcos_dj = (1.0 / (r1 * r2k)) * rik - (cost / (r1 * r1)) * rij;
        const Vec3 dcos_dk = (1.0 / (r1 * r2k)) * rij - (cost / (r2k * r2k)) * rik;

        // dzeta/dr_j, dzeta/dr_k (r_i picks up the negative sum); the
        // exponential depends on r_ij - r_ik, so d/dr_ik = -dex.
        Vec3 dzeta_dj = fc_ik * ex * gd * dcos_dj;
        if (dex != 0.0) dzeta_dj += (fc_ik * g * dex / r1) * rij;
        Vec3 dzeta_dk = fc_ik * ex * gd * dcos_dk +
                        ((fcd_ik * ex * g) / r2k) * rik;
        if (dex != 0.0) dzeta_dk += (fc_ik * g * -dex / r2k) * rik;

        const Vec3 fj = -pf * dzeta_dj;  // force on atom j
        const Vec3 fk = -pf * dzeta_dk;  // force on atom k
        f[j] += fj;
        f[k] += fk;
        f[i] -= fj + fk;
        s.virial += dot(rij, fj) + dot(rik, fk);
      }
    }
  }
  });

  ctx.merge_forces(sys);
  const auto red = ctx.reduce_ev();
  return {red.energy, red.virial};
}

}  // namespace ember::ref
