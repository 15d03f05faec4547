// Tests of SNAP as an MD potential: path equivalence, periodic-system
// forces, NVE stability, model serialization, and the adjoint energy
// identity.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "md/lattice.hpp"
#include "md/simulation.hpp"
#include "snap/snap_potential.hpp"

namespace ember::snap {
namespace {

SnapModel tiny_model(int twojmax, std::uint64_t seed) {
  SnapParams p;
  p.twojmax = twojmax;
  p.rcut = 2.6;
  p.bzero_flag = true;
  SnapModel m;
  m.params = p;
  Bispectrum bi(p);
  Rng rng(seed);
  m.beta.resize(bi.num_b());
  // Small coefficients: keeps the potential gentle enough for NVE tests.
  for (auto& b : m.beta) b = 0.02 * rng.uniform(-1.0, 1.0);
  m.beta0 = -1.0;
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

TEST(SnapPotential, AdjointEnergyIdentity) {
  // energy_from_yi must equal the explicit beta . B sum.
  SnapParams p;
  p.twojmax = 8;
  p.rcut = 3.4;
  Bispectrum bi(p);
  Rng rng(5);
  std::vector<Vec3> rij;
  for (int k = 0; k < 14; ++k) {
    Vec3 r{rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)};
    if (r.norm() > 0.9 && r.norm() < p.rcut * 0.95) rij.push_back(r);
  }
  std::vector<double> beta(SnapIndex(p.twojmax).num_b() == 55 ? 55 : 0);
  for (auto& b : beta) b = rng.uniform(-1, 1);

  bi.compute_ui(rij, {});
  bi.compute_zi();
  bi.compute_bi();
  const double e_explicit = bi.energy(0.7, beta);
  bi.compute_yi(beta);
  const double e_adjoint = bi.energy_from_yi(0.7, beta);
  EXPECT_NEAR(e_adjoint, e_explicit, 1e-9 * std::max(1.0, std::abs(e_explicit)));
}

TEST(SnapPotential, PathsAgreeOnPeriodicSystem) {
  const SnapModel model = tiny_model(8, 1);
  md::System sys = perturbed_diamond(2, 0.12, 2);

  auto run_path = [&](SnapPotential::Path path) {
    md::System s = sys;
    SnapPotential pot(model, path);
    md::NeighborList nl(pot.cutoff(), 0.3);
    nl.build(s);
    s.zero_forces();
    const auto ev = pot.compute(s, nl);
    return std::tuple{ev.energy, ev.virial,
                      std::vector<Vec3>(s.f.begin(), s.f.end())};
  };
  const auto [ea, va, fa] = run_path(SnapPotential::Path::Adjoint);
  const auto [eb, vb, fb] = run_path(SnapPotential::Path::Baseline);

  EXPECT_NEAR(ea, eb, 1e-9 * std::max(1.0, std::abs(eb)));
  EXPECT_NEAR(va, vb, 1e-8 * std::max(1.0, std::abs(vb)));
  for (std::size_t i = 0; i < fa.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(fa[i][d], fb[i][d], 1e-9 * std::max(1.0, std::abs(fb[i][d])));
    }
  }
}

TEST(SnapPotential, ForcesMatchFiniteDifferencePeriodic) {
  const SnapModel model = tiny_model(6, 3);
  md::System sys = perturbed_diamond(2, 0.1, 4);
  SnapPotential pot(model);

  md::NeighborList nl(pot.cutoff(), 0.3);
  nl.build(sys);
  sys.zero_forces();
  pot.compute(sys, nl);
  std::vector<Vec3> f(sys.f.begin(), sys.f.end());

  auto energy_now = [&]() {
    md::NeighborList nl2(pot.cutoff(), 0.3);
    nl2.build(sys);
    sys.zero_forces();
    return pot.compute(sys, nl2).energy;
  };
  const double h = 1e-6;
  for (int i : {0, 7, 31}) {
    for (int d = 0; d < 3; ++d) {
      const double orig = sys.x[i][d];
      sys.x[i][d] = orig + h;
      const double ep = energy_now();
      sys.x[i][d] = orig - h;
      const double em = energy_now();
      sys.x[i][d] = orig;
      const double fd = -(ep - em) / (2 * h);
      EXPECT_NEAR(f[i][d], fd, 3e-5 * std::max(1.0, std::abs(fd)))
          << "atom " << i << " dim " << d;
    }
  }
}

TEST(SnapPotential, NveDriftConvergesWithTimestep) {
  // A random-coefficient SNAP model is stiff (no physical minimum), so the
  // meaningful NVE check is 2nd-order convergence: halving dt must shrink
  // the drift by ~4x, and the fine-dt drift must be small.
  const SnapModel model = tiny_model(6, 7);
  auto drift_for = [&](double dt) {
    md::System sys = perturbed_diamond(2, 0.02, 8);
    Rng rng(9);
    sys.thermalize(300.0, rng);
    md::Simulation sim(std::move(sys), std::make_shared<SnapPotential>(model),
                       dt, 0.3, 10);
    sim.setup();
    const double e0 = sim.total_energy();
    sim.run(static_cast<long>(0.02 / dt));
    return std::abs(sim.total_energy() - e0) / sim.system().nlocal();
  };
  const double coarse = drift_for(4e-4);
  const double fine = drift_for(1e-4);
  EXPECT_LT(fine, 0.5 * coarse);
  EXPECT_LT(fine, 5e-4);
}

TEST(SnapModel, SaveLoadRoundTrip) {
  const SnapModel model = tiny_model(8, 11);
  const std::string path = "/tmp/ember_test_model.snap";
  model.save(path);
  const SnapModel loaded = SnapModel::load(path);
  {
    // save writes no kernel key (load rejects one as an unknown key).
    std::ifstream is(path);
    const std::string text((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(text.find("kernel"), std::string::npos);
  }
  std::remove(path.c_str());

  EXPECT_EQ(loaded.params.twojmax, model.params.twojmax);
  EXPECT_DOUBLE_EQ(loaded.params.rcut, model.params.rcut);
  EXPECT_EQ(loaded.params.bzero_flag, model.params.bzero_flag);
  EXPECT_DOUBLE_EQ(loaded.beta0, model.beta0);
  ASSERT_EQ(loaded.beta.size(), model.beta.size());
  for (std::size_t l = 0; l < model.beta.size(); ++l) {
    EXPECT_DOUBLE_EQ(loaded.beta[l], model.beta[l]);
  }
}

TEST(SnapModel, LoadRejectsMalformedFilesNamingPathAndKey) {
  // Each case is a whole model file. An empty `key` means the file must
  // load; otherwise load must throw ember::Error naming the path and key.
  const std::size_t nb = static_cast<std::size_t>(SnapIndex(2).num_b());
  const auto values = [](std::size_t n) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) out += "0.01\n";
    return out;
  };
  const std::string head = "# test model\ntwojmax 2\nrcut 3.0\n";
  const std::string linear =
      head + "ncoeff " + std::to_string(nb) + "\n" + values(nb);
  struct Case {
    const char* name;
    std::string text;
    const char* key;
  };
  const Case cases[] = {
      {"valid", linear + "nquad 0\n", ""},
      {"legacy kernel key", "kernel symmetric\n" + linear, "kernel"},
      {"unknown kernel", "kernel quantum\n" + linear, "kernel"},
      {"huge ncoeff", head + "ncoeff 1000000000000\n", "ncoeff"},
      {"ncoeff vs twojmax", head + "ncoeff " + std::to_string(nb + 1) +
                                "\n" + values(nb + 1),
       "ncoeff"},
      {"short ncoeff block",
       head + "ncoeff " + std::to_string(nb) + "\n" + values(nb - 1),
       "ncoeff"},
      {"bad coefficient",
       head + "ncoeff " + std::to_string(nb) + "\nabc\n" + values(nb - 1),
       "ncoeff"},
      {"missing ncoeff", head, "ncoeff"},
      {"twojmax not a number", "twojmax x\n" + linear, "twojmax"},
      {"twojmax out of range", "twojmax 99\n", "twojmax"},
      {"ncoeff vs twojmax 24", "twojmax 24\nncoeff 3\n" + values(3),
       "ncoeff"},
      {"rcut partial parse", linear + "rcut 4.x\n", "rcut"},
      {"switch not a flag", linear + "switch 2\n", "switch"},
      {"unknown key", linear + "rcutt 4.0\n", "rcutt"},
      {"two values on a line", head + "wself 1.0 2.0\n", "wself"},
      {"nquad not ncoeff^2", linear + "nquad 3\n" + values(3), "nquad"},
      {"short nquad block",
       linear + "nquad " + std::to_string(nb * nb) + "\n" +
           values(nb * nb - 1),
       "nquad"},
  };
  const std::string path = "snap_model_load_case.tmp";
  for (const Case& c : cases) {
    {
      std::ofstream os(path);
      os << c.text;
    }
    if (c.key[0] == '\0') {
      const SnapModel m = SnapModel::load(path);
      EXPECT_EQ(m.beta.size(), nb) << c.name;
      EXPECT_TRUE(m.alpha.empty()) << c.name;
      continue;
    }
    try {
      static_cast<void>(SnapModel::load(path));
      ADD_FAILURE() << c.name << ": expected an error";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(path), std::string::npos) << c.name << ": " << msg;
      EXPECT_NE(msg.find(c.key), std::string::npos) << c.name << ": " << msg;
    }
  }
  std::remove(path.c_str());
}

TEST(SnapModel, LoadRejectsTwojmaxAboveTheIndexBudget) {
  // 2J=24 is in range and its coefficient count is right, but its Y work
  // list (~370 MB) is above kMaxYListBytes: the error names the path, the
  // key and the bytes. 2J=14, the paper's large model, loads.
  const std::string path = "snap_model_budget_case.tmp";
  const auto write = [&](int twojmax) {
    std::ofstream os(path);
    const int nb = SnapIndex::count_b(twojmax);
    os << "twojmax " << twojmax << "\nrcut 3.0\nncoeff " << nb << "\n";
    for (int i = 0; i < nb; ++i) os << "0.01\n";
  };
  write(24);
  const std::size_t bytes = SnapIndex::y_list_bytes(24);
  EXPECT_GT(bytes, kMaxYListBytes);
  try {
    static_cast<void>(SnapModel::load(path));
    ADD_FAILURE() << "expected an error for twojmax 24";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("twojmax"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(bytes)), std::string::npos) << msg;
  }
  write(14);
  EXPECT_LE(SnapIndex::y_list_bytes(14), kMaxYListBytes);
  EXPECT_EQ(SnapModel::load(path).params.twojmax, 14);
  std::remove(path.c_str());
}

TEST(SnapPotential, FlopCounterTracksWork) {
  const SnapModel model = tiny_model(8, 13);
  md::System sys = perturbed_diamond(2, 0.05, 14);
  SnapPotential pot(model);
  md::NeighborList nl(pot.cutoff(), 0.3);
  nl.build(sys);
  sys.zero_forces();
  pot.compute(sys, nl);
  EXPECT_GT(pot.last_flops(), 1e6);  // 64 atoms x O(J^7) sweep
  // Baseline path must report more FLOPs than adjoint (the paper's point).
  const double adj = pot.last_flops();
  pot.set_path(SnapPotential::Path::Baseline);
  sys.zero_forces();
  pot.compute(sys, nl);
  EXPECT_GT(pot.last_flops(), adj);
}

SnapModel quadratic_model(int twojmax, std::uint64_t seed) {
  SnapModel m = tiny_model(twojmax, seed);
  Rng rng(seed + 100);
  const std::size_t n = m.beta.size();
  m.alpha.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = 1e-4 * rng.uniform(-1.0, 1.0);
      m.alpha[i * n + j] = v;
      m.alpha[j * n + i] = v;  // symmetric
    }
  }
  return m;
}

TEST(SnapQuadratic, SiteEnergyAndEffectiveBeta) {
  const SnapModel m = quadratic_model(4, 3);
  Rng rng(8);
  std::vector<double> b(m.beta.size());
  for (auto& v : b) v = rng.uniform(-2.0, 2.0);
  // site_energy must equal beta0 + beta.b + 0.5 b^T alpha b by direct sum.
  double expect = m.beta0;
  const std::size_t n = m.beta.size();
  for (std::size_t l = 0; l < n; ++l) {
    expect += m.beta[l] * b[l];
    for (std::size_t k = 0; k < n; ++k) {
      expect += 0.5 * b[l] * m.alpha[l * n + k] * b[k];
    }
  }
  EXPECT_NEAR(m.site_energy(b), expect, 1e-12 * std::abs(expect));
  // effective_beta must be the gradient of site_energy w.r.t. b.
  std::vector<double> eff;
  m.effective_beta(b, eff);
  const double h = 1e-6;
  for (std::size_t l = 0; l < n; l += 7) {
    auto bp = b;
    bp[l] += h;
    auto bm = b;
    bm[l] -= h;
    EXPECT_NEAR(eff[l], (m.site_energy(bp) - m.site_energy(bm)) / (2 * h),
                1e-6);
  }
}

TEST(SnapQuadratic, ForcesMatchFiniteDifference) {
  const SnapModel model = quadratic_model(4, 5);
  md::System sys = perturbed_diamond(2, 0.08, 6);
  SnapPotential pot(model);

  md::NeighborList nl(pot.cutoff(), 0.3);
  nl.build(sys);
  sys.zero_forces();
  pot.compute(sys, nl);
  std::vector<Vec3> f(sys.f.begin(), sys.f.end());

  auto energy_now = [&]() {
    md::NeighborList nl2(pot.cutoff(), 0.3);
    nl2.build(sys);
    sys.zero_forces();
    return pot.compute(sys, nl2).energy;
  };
  const double h = 1e-6;
  for (int i : {0, 13}) {
    for (int d = 0; d < 3; ++d) {
      const double orig = sys.x[i][d];
      sys.x[i][d] = orig + h;
      const double ep = energy_now();
      sys.x[i][d] = orig - h;
      const double em = energy_now();
      sys.x[i][d] = orig;
      const double fd = -(ep - em) / (2 * h);
      EXPECT_NEAR(f[i][d], fd, 5e-5 * std::max(1.0, std::abs(fd)))
          << "atom " << i << " dim " << d;
    }
  }
}

TEST(SnapQuadratic, PathsAgree) {
  const SnapModel model = quadratic_model(6, 9);
  md::System sys = perturbed_diamond(2, 0.1, 10);
  auto run_path = [&](SnapPotential::Path path) {
    md::System s = sys;
    SnapPotential pot(model, path);
    md::NeighborList nl(pot.cutoff(), 0.3);
    nl.build(s);
    s.zero_forces();
    const auto ev = pot.compute(s, nl);
    return std::pair{ev.energy, std::vector<Vec3>(s.f.begin(), s.f.end())};
  };
  const auto [ea, fa] = run_path(SnapPotential::Path::Adjoint);
  const auto [eb, fb] = run_path(SnapPotential::Path::Baseline);
  EXPECT_NEAR(ea, eb, 1e-9 * std::max(1.0, std::abs(eb)));
  for (std::size_t i = 0; i < fa.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(fa[i][d], fb[i][d], 1e-9 * std::max(1.0, std::abs(fb[i][d])));
    }
  }
}

TEST(SnapQuadratic, SaveLoadKeepsAlpha) {
  const SnapModel model = quadratic_model(4, 11);
  const std::string path = "/tmp/ember_test_quad.snap";
  model.save(path);
  const SnapModel loaded = SnapModel::load(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.alpha.size(), model.alpha.size());
  EXPECT_TRUE(loaded.quadratic());
  for (std::size_t i = 0; i < model.alpha.size(); i += 17) {
    EXPECT_DOUBLE_EQ(loaded.alpha[i], model.alpha[i]);
  }
}

TEST(SnapQuadratic, ReducesToLinearWhenAlphaZero) {
  SnapModel quad = tiny_model(4, 13);
  quad.alpha.assign(quad.beta.size() * quad.beta.size(), 0.0);
  const SnapModel linear = tiny_model(4, 13);

  md::System sys = perturbed_diamond(2, 0.05, 14);
  auto forces_of = [&](const SnapModel& m) {
    md::System s = sys;
    SnapPotential pot(m);
    md::NeighborList nl(pot.cutoff(), 0.3);
    nl.build(s);
    s.zero_forces();
    pot.compute(s, nl);
    return std::vector<Vec3>(s.f.begin(), s.f.end());
  };
  const auto fq = forces_of(quad);
  const auto fl = forces_of(linear);
  for (std::size_t i = 0; i < fq.size(); ++i) {
    EXPECT_NEAR(fq[i].x, fl[i].x, 1e-12);
    EXPECT_NEAR(fq[i].z, fl[i].z, 1e-12);
  }
}

}  // namespace
}  // namespace ember::snap
