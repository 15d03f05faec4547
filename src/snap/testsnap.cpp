#include "testsnap.hpp"

#include <algorithm>
#include <limits>

#include "common/rng.hpp"
#include "common/timer.hpp"

namespace ember::snap {

const char* to_string(TestSnapBar bar) {
  switch (bar) {
    case TestSnapBar::Baseline:
      return "Baseline (Z + dB)";
    case TestSnapBar::Production:
      return "Production (adjoint atom blocks)";
  }
  return "?";
}

TestSnap::TestSnap(const SnapParams& params, int natoms, int nnbor,
                   std::uint64_t seed)
    : natoms_(natoms), nnbor_(nnbor) {
  workers_.push_back({Bispectrum(params), std::vector<Vec3>(nnbor)});
  const SnapIndex& idx = workers_.front().bi.index();

  Rng rng(seed);
  beta_.resize(idx.num_b());
  for (auto& b : beta_) b = rng.uniform(-1.0, 1.0);
  const auto& triples = idx.z_triples();
  y_coeff_.resize(triples.size());
  for (std::size_t t = 0; t < triples.size(); ++t) {
    y_coeff_[t] = beta_[triples[t].idxb] * triples[t].beta_scale;
  }

  rij_.reserve(static_cast<std::size_t>(natoms) * nnbor);
  while (rij_.size() < static_cast<std::size_t>(natoms) * nnbor) {
    Vec3 r{rng.uniform(-params.rcut, params.rcut),
           rng.uniform(-params.rcut, params.rcut),
           rng.uniform(-params.rcut, params.rcut)};
    const double d = r.norm();
    if (d > 0.7 && d < params.rcut * 0.97) rij_.push_back(r);
  }
  forces_.assign(natoms, Vec3{});
}

double TestSnap::run(TestSnapBar bar, ExecutionPolicy policy) {
  std::fill(forces_.begin(), forces_.end(), Vec3{});
  const auto run_range = [this, bar](Worker& w, int begin, int end) {
    bar == TestSnapBar::Baseline ? run_baseline(w, begin, end)
                                 : run_production(w, begin, end);
  };

  if (policy.serial()) {
    WallTimer timer;
    run_range(workers_.front(), 0, natoms_);
    return timer.seconds();
  }
  if (!pool_ || pool_->size() != policy.nthreads) {
    pool_ = std::make_unique<parallel::ThreadPool>(policy.nthreads);
  }
  workers_.reserve(policy.nthreads);
  while (static_cast<int>(workers_.size()) < policy.nthreads) {
    workers_.push_back(workers_.front());
  }
  WallTimer timer;
  pool_->parallel_blocks(0, natoms_, [&](int tid, int b, int e) {
    run_range(workers_[tid], b, e);
  });
  return timer.seconds();
}

double TestSnap::grind_time(TestSnapBar bar, int repeats,
                            ExecutionPolicy policy) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) best = std::min(best, run(bar, policy));
  return best / static_cast<double>(natoms_);
}

void TestSnap::run_baseline(Worker& w, int begin, int end) {
  for (int i = begin; i < end; ++i) {
    w.bi.compute_ui(neighbors(i), {});
    w.bi.compute_zi();
    w.bi.compute_deidrj_baseline(neighbors(i), beta_, w.de);
    Vec3 fsum;
    for (const Vec3& de : w.de) fsum += de;
    forces_[i] = fsum;
  }
}

void TestSnap::run_production(Worker& w, int begin, int end) {
  const int width = w.bi.lane_width();
  for (int i0 = begin; i0 < end; i0 += width) {
    const int na = std::min(width, end - i0);
    for (int a = 0; a < na; ++a) w.bi.compute_ui(neighbors(i0 + a), {}, a);
    w.bi.compute_yi_block(y_coeff_);
    for (int a = 0; a < na; ++a) {
      w.bi.compute_deidrj_all(w.de, a);
      Vec3 fsum;
      for (const Vec3& de : w.de) fsum += de;
      forces_[i0 + a] = fsum;
    }
  }
}

}  // namespace ember::snap
