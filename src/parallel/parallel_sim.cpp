#include "parallel_sim.hpp"

#include <algorithm>
#include <numeric>

#include "common/units.hpp"
#include "io/frame.hpp"
#include "obs/trace.hpp"

namespace ember::parallel {

namespace {
constexpr int kTagGhost = 10;    // + leg index
constexpr int kTagForward = 20;  // + leg index
constexpr int kTagReverse = 30;  // + leg index
constexpr int kTagMigrate = 50;
constexpr int kTagGather = 60;

struct PackedAtom {
  double x, y, z;
  double vx, vy, vz;
  long id;
};

struct PackedGhost {
  double x, y, z;
  long id;
};
}  // namespace

ParallelSimulation::ParallelSimulation(comm::Transport& comm,
                                       const md::System& global,
                                       std::shared_ptr<md::PairPotential> pot,
                                       double dt_ps, double skin,
                                       std::uint64_t seed,
                                       ExecutionPolicy policy)
    : comm_(comm),
      global_box_(global.box()),
      domain_(global.box(),
              RankGrid::choose(comm.size(), global.box().lengths()),
              comm.rank()),
      loop_(md::System(global.box(), global.mass()), std::move(pot), dt_ps,
            skin, Rng(seed).split(static_cast<std::uint64_t>(comm.rank())),
            policy, *this) {
  const double rghost = loop_.potential().cutoff() + skin;
  const Vec3 sub = domain_.lengths();
  EMBER_REQUIRE(sub.x >= rghost && sub.y >= rghost && sub.z >= rghost,
                "sub-domain smaller than the ghost cutoff; use fewer ranks");
  scatter(global);
}

void ParallelSimulation::scatter(const md::System& global) {
  md::System& sys = loop_.system();
  for (int i = 0; i < global.nlocal(); ++i) {
    const Vec3 w = global_box_.wrap(global.x[i]);
    if (domain_.owns(w)) {
      sys.add_atom(w, global.v[i]);
      sys.id[sys.nlocal() - 1] = global.id[i];
    }
  }
}

void ParallelSimulation::migrate() {
  md::System& sys = loop_.system();
  sys.clear_ghosts();
  const int nranks = comm_.size();
  std::vector<std::vector<PackedAtom>> outgoing(nranks);
  std::vector<int> keep;
  keep.reserve(sys.nlocal());

  for (int i = 0; i < sys.nlocal(); ++i) {
    const Vec3 w = global_box_.wrap(sys.x[i]);
    sys.x[i] = w;
    const int owner = domain_.owner_of(w);
    if (owner == comm_.rank()) {
      keep.push_back(i);
    } else {
      outgoing[owner].push_back(
          {w.x, w.y, w.z, sys.v[i].x, sys.v[i].y, sys.v[i].z, sys.id[i]});
    }
  }

  // Compact the kept atoms.
  md::System next(global_box_, sys.mass());
  for (const int i : keep) {
    next.add_atom(sys.x[i], sys.v[i]);
    next.id[next.nlocal() - 1] = sys.id[i];
  }

  for (int r = 0; r < nranks; ++r) {
    if (r == comm_.rank()) continue;
    comm_.send(r, kTagMigrate, outgoing[r]);
  }
  for (int r = 0; r < nranks; ++r) {
    if (r == comm_.rank()) continue;
    for (const auto& a : comm_.recv<PackedAtom>(r, kTagMigrate)) {
      next.add_atom({a.x, a.y, a.z}, {a.vx, a.vy, a.vz});
      next.id[next.nlocal() - 1] = a.id;
    }
  }
  sys = std::move(next);
}

void ParallelSimulation::exchange_ghosts() {
  md::System& sys = loop_.system();
  sys.clear_ghosts();
  const double rghost =
      loop_.potential().cutoff() + loop_.neighbor_list().skin();
  const auto coords = domain_.grid().coords_of(comm_.rank());
  const int n[3] = {domain_.grid().nx, domain_.grid().ny, domain_.grid().nz};

  for (int d = 0; d < 3; ++d) {
    // Both legs of dimension d scan only atoms that existed before this
    // dimension: scanning ghosts received by the opposite leg of the SAME
    // dimension would bounce them straight back as duplicate self-images.
    // Ghosts from previous dimensions ARE scanned (corner propagation).
    const int scan_limit = sys.ntotal();
    for (int dir = 0; dir < 2; ++dir) {  // 0 = up (+), 1 = down (-)
      Leg& leg = legs_[2 * d + dir];
      leg.send_idx.clear();
      int up[3] = {coords[0], coords[1], coords[2]};
      up[d] += (dir == 0) ? 1 : -1;
      leg.send_to = domain_.grid().rank_of(up[0], up[1], up[2]);
      int dn[3] = {coords[0], coords[1], coords[2]};
      dn[d] -= (dir == 0) ? 1 : -1;
      leg.recv_from = domain_.grid().rank_of(dn[0], dn[1], dn[2]);

      const double face = (dir == 0) ? domain_.hi()[d] : domain_.lo()[d];
      const bool at_edge =
          (dir == 0) ? coords[d] == n[d] - 1 : coords[d] == 0;
      leg.send_shift = Vec3{};
      if (at_edge) {
        leg.send_shift[d] =
            (dir == 0) ? -global_box_.length(d) : global_box_.length(d);
      }

      std::vector<PackedGhost> packed;
      for (int i = 0; i < scan_limit; ++i) {
        const double c = sys.x[i][d];
        const bool in_slab =
            (dir == 0) ? (c >= face - rghost) : (c < face + rghost);
        if (!in_slab) continue;
        leg.send_idx.push_back(i);
        const Vec3 p = sys.x[i] + leg.send_shift;
        packed.push_back({p.x, p.y, p.z, sys.id[i]});
      }
      comm_.send(leg.send_to, kTagGhost + 2 * d + dir, packed);

      const auto incoming =
          comm_.recv<PackedGhost>(leg.recv_from, kTagGhost + 2 * d + dir);
      leg.ghost_begin = sys.ntotal();
      leg.ghost_count = static_cast<int>(incoming.size());
      for (const auto& g : incoming) {
        sys.add_ghost({g.x, g.y, g.z}, g.id);
      }
    }
  }
}

bool ParallelSimulation::check_rebuild(md::StepLoop& loop) {
  obs::ScopedSpan stage("comm.rebuild_check", "comm",
                        loop.timers().bucket(TimerCategory::Comm));
  return comm_.allreduce_or(
      loop.neighbor_list().needs_rebuild(loop.system()));
}

void ParallelSimulation::exchange(md::StepLoop&, bool /*initial*/) {
  {
    EMBER_OBS_SPAN("comm.migrate", "comm");
    migrate();
  }
  EMBER_OBS_SPAN("comm.ghosts", "comm");
  exchange_ghosts();
}

void ParallelSimulation::build_neighbors(md::StepLoop& loop,
                                         bool /*initial*/) {
  // Migration already wrapped the owners; ghosts carry explicit shifts.
  loop.neighbor_list().build(loop.system(), /*use_ghosts=*/true,
                             &loop.context());
}

void ParallelSimulation::forward_positions(md::StepLoop& loop) {
  EMBER_OBS_SPAN("comm.forward", "comm");
  md::System& sys = loop.system();
  std::vector<Vec3> packed;
  for (int leg_idx = 0; leg_idx < 6; ++leg_idx) {
    const Leg& leg = legs_[leg_idx];
    packed.clear();
    packed.reserve(leg.send_idx.size());
    for (const int i : leg.send_idx) {
      packed.push_back(sys.x[i] + leg.send_shift);
    }
    comm_.send(leg.send_to, kTagForward + leg_idx, packed);
    const auto incoming = comm_.recv<Vec3>(leg.recv_from, kTagForward + leg_idx);
    EMBER_REQUIRE(static_cast<int>(incoming.size()) == leg.ghost_count,
                  "forward communication size drift");
    for (int g = 0; g < leg.ghost_count; ++g) {
      sys.x[leg.ghost_begin + g] = incoming[g];
    }
  }
}

void ParallelSimulation::reverse_forces(md::StepLoop& loop) {
  EMBER_OBS_SPAN("comm.reverse", "comm");
  md::System& sys = loop.system();
  std::vector<Vec3> packed;
  for (int leg_idx = 5; leg_idx >= 0; --leg_idx) {
    const Leg& leg = legs_[leg_idx];
    packed.assign(sys.f.begin() + leg.ghost_begin,
                  sys.f.begin() + leg.ghost_begin + leg.ghost_count);
    comm_.send(leg.recv_from, kTagReverse + leg_idx, packed);
    const auto incoming = comm_.recv<Vec3>(leg.send_to, kTagReverse + leg_idx);
    EMBER_REQUIRE(incoming.size() == leg.send_idx.size(),
                  "reverse communication size drift");
    for (std::size_t m = 0; m < incoming.size(); ++m) {
      sys.f[leg.send_idx[m]] += incoming[m];
    }
  }
}

void ParallelSimulation::verify_exchange(md::StepLoop& loop, bool /*initial*/) {
  const md::System& sys = loop.system();
  std::array<int, 6> leg_counts{};
  for (std::size_t l = 0; l < legs_.size(); ++l) {
    leg_counts[l] = legs_[l].ghost_count;
  }
  check::check_ghost_legs(leg_counts, sys.nghost(), "exchange", loop.step());
  // Collective: every rank contributes its owner count; the baseline is
  // captured by the first checked exchange after the scatter.
  const long global = comm_.allreduce_sum(static_cast<long>(sys.nlocal()));
  if (checked_natoms_ < 0) {
    checked_natoms_ = global;
    return;
  }
  check::check_atom_conservation(global, checked_natoms_, "exchange",
                                 loop.step());
}

double ParallelSimulation::total_energy(md::StepLoop& loop) {
  return comm_.allreduce_sum(loop.energy_virial().energy) +
         comm_.allreduce_sum(loop.system().kinetic_energy());
}

void ParallelSimulation::dump(md::StepLoop& loop, const md::IoPlan& plan,
                              bool truncate) {
  // Collective: every rank pays the gather (that part stays on the step
  // critical path), then only root hands the frame to its writer — with
  // an async writer the encode+write happens behind the loop.
  const md::System global = gather(/*on_all_ranks=*/false);
  if (comm_.rank() != 0) return;
  io::Request req;
  req.kind = io::Request::Kind::Trajectory;
  req.path = plan.dump_path;
  req.format = plan.dump_format;
  req.truncate = truncate;
  req.frames.push_back(io::frame_of(global, loop.step(), /*replica=*/0,
                                    "step=" + std::to_string(loop.step())));
  req.frames.back().v.clear();  // dumps are position-only (see StepStages)
  loop.writer().submit(std::move(req));
}

void ParallelSimulation::write_checkpoint(md::StepLoop& loop,
                                          const std::string& path) {
  const md::System global = gather(/*on_all_ranks=*/false);
  if (comm_.rank() == 0) {
    io::Request req;
    req.kind = io::Request::Kind::Checkpoint;
    req.path = path;
    req.frames.push_back(io::frame_of(global));
    loop.writer().submit(std::move(req));
  }
  // No rank resumes stepping before the request is in the pipeline; the
  // tmp+rename executor keeps the on-disk file complete while an async
  // queue is in flight, and save_checkpoint() drains for explicit
  // restart points.
  comm_.barrier();
}

void ParallelSimulation::run(long nsteps, const StepCallback& callback) {
  if (callback) {
    loop_.run(nsteps, [&] { callback(*this); });
  } else {
    loop_.run(nsteps);
  }
}

GlobalState ParallelSimulation::global_state() {
  const md::System& sys = loop_.system();
  GlobalState g;
  g.natoms = comm_.allreduce_sum(static_cast<long>(sys.nlocal()));
  g.potential_energy = comm_.allreduce_sum(loop_.energy_virial().energy);
  g.kinetic_energy = comm_.allreduce_sum(sys.kinetic_energy());
  g.virial = comm_.allreduce_sum(loop_.energy_virial().virial);
  const long dof = std::max<long>(1, 3 * g.natoms - 3);
  g.temperature = 2.0 * g.kinetic_energy / (dof * units::kB);
  return g;
}

md::System ParallelSimulation::gather(bool on_all_ranks) {
  const md::System& sys = loop_.system();
  std::vector<PackedAtom> mine;
  mine.reserve(sys.nlocal());
  for (int i = 0; i < sys.nlocal(); ++i) {
    mine.push_back({sys.x[i].x, sys.x[i].y, sys.x[i].z, sys.v[i].x,
                    sys.v[i].y, sys.v[i].z, sys.id[i]});
  }

  md::System out(global_box_, sys.mass());
  if (!on_all_ranks && comm_.rank() != 0) {
    comm_.send(0, kTagGather, mine);
    return out;  // only root assembles
  }

  std::vector<PackedAtom> all = mine;
  if (on_all_ranks) {
    for (int r = 0; r < comm_.size(); ++r) {
      if (r == comm_.rank()) continue;
      comm_.send(r, kTagGather, mine);
    }
  }
  for (int r = 0; r < comm_.size(); ++r) {
    if (r == comm_.rank()) continue;
    const auto theirs = comm_.recv<PackedAtom>(r, kTagGather);
    all.insert(all.end(), theirs.begin(), theirs.end());
  }
  std::sort(all.begin(), all.end(),
            [](const PackedAtom& a, const PackedAtom& b) { return a.id < b.id; });

  for (const auto& a : all) {
    out.add_atom({a.x, a.y, a.z}, {a.vx, a.vy, a.vz});
    out.id[out.nlocal() - 1] = a.id;
  }
  return out;
}

md::System ParallelSimulation::gather_global() {
  return gather(/*on_all_ranks=*/true);
}

}  // namespace ember::parallel
