#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "comm/transport.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "io/embt1.hpp"
#include "io/formats.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "md/simulation.hpp"
#include "obs/json.hpp"
#include "obs/machine.hpp"
#include "parallel/parallel_sim.hpp"
#include "ref/pair_tersoff.hpp"
#include "snap/simd/dispatch.hpp"
#include "snap/snap_potential.hpp"
#include "probe.hpp"
#include "timed.hpp"

namespace perfbench {
namespace {

using namespace ember;
using Clock = std::chrono::steady_clock;

constexpr double kLatticeA = 3.567;   // diamond [A]
constexpr double kCarbonMass = 12.011;
constexpr double kPerturb = 0.02;     // lattice displacement sigma [A]
constexpr double kDtPs = 0.0005;      // time step [ps]
constexpr double kSkin = 0.5;         // neighbor skin [A]
constexpr double kForceTol = 1e-10;   // step-0 force parity [eV/A]
// SNAP runs must hold |E_end - E_start| / |E_start| below this over the
// timed window (NVE). The hot Tersoff run rebuilds and migrates constantly
// and is not held to it.
constexpr double kDriftTol = 1e-4;
// The tail metric needs at least 11 samples (10 beyond it).
constexpr long kMinSteps = 20;
// Replays time whole passes over this many atoms and keep the median pass.
constexpr int kReplayAtoms = 256;
constexpr int kReplayPasses = 5;
// Tag of the gate's force gather; it runs before the timed window.
constexpr int kForceTag = 7001;
// A traced run splits its window into this many chunks, untraced and
// traced in the order U T T U U T T U, so that a linear drift of the host
// speed weighs the same on both kinds (trace.overhead_frac).
constexpr int kTraceChunks = 8;
// The host probe after every timed step takes about this share of a step,
// and this many blocks after every set-up.
constexpr double kProbeShare = 0.04;
constexpr int kSetupProbeBlocks = 100;

// A row of workloads.txt (see there for the columns) plus the options of
// the run.
struct Spec : Options {
  std::string potential;  // "snap" | "tersoff"
  std::string transport;  // "serial" | "thread" | "socket"
  int cells = 0;
  int ranks = 0;
  int threads = 0;
  double temperature = 0.0;
  long dump_every = 0;
  long checkpoint_every = 0;
  int setups = 0;
  long warmup = 0;
};

// The header row of workloads.txt: the order load_spec reads a row in.
constexpr std::array<const char*, 11> kColumns = {
    "name",    "potential",   "transport",  "cells",
    "ranks",   "threads",     "temperature", "dump_every",
    "checkpoint_every",       "setups",     "warmup"};

Spec load_spec(const Options& opt) {
  std::ifstream in(opt.table);
  EMBER_REQUIRE(in.good(), "cannot read " + opt.table);
  std::vector<std::string> header;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    if (header.empty()) {
      for (std::string col; row >> col;) header.push_back(col);
      EMBER_REQUIRE(std::equal(header.begin(), header.end(), kColumns.begin(),
                               kColumns.end()),
                    opt.table + ": unexpected columns: " + line);
      continue;
    }
    Spec s;
    static_cast<Options&>(s) = opt;
    std::string name;
    row >> name >> s.potential >> s.transport >> s.cells >> s.ranks >>
        s.threads >> s.temperature >> s.dump_every >> s.checkpoint_every >>
        s.setups >> s.warmup;
    EMBER_REQUIRE(!row.fail() && (row >> std::ws).eof(),
                  opt.table + ": bad row: " + line);
    if (name != opt.workload) continue;
    EMBER_REQUIRE(s.potential == "snap" || s.potential == "tersoff",
                  opt.table + ": potential must be snap or tersoff: " + line);
    return s;
  }
  throw Error("no workload " + opt.workload + " in " + opt.table);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool same_bits(const Vec3& a, const Vec3& b) {
  return std::memcmp(&a, &b, sizeof(Vec3)) == 0;
}

template <typename... Args>
std::string fmt(const char* format, Args... args) {
  char buf[200];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

md::System make_input(const Spec& spec) {
  md::LatticeSpec lat;
  lat.kind = md::LatticeKind::Diamond;
  lat.a = kLatticeA;
  lat.nx = lat.ny = lat.nz = spec.cells;
  md::System sys = md::build_lattice(lat, kCarbonMass);
  Rng rng(spec.seed);
  md::perturb(sys, kPerturb, rng);
  sys.thermalize(spec.temperature, rng);
  return sys;
}

std::shared_ptr<md::PairPotential> make_potential(const Spec& spec) {
  if (spec.potential == "snap") {
    return std::make_shared<snap::SnapPotential>(
        snap::SnapModel::load(spec.model_path));
  }
  return std::make_shared<ref::PairTersoff>();
}

// Step-0 forces of the input from the independent Baseline (Z/dB) path,
// indexed by atom id.
std::vector<Vec3> baseline_forces(const md::System& input, const Spec& spec) {
  snap::SnapPotential base(snap::SnapModel::load(spec.model_path),
                           snap::SnapPotential::Path::Baseline);
  md::System sys = input;
  const md::ComputeContext ctx{ExecutionPolicy{spec.ranks * spec.threads}};
  md::NeighborList nl(base.cutoff(), kSkin);
  nl.build(sys, /*use_ghosts=*/false, &ctx);
  sys.zero_forces();
  base.compute(ctx, sys, nl);
  std::vector<Vec3> f(static_cast<std::size_t>(sys.nlocal()));
  for (int i = 0; i < sys.nlocal(); ++i) {
    f[static_cast<std::size_t>(sys.id[i])] = sys.f[i];
  }
  return f;
}

struct ForceRow {
  long id;
  Vec3 f;
};

std::vector<ForceRow> local_force_rows(const md::System& sys) {
  std::vector<ForceRow> rows;
  rows.reserve(static_cast<std::size_t>(sys.nlocal()));
  for (int i = 0; i < sys.nlocal(); ++i) rows.push_back({sys.id[i], sys.f[i]});
  return rows;
}

// The two drivers behind one face, so the measured sequence is written
// once. Collectives are identities on the serial driver.
class SerialDriver {
 public:
  SerialDriver(const md::System& input, std::shared_ptr<md::PairPotential> pot,
               const Spec& spec)
      : sim_(input, std::move(pot), kDtPs, kSkin, spec.seed,
             ExecutionPolicy{spec.threads}) {}

  void setup() { sim_.setup(); }
  void run(long n, const std::function<void()>& after_step) {
    sim_.run(n, [&](md::Simulation&) { after_step(); });
  }
  [[nodiscard]] const TimerSet& timers() const { return sim_.timers(); }
  void reset_timers() { sim_.reset_timers(); }
  void set_io(md::IoPlan plan, std::shared_ptr<io::Writer> writer) {
    sim_.set_writer(std::move(writer));
    sim_.set_io_plan(std::move(plan));
  }
  [[nodiscard]] double total_energy() { return sim_.total_energy(); }
  [[nodiscard]] md::System global_system() { return sim_.system(); }
  [[nodiscard]] const md::System& local_system() { return sim_.system(); }
  [[nodiscard]] bool ghosts() const { return false; }
  [[nodiscard]] const md::ComputeContext& context() const {
    return sim_.context();
  }
  [[nodiscard]] comm::Transport* transport() { return nullptr; }
  [[nodiscard]] bool root() const { return true; }
  void barrier() {}
  [[nodiscard]] double broadcast(double v) { return v; }
  [[nodiscard]] double max(double v) { return v; }
  [[nodiscard]] double sum(double v) { return v; }
  [[nodiscard]] std::vector<ForceRow> forces_on_root() {
    return local_force_rows(sim_.system());
  }

 private:
  md::Simulation sim_;
};

class ParallelDriver {
 public:
  ParallelDriver(comm::Transport& tr, const md::System& input,
                 std::shared_ptr<md::PairPotential> pot, const Spec& spec)
      : tr_(tr),
        sim_(tr, input, std::move(pot), kDtPs, kSkin, spec.seed,
             ExecutionPolicy{spec.threads}) {}

  void setup() { sim_.setup(); }
  void run(long n, const std::function<void()>& after_step) {
    sim_.run(n, [&](parallel::ParallelSimulation&) { after_step(); });
  }
  [[nodiscard]] const TimerSet& timers() const { return sim_.timers(); }
  void reset_timers() { sim_.reset_timers(); }
  void set_io(md::IoPlan plan, std::shared_ptr<io::Writer> writer) {
    sim_.set_writer(std::move(writer));
    sim_.set_io_plan(std::move(plan));
  }
  [[nodiscard]] double total_energy() {
    return sim_.global_state().total_energy();
  }
  [[nodiscard]] md::System global_system() { return sim_.gather_global(); }
  [[nodiscard]] const md::System& local_system() { return sim_.local(); }
  [[nodiscard]] bool ghosts() const { return true; }
  [[nodiscard]] const md::ComputeContext& context() const {
    return sim_.context();
  }
  [[nodiscard]] comm::Transport* transport() { return &tr_; }
  [[nodiscard]] bool root() const { return tr_.rank() == 0; }
  void barrier() { tr_.barrier(); }
  [[nodiscard]] double broadcast(double v) { return tr_.broadcast(v); }
  [[nodiscard]] double max(double v) { return tr_.allreduce_max(v); }
  [[nodiscard]] double sum(double v) { return tr_.allreduce_sum(v); }
  [[nodiscard]] std::vector<ForceRow> forces_on_root() {
    std::vector<ForceRow> rows = local_force_rows(sim_.local());
    if (!root()) {
      tr_.send(0, kForceTag, rows);
      return {};
    }
    for (int r = 1; r < tr_.size(); ++r) {
      const auto more = tr_.recv<ForceRow>(r, kForceTag);
      rows.insert(rows.end(), more.begin(), more.end());
    }
    return rows;
  }

 private:
  comm::Transport& tr_;
  parallel::ParallelSimulation sim_;
};

class Checks {
 public:
  void add(const std::string& name, bool ok, const std::string& detail) {
    list_.push(obs::Json::object()
                   .set("name", name)
                   .set("ok", ok)
                   .set("detail", detail));
  }
  [[nodiscard]] obs::Json take() { return std::move(list_); }

 private:
  obs::Json list_ = obs::Json::array();
};

// SNAP stage replay: Bispectrum::compute_ui / compute_yi_coeffs /
// compute_deidrj_all over the neighbor sets of the first atoms of `sys`,
// exactly as SnapPotential's linear adjoint path calls them.
struct StageReplay {
  double ui_s = 0.0, yi_s = 0.0, dei_s = 0.0;  // one pass, median
  double ui_flops = 0.0, yi_flops = 0.0, dei_flops = 0.0, flops = 0.0;
  long atoms = 0, neighbors = 0;
};

StageReplay replay_snap_stages(const snap::SnapModel& model,
                               const md::System& sys) {
  EMBER_REQUIRE(!model.quadratic(), "stage replay expects a linear model");
  snap::Bispectrum bi(model.params);
  const auto& triples = bi.index().z_triples();
  std::vector<double> coeffs(triples.size());
  for (std::size_t t = 0; t < triples.size(); ++t) {
    coeffs[t] = model.beta[triples[t].idxb] * triples[t].beta_scale;
  }
  md::NeighborList nl(model.params.rcut, 0.0);
  nl.build(sys);
  const double rc2 = model.params.rcut * model.params.rcut;

  StageReplay r;
  r.atoms = std::min(kReplayAtoms, sys.nlocal());
  std::vector<std::vector<Vec3>> rij(static_cast<std::size_t>(r.atoms));
  for (int i = 0; i < r.atoms; ++i) {
    for (const auto& en : nl.neighbors(i)) {
      const Vec3 d = sys.x[en.j] + en.shift - sys.x[i];
      if (d.norm2() < rc2) rij[static_cast<std::size_t>(i)].push_back(d);
    }
    const int nn = static_cast<int>(rij[static_cast<std::size_t>(i)].size());
    r.neighbors += nn;
    r.ui_flops += bi.flops_ui(nn);
    r.yi_flops += bi.flops_yi();
    r.dei_flops += nn * (bi.flops_duidrj() + bi.flops_deidrj());
    r.flops += bi.flops_adjoint_atom(nn);
  }

  std::vector<double> ui, yi, dei;
  std::vector<Vec3> de;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    double ui_s = 0.0, yi_s = 0.0, dei_s = 0.0;
    for (const auto& atom_rij : rij) {
      WallTimer t;
      bi.compute_ui(atom_rij, {});
      ui_s += t.seconds();
      t.reset();
      bi.compute_yi_coeffs(coeffs);
      yi_s += t.seconds();
      de.resize(atom_rij.size());
      t.reset();
      bi.compute_deidrj_all(de);
      dei_s += t.seconds();
    }
    ui.push_back(ui_s);
    yi.push_back(yi_s);
    dei.push_back(dei_s);
  }
  r.ui_s = median(ui);
  r.yi_s = median(yi);
  r.dei_s = median(dei);
  return r;
}

// Median time of a fresh NeighborList::build on the driver's own atoms,
// with its thread pool.
template <class Driver>
double replay_neighbor_build(Driver& d, double cutoff) {
  std::vector<double> times;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    md::NeighborList nl(cutoff, kSkin);
    const WallTimer t;
    nl.build(d.local_system(), d.ghosts(), &d.context());
    times.push_back(t.seconds());
  }
  return median(times);
}

long file_size(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<long>(n);
}

// Root only: the EMBT1 trajectory must hold exactly the frames the driver
// gathered, bit for bit, ending in the final state; the last checkpoint
// must reload to the state that was written.
void verify_output(const md::IoPlan& plan, const TimedWriter& writer,
                   long total_steps, const md::System& final_state,
                   Checks& checks, obs::Json& layers) {
  if (plan.dumps()) {
    const auto& digests = writer.dump_digests();
    const long expected = total_steps / plan.dump_every;
    io::TrajectoryReader reader(plan.dump_path);
    double read_s = 0.0;
    long frames = 0, mismatched = 0;
    io::Frame last;
    while (true) {
      const WallTimer t;
      std::optional<io::Frame> f = reader.next();
      read_s += t.seconds();
      if (!f) break;
      const auto k = static_cast<std::size_t>(frames);
      if (k >= digests.size() || frame_digest(*f) != digests[k]) ++mismatched;
      ++frames;
      last = std::move(*f);
    }
    checks.add("embt1_frame_count",
               frames == expected &&
                   static_cast<long>(digests.size()) == expected,
               fmt("%ld frames read, %ld expected", frames, expected));
    checks.add("embt1_bitwise_vs_gathered", frames > 0 && mismatched == 0,
               fmt("%ld of %ld frames differ from the gathered positions",
                   mismatched, frames));

    const long n = final_state.nlocal();
    std::vector<int> index_of(static_cast<std::size_t>(n), -1);
    bool final_ok = last.natoms() == n;
    for (int i = 0; final_ok && i < n; ++i) {
      const long id = final_state.id[i];
      final_ok = id >= 0 && id < n;
      if (final_ok) index_of[static_cast<std::size_t>(id)] = i;
    }
    for (int i = 0; final_ok && i < last.natoms(); ++i) {
      const long id = last.id[static_cast<std::size_t>(i)];
      const int j = id >= 0 && id < n ? index_of[static_cast<std::size_t>(id)]
                                      : -1;
      final_ok = j >= 0 && same_bits(last.x[static_cast<std::size_t>(i)],
                                     final_state.x[j]);
    }
    checks.add("embt1_last_frame_is_final_state", final_ok,
               "last frame vs gather_global() after the run");
    if (frames > 0) {
      layers.set("io.readback_ms_per_frame", 1e3 * read_s / frames);
      layers.set("io.bytes_per_frame",
                 static_cast<double>(file_size(plan.dump_path)) / frames);
    }
  }
  if (plan.checkpoints()) {
    const long expected = total_steps / plan.checkpoint_every;
    const io::Frame& cp = writer.last_checkpoint();
    const md::System back = io::read_checkpoint(writer.last_checkpoint_path());
    bool ok = back.nlocal() == cp.natoms() && cp.natoms() > 0;
    for (int i = 0; ok && i < back.nlocal(); ++i) {
      const auto k = static_cast<std::size_t>(i);
      ok = back.id[k] == cp.id[k] && same_bits(back.x[k], cp.box.wrap(cp.x[k])) &&
           same_bits(back.v[k], cp.v[k]);
    }
    const auto written = static_cast<long>(writer.checkpoint_seconds().size());
    checks.add("checkpoint_reload", ok && written == expected,
               fmt("%ld checkpoints written (%ld expected); last reloads "
                   "bit for bit",
                   written, expected));
  }
}

// Every thread of every rank runs the probe at once, the footprint the MD
// step itself has, and the slowest one counts, as it does for a step.
// Collective; returns the same time on every rank.
template <class Driver>
double probe_host(Driver& d, const HostProbe& probe, int blocks) {
  d.barrier();
  const md::ComputeContext& ctx = d.context();
  std::vector<double> seconds(static_cast<std::size_t>(ctx.nthreads()), 0.0);
  ctx.pool().parallel_blocks(0, ctx.nthreads(), [&](int tid, int, int) {
    seconds[static_cast<std::size_t>(tid)] = probe.run(blocks);
  });
  return d.max(*std::max_element(seconds.begin(), seconds.end()));
}

struct SetupInfo {
  std::string rundir;
  const std::vector<Vec3>* baseline = nullptr;  // empty for Tersoff
  // Every set-up, last included: its time, and the host probe run just
  // after it.
  std::vector<double> setup_s;
  std::vector<double> setup_probe_s;
};

// Everything after the last set-up's first force, on every rank of the
// driver. Returns the record on the root rank and "" elsewhere.
template <class Driver>
std::string measure(Driver& d, TimedPotential& pot, const HostProbe& probe,
                    const Spec& spec, const SetupInfo& info) {
  Checks checks;
  obs::Json layers = obs::Json::object();

  if (info.baseline != nullptr && !info.baseline->empty()) {
    const std::vector<ForceRow> rows = d.forces_on_root();
    if (d.root()) {
      const auto& ref = *info.baseline;
      double worst = 0.0;
      bool complete = rows.size() == ref.size();
      for (const ForceRow& row : rows) {
        if (row.id < 0 || row.id >= static_cast<long>(ref.size())) {
          complete = false;
          continue;
        }
        const Vec3& b = ref[static_cast<std::size_t>(row.id)];
        for (int c = 0; c < 3; ++c) {
          const double diff = std::abs(row.f[c] - b[c]);
          if (!(diff <= worst)) worst = diff;  // a NaN sticks
        }
      }
      checks.add("step0_forces_vs_baseline", complete && worst <= kForceTol,
                 fmt("max |F - F_baseline| %.3g eV/A over %zu atoms", worst,
                     rows.size()));
    }
  }

  md::IoPlan plan;
  std::shared_ptr<TimedWriter> writer;
  if (spec.dump_every > 0 || spec.checkpoint_every > 0) {
    plan.dump_every = spec.dump_every;
    plan.dump_path = info.rundir + "/traj.embt1";
    plan.dump_format = io::Format::Embt1;
    plan.checkpoint_every = spec.checkpoint_every;
    plan.checkpoint_path = info.rundir + "/state.ckpt";
    writer = std::make_shared<TimedWriter>(io::make_writer(io::Mode::Sync));
    d.set_io(plan, writer);
  }

  // Warm-up: lazy set-up finishes and the first step-time estimate.
  std::vector<double> warm;
  auto prev = Clock::now();
  d.run(spec.warmup, [&] {
    const auto now = Clock::now();
    warm.push_back(seconds_between(prev, now));
    prev = now;
  });

  // Untraced runs probe the host after every step.
  const int probe_blocks =
      spec.trace ? 0
                 : static_cast<int>(std::ceil(kProbeShare * median(warm) /
                                              kProbeRefBlockSeconds));
  const int blocks = static_cast<int>(d.broadcast(probe_blocks));

  // Runs steps for about `budget` seconds, in chunks of at most a quarter
  // of it. Rank 0 sizes each chunk from the rate so far and broadcasts
  // it, so every rank runs the same steps. Chunks are whole dump
  // intervals, so a window ends on a dump step. Returns {steps, wall}.
  std::vector<double> step_s, probe_s;
  const long unit = plan.dumps() ? plan.dump_every : 1;
  const auto run_for = [&](double budget, long min_steps) {
    long done = 0;
    double wall = 0.0;
    while (true) {
      double n = 0.0;
      if (d.root()) {
        const double per =
            done > 0 ? wall / done : std::max(median(warm), 1e-6);
        const double left = budget - wall;
        if (left > 0.5 * per || done < min_steps) {
          n = std::max({std::ceil(std::min(left, 0.25 * budget) / per),
                        static_cast<double>(min_steps - done), 1.0});
          n = std::ceil(n / unit) * unit;
        }
      }
      const long chunk = static_cast<long>(d.broadcast(n));
      if (chunk <= 0) return std::pair<long, double>{done, wall};
      const auto start = Clock::now();
      auto last = start;
      d.run(chunk, [&] {
        const auto now = Clock::now();
        if (d.root()) step_s.push_back(seconds_between(last, now));
        if (blocks > 0) {
          const double p = probe_host(d, probe, blocks);
          if (d.root()) probe_s.push_back(p);
        }
        last = Clock::now();
      });
      wall += seconds_between(start, Clock::now());
      done += chunk;
    }
  };
  // Enough steps for the tail metric and for one scheduled checkpoint.
  const long min_steps = std::max(
      kMinSteps, plan.checkpoints() ? plan.checkpoint_every - spec.warmup : 0);

  const double e0 = d.total_energy();
  long nsteps = 0;
  if (!spec.trace) {
    nsteps = run_for(spec.seconds, min_steps).first;
  } else {
    // Only TimedPotential is switched per chunk. The drivers' timers and
    // the transport counters are the library's own, and TimedWriter also
    // serves the gate, so those cover the whole window.
    comm::Transport* tr = d.transport();
    const double comm0 = tr != nullptr ? tr->comm_seconds() : 0.0;
    const comm::Transport::Traffic traffic0 =
        tr != nullptr ? tr->traffic() : comm::Transport::Traffic{};
    d.reset_timers();
    long n_plain = 0, n_traced = 0;
    double wall_plain = 0.0, wall_traced = 0.0;
    const long chunk_min = (min_steps + kTraceChunks - 1) / kTraceChunks;
    for (int k = 0; k < kTraceChunks; ++k) {
      const bool traced = k % 4 == 1 || k % 4 == 2;
      pot.set_enabled(traced);
      const auto [n, wall] = run_for(spec.seconds / kTraceChunks, chunk_min);
      (traced ? n_traced : n_plain) += n;
      (traced ? wall_traced : wall_plain) += wall;
    }
    pot.set_enabled(false);
    nsteps = n_plain + n_traced;

    const double force_s = pot.seconds();
    const double force_max = d.max(force_s);
    const double force_sum = d.sum(force_s);
    const double nranks = d.sum(1.0);
    const double pair_imbalance =
        d.max(d.timers().imbalance(TimerCategory::Pair));
    const double comm_s = d.max(tr != nullptr ? tr->comm_seconds() - comm0 : 0.0);
    const double messages = d.sum(
        tr != nullptr
            ? static_cast<double>(tr->traffic().messages - traffic0.messages)
            : 0.0);
    const double bytes =
        d.sum(tr != nullptr ? tr->traffic().bytes - traffic0.bytes : 0.0);
    const double steps = static_cast<double>(nsteps);
    const double traced_steps = static_cast<double>(n_traced);
    layers.set("md.force_ms", 1e3 * force_s / traced_steps);
    layers.set("md.step_other_ms", 1e3 * (wall_traced - force_s) / traced_steps);
    const TimerSet& timers = d.timers();
    for (const TimerCategory c : kTimerCategories) {
      std::string name = std::string("md.bucket.") + timer_category_name(c);
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char ch) { return std::tolower(ch); });
      layers.set(name + "_frac", timers.fraction(c));
    }
    layers.set("parallel.pair_imbalance", pair_imbalance);
    layers.set("parallel.rank_imbalance",
               force_sum > 0.0 ? force_max / (force_sum / nranks) : 0.0);
    layers.set("comm.seconds_per_step", comm_s / steps);
    layers.set("comm.messages_per_step", messages / steps);
    layers.set("comm.bytes_per_step", bytes / steps);
    layers.set("trace.overhead_frac",
               1.0 - (n_traced / wall_traced) / (n_plain / wall_plain));
    const double ms_dump =
        writer ? 1e3 * median(writer->dump_seconds()) : 0.0;
    const double ms_ckpt =
        writer ? 1e3 * median(writer->checkpoint_seconds()) : 0.0;
    layers.set("io.dump_submit_ms", ms_dump);
    layers.set("io.checkpoint_submit_ms", ms_ckpt);
    // verify_output overwrites these two when the run dumps.
    layers.set("io.bytes_per_frame", 0.0);
    layers.set("io.readback_ms_per_frame", 0.0);
    if (d.root()) {
      layers.set("md.neigh_build_ms",
                 1e3 * replay_neighbor_build(d, pot.cutoff()));
    }
  }
  const double e1 = d.total_energy();
  const md::System final_state = d.global_system();
  if (!d.root()) return {};

  if (spec.potential == "snap") {
    const double drift = std::abs(e1 - e0) / std::abs(e0);
    checks.add("nve_energy_drift", std::isfinite(drift) && drift <= kDriftTol,
               fmt("|dE/E| %.3g over the timed window (tolerance %.3g)", drift,
                   kDriftTol));
  }
  const long total_steps = spec.warmup + nsteps;
  if (writer) {
    verify_output(plan, *writer, total_steps, final_state, checks, layers);
  }
  if (spec.trace) {
    const StageReplay r = replay_snap_stages(
        snap::SnapModel::load(spec.model_path), final_state);
    const double atoms = static_cast<double>(r.atoms);
    layers.set("snap.ui_us_per_atom", 1e6 * r.ui_s / atoms);
    layers.set("snap.yi_us_per_atom", 1e6 * r.yi_s / atoms);
    layers.set("snap.dei_us_per_atom", 1e6 * r.dei_s / atoms);
    layers.set("snap.ui_gflops", 1e-9 * r.ui_flops / r.ui_s);
    layers.set("snap.yi_gflops", 1e-9 * r.yi_flops / r.yi_s);
    layers.set("snap.dei_gflops", 1e-9 * r.dei_flops / r.dei_s);
    layers.set("snap.flops_per_atom_step", r.flops / atoms);
    layers.set("snap.neighbors_per_atom", static_cast<double>(r.neighbors) / atoms);
  }

  const obs::MachineInfo machine = obs::probe_machine();
  const auto array = [](const std::vector<double>& v) {
    obs::Json a = obs::Json::array();
    for (const double x : v) a.push(obs::Json::num(x));
    return a;
  };
  obs::Json rec = obs::Json::object();
  rec.set("natoms", final_state.nlocal());
  rec.set("steps", static_cast<std::int64_t>(nsteps));
  rec.set("step_s", array(step_s));
  rec.set("probe_s", array(probe_s));
  rec.set("probe_blocks", blocks);
  rec.set("setup_s", array(info.setup_s));
  rec.set("setup_probe_s", array(info.setup_probe_s));
  rec.set("setup_probe_blocks", kSetupProbeBlocks);
  rec.set("probe_ref_block_s", kProbeRefBlockSeconds);
  rec.set("checks", checks.take());
  if (spec.trace) rec.set("layers", std::move(layers));
  rec.set("machine", obs::Json::object()
                         .set("cpu_model", machine.cpu_model)
                         .set("nproc", machine.hardware_threads)
                         .set("isa", snap::simd::to_string(
                                         snap::simd::max_supported_isa()))
                         .set("git_sha", obs::git_head_sha()));
  return rec.dump(0);
}

// A fresh directory for the run's output, removed with everything in it
// when the run ends (after verification, or on an error).
class RunDir {
 public:
  explicit RunDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string templ = parent + "/run-XXXXXX";
    EMBER_REQUIRE(::mkdtemp(templ.data()) != nullptr,
                  "cannot create a run directory under " + parent);
    path_ = templ;
  }
  ~RunDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

double peak_rss_mb() {
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

}  // namespace

std::string run_json(const Options& opt) {
  const Spec spec = load_spec(opt);
  const RunDir dir(spec.workdir);
  const md::System input = make_input(spec);
  const std::vector<Vec3> baseline = spec.potential == "snap"
                                         ? baseline_forces(input, spec)
                                         : std::vector<Vec3>{};
  SetupInfo info;
  info.rundir = dir.path();
  info.baseline = &baseline;

  const HostProbe probe;  // thread ranks share it; forked ranks copy it
  std::string record;
  for (int rep = 0; rep < spec.setups; ++rep) {
    const bool last = rep + 1 == spec.setups;
    const auto t0 = Clock::now();
    if (spec.transport == "serial") {
      auto pot = std::make_shared<TimedPotential>(make_potential(spec));
      SerialDriver d(input, pot, spec);
      d.setup();
      info.setup_s.push_back(seconds_between(t0, Clock::now()));
      info.setup_probe_s.push_back(probe_host(d, probe, kSetupProbeBlocks));
      if (last) record = measure(d, *pot, probe, spec, info);
      continue;
    }
    const auto context = comm::make_context(
        {comm::transport_kind_from_string(spec.transport), spec.ranks});
    const auto bytes = context->run_gather(
        [&](comm::Transport& tr) -> std::vector<std::byte> {
          auto pot = std::make_shared<TimedPotential>(make_potential(spec));
          ParallelDriver d(tr, input, pot, spec);
          d.setup();
          const double setup_s = seconds_between(t0, Clock::now());
          const std::array<double, 2> sample = {
              setup_s, probe_host(d, probe, kSetupProbeBlocks)};
          if (!last) return comm::to_bytes(sample);
          SetupInfo mine = info;
          mine.setup_s.push_back(sample[0]);
          mine.setup_probe_s.push_back(sample[1]);
          const std::string rec = measure(d, *pot, probe, spec, mine);
          const auto* p = reinterpret_cast<const std::byte*>(rec.data());
          return {p, p + rec.size()};
        });
    if (last) {
      record.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    } else {
      const auto sample = comm::from_bytes<std::array<double, 2>>(bytes);
      info.setup_s.push_back(sample[0]);
      info.setup_probe_s.push_back(sample[1]);
    }
  }
  return "{\"peak_rss_mb\":" + obs::Json::num(peak_rss_mb()).dump(0) +
         ",\"run\":" + record + "}";
}

}  // namespace perfbench
