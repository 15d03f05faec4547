#include "interpreter.hpp"

#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <sstream>

#include "analysis/classify.hpp"
#include "comm/transport.hpp"
#include "common/error.hpp"
#include "io/writer.hpp"
#include "md/io.hpp"
#include "md/lattice.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_sim.hpp"
#include "ref/pair_eam.hpp"
#include "ref/pair_lj.hpp"
#include "ref/pair_morse.hpp"
#include "ref/pair_tersoff.hpp"
#include "snap/snap_potential.hpp"

namespace ember::app {

namespace {

// Extract a mandatory value of type T from the argument stream.
template <typename T>
T need(std::istream& is, const char* what) {
  T value{};
  EMBER_REQUIRE(static_cast<bool>(is >> value),
                std::string("missing or malformed argument: ") + what);
  return value;
}

}  // namespace

struct Interpreter::Pending {
  double dt = 1e-3;
  double skin = 0.4;
  std::uint64_t seed = 12345;
  std::optional<md::LangevinParams> langevin;
  std::optional<md::BerendsenTParams> berendsen_t;
  std::optional<md::NoseHooverParams> nose_hoover;
  std::optional<md::BerendsenPParams> berendsen_p;
  long log_every = 0;
  long dump_every = 0;
  std::string dump_path;
  io::Format dump_format = io::Format::Xyz;
  long checkpoint_every = 0;
  std::string checkpoint_path;
  io::Mode io_mode = io::mode_from_env();  // `io async|sync` overrides
  int nthreads = 1;
  int ranks = 1;     // > 1: domain-decomposed runs (ParallelSimulation)
  int replicas = 1;  // > 1: lockstep replica runs (BatchedSimulation)
  comm::TransportKind transport = comm::default_transport_kind();
};

Interpreter::Interpreter(std::ostream& out)
    : out_(out), pending_(std::make_unique<Pending>()) {}

Interpreter::~Interpreter() {
  // Pending async writes still land if the script ends mid-queue.
  if (writer_) {
    try {
      writer_->drain();
    } catch (...) {
      // Destructor: a failed write was already reported or is beyond help.
    }
  }
  // An active trace still flushes if the script ends without `trace off`.
  if (!trace_path_.empty()) {
    try {
      flush_trace();
    } catch (...) {
      // Destructor: a failed flush (bad path) must not terminate.
    }
  }
}

std::shared_ptr<io::Writer> Interpreter::writer() {
  if (!writer_) writer_ = io::make_writer(pending_->io_mode);
  return writer_;
}

const md::System& Interpreter::system() const {
  EMBER_REQUIRE(system_.has_value(), "no system defined yet");
  return sim_ ? sim_->system() : *system_;
}

void Interpreter::run_script(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  line_number_ = 0;
  while (std::getline(is, line)) {
    ++line_number_;
    try {
      execute(line);
    } catch (const Error& e) {
      throw Error("line " + std::to_string(line_number_) + ": " + e.what());
    }
  }
}

void Interpreter::run_file(const std::string& path) {
  std::ifstream is(path);
  EMBER_REQUIRE(is.good(), "cannot open script: " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  run_script(buffer.str());
}

void Interpreter::execute(const std::string& line) {
  // Strip comments.
  const auto hash = line.find('#');
  std::istringstream is(hash == std::string::npos ? line
                                                  : line.substr(0, hash));
  std::string cmd;
  if (!(is >> cmd)) return;  // blank line

  using Handler = void (Interpreter::*)(std::istream&);
  static const std::map<std::string, Handler> handlers = {
      {"lattice", &Interpreter::cmd_lattice},
      {"random", &Interpreter::cmd_random},
      {"mass", &Interpreter::cmd_mass},
      {"potential", &Interpreter::cmd_potential},
      {"thermalize", &Interpreter::cmd_thermalize},
      {"timestep", &Interpreter::cmd_timestep},
      {"thermostat", &Interpreter::cmd_thermostat},
      {"barostat", &Interpreter::cmd_barostat},
      {"log", &Interpreter::cmd_log},
      {"io", &Interpreter::cmd_io},
      {"dump", &Interpreter::cmd_dump},
      {"checkpoint", &Interpreter::cmd_checkpoint},
      {"run", &Interpreter::cmd_run},
      {"analyze", &Interpreter::cmd_analyze},
      {"read_checkpoint", &Interpreter::cmd_read_checkpoint},
      {"threads", &Interpreter::cmd_threads},
      {"ranks", &Interpreter::cmd_ranks},
      {"transport", &Interpreter::cmd_transport},
      {"replicas", &Interpreter::cmd_replicas},
      {"trace", &Interpreter::cmd_trace},
      {"metrics", &Interpreter::cmd_metrics},
  };
  const auto it = handlers.find(cmd);
  EMBER_REQUIRE(it != handlers.end(), "unknown command: " + cmd);
  (this->*(it->second))(is);
}

void Interpreter::cmd_lattice(std::istream& args) {
  const auto kind = need<std::string>(args, "lattice kind");
  md::LatticeSpec spec;
  static const std::map<std::string, md::LatticeKind> kinds = {
      {"sc", md::LatticeKind::SimpleCubic}, {"bcc", md::LatticeKind::Bcc},
      {"fcc", md::LatticeKind::Fcc},        {"diamond", md::LatticeKind::Diamond},
      {"bc8", md::LatticeKind::Bc8},
  };
  const auto it = kinds.find(kind);
  EMBER_REQUIRE(it != kinds.end(), "unknown lattice kind: " + kind);
  spec.kind = it->second;
  spec.a = need<double>(args, "lattice constant");
  std::string word;
  if (args >> word) {
    EMBER_REQUIRE(word == "repeat", "expected 'repeat nx ny nz'");
    spec.nx = need<int>(args, "nx");
    spec.ny = need<int>(args, "ny");
    spec.nz = need<int>(args, "nz");
  }
  system_ = md::build_lattice(spec, mass_);
  sim_.reset();
  out_ << "created " << system_->nlocal() << " atoms (" << kind << ")\n";
}

void Interpreter::cmd_random(std::istream& args) {
  const double lx = need<double>(args, "box x");
  const double ly = need<double>(args, "box y");
  const double lz = need<double>(args, "box z");
  const int n = need<int>(args, "atom count");
  const double minsep = need<double>(args, "minimum separation");
  std::uint64_t seed = 1;
  std::string word;
  if (args >> word) {
    EMBER_REQUIRE(word == "seed", "expected 'seed <n>'");
    seed = need<std::uint64_t>(args, "seed");
  }
  Rng rng(seed);
  system_ = md::random_packing(md::Box(lx, ly, lz), n, minsep, mass_, rng);
  sim_.reset();
  out_ << "created " << system_->nlocal() << " atoms (random packing)\n";
}

void Interpreter::cmd_mass(std::istream& args) {
  mass_ = need<double>(args, "mass");
  EMBER_REQUIRE(!system_, "mass must come before the system is created");
}

void Interpreter::cmd_potential(std::istream& args) {
  const auto kind = need<std::string>(args, "potential kind");
  // Stage a factory rather than one object: parallel runs need a
  // rank-private potential per rank (per-thread caches are per-object).
  if (kind == "lj") {
    const double eps = need<double>(args, "epsilon");
    const double sigma = need<double>(args, "sigma");
    const double rcut = need<double>(args, "rcut");
    potential_factory_ = [=] {
      return std::make_shared<ref::PairLJ>(eps, sigma, rcut);
    };
  } else if (kind == "morse") {
    const double d0 = need<double>(args, "D0");
    const double alpha = need<double>(args, "alpha");
    const double r0 = need<double>(args, "r0");
    const double rcut = need<double>(args, "rcut");
    potential_factory_ = [=] {
      return std::make_shared<ref::PairMorse>(d0, alpha, r0, rcut);
    };
  } else if (kind == "tersoff") {
    potential_factory_ = [] { return std::make_shared<ref::PairTersoff>(); };
  } else if (kind == "eam") {
    potential_factory_ = [] { return std::make_shared<ref::PairEam>(); };
  } else if (kind == "snap") {
    const auto path = need<std::string>(args, "model file");
    snap::SnapModel model = snap::SnapModel::load(path);
    potential_factory_ = [model = std::move(model)] {
      return std::make_shared<snap::SnapPotential>(model);
    };
  } else {
    EMBER_REQUIRE(false, "unknown potential: " + kind);
  }
  potential_ = potential_factory_();
  sim_.reset();
  batch_.reset();
  out_ << "potential " << potential_->name() << " (rcut "
       << potential_->cutoff() << ")\n";
}

void Interpreter::cmd_thermalize(std::istream& args) {
  EMBER_REQUIRE(system_.has_value(), "thermalize needs a system");
  EMBER_REQUIRE(batch_ == nullptr, "thermalize must precede replica runs");
  const double t = need<double>(args, "temperature");
  std::string word;
  std::uint64_t seed = pending_->seed;
  if (args >> word) {
    EMBER_REQUIRE(word == "seed", "expected 'seed <n>'");
    seed = need<std::uint64_t>(args, "seed");
  }
  pending_->seed = seed;
  Rng rng(seed);
  (sim_ ? sim_->system() : *system_).thermalize(t, rng);
  out_ << "thermalized to " << t << " K\n";
}

void Interpreter::cmd_timestep(std::istream& args) {
  pending_->dt = need<double>(args, "timestep [ps]");
  if (sim_) sim_->integrator().set_dt(pending_->dt);
  if (batch_) batch_->integrator().set_dt(pending_->dt);
}

void Interpreter::cmd_thermostat(std::istream& args) {
  const auto kind = need<std::string>(args, "thermostat kind");
  if (kind == "langevin") {
    const double t = need<double>(args, "temperature");
    const double damp = need<double>(args, "damp [ps]");
    pending_->langevin = md::LangevinParams{t, damp};
    pending_->berendsen_t.reset();
  } else if (kind == "berendsen") {
    const double t = need<double>(args, "temperature");
    const double tau = need<double>(args, "tau [ps]");
    pending_->berendsen_t = md::BerendsenTParams{t, tau};
    pending_->langevin.reset();
  } else if (kind == "nose_hoover") {
    const double t = need<double>(args, "temperature");
    const double tdamp = need<double>(args, "tdamp [ps]");
    pending_->nose_hoover = md::NoseHooverParams{t, tdamp};
    pending_->langevin.reset();
    pending_->berendsen_t.reset();
  } else if (kind == "none") {
    pending_->langevin.reset();
    pending_->berendsen_t.reset();
    pending_->nose_hoover.reset();
  } else {
    EMBER_REQUIRE(false, "unknown thermostat: " + kind);
  }
  if (sim_) {
    sim_->integrator().set_langevin(pending_->langevin);
    sim_->integrator().set_berendsen_t(pending_->berendsen_t);
    sim_->integrator().set_nose_hoover(pending_->nose_hoover);
  }
  if (batch_) {
    batch_->integrator().set_langevin(pending_->langevin);
    batch_->integrator().set_berendsen_t(pending_->berendsen_t);
    batch_->integrator().set_nose_hoover(pending_->nose_hoover);
  }
}

void Interpreter::cmd_barostat(std::istream& args) {
  const auto kind = need<std::string>(args, "barostat kind");
  if (kind == "berendsen") {
    const double p = need<double>(args, "pressure [bar]");
    const double tau = need<double>(args, "tau [ps]");
    const double kappa = need<double>(args, "compressibility [1/bar]");
    pending_->berendsen_p = md::BerendsenPParams{p, tau, kappa};
  } else if (kind == "none") {
    pending_->berendsen_p.reset();
  } else {
    EMBER_REQUIRE(false, "unknown barostat: " + kind);
  }
  if (sim_) sim_->integrator().set_berendsen_p(pending_->berendsen_p);
}

void Interpreter::cmd_log(std::istream& args) {
  const auto word = need<std::string>(args, "'every'");
  EMBER_REQUIRE(word == "every", "expected 'log every <n>'");
  pending_->log_every = need<long>(args, "interval");
}

void Interpreter::cmd_io(std::istream& args) {
  const auto mode = need<std::string>(args, "'async' or 'sync'");
  if (mode == "async") {
    pending_->io_mode = io::Mode::Async;
  } else if (mode == "sync") {
    pending_->io_mode = io::Mode::Sync;
  } else {
    EMBER_REQUIRE(false, "expected 'io async' or 'io sync'");
  }
  if (writer_) {
    writer_->drain();  // surface any pending error before switching
    writer_.reset();   // next run builds the new backend
  }
  out_ << "io " << io::to_string(pending_->io_mode) << "\n";
}

void Interpreter::cmd_dump(std::istream& args) {
  const auto word = need<std::string>(args, "'every'");
  EMBER_REQUIRE(word == "every",
                "expected 'dump every <n> <file> [xyz|ember_traj]'");
  pending_->dump_every = need<long>(args, "interval");
  pending_->dump_path = need<std::string>(args, "file");
  // Optional explicit format; default follows the extension (.embt1 ->
  // the compressed ember_traj format, anything else extended XYZ).
  std::string format;
  if (args >> format) {
    if (format == "xyz") {
      pending_->dump_format = io::Format::Xyz;
    } else if (format == "ember_traj") {
      pending_->dump_format = io::Format::Embt1;
    } else {
      EMBER_REQUIRE(false, "unknown dump format: " + format);
    }
  } else {
    pending_->dump_format = io::format_from_path(pending_->dump_path);
  }
}

void Interpreter::cmd_checkpoint(std::istream& args) {
  const auto word = need<std::string>(args, "'every'");
  EMBER_REQUIRE(word == "every", "expected 'checkpoint every <n> <file>'");
  pending_->checkpoint_every = need<long>(args, "interval");
  pending_->checkpoint_path = need<std::string>(args, "file");
}

void Interpreter::cmd_read_checkpoint(std::istream& args) {
  const auto path = need<std::string>(args, "checkpoint file");
  // Restart barrier: the file may still be in the async queue.
  if (writer_) writer_->drain();
  auto replicas = md::read_checkpoint_batch(path);
  sim_.reset();
  batch_.reset();
  staged_replicas_.clear();
  if (replicas.size() > 1) {
    // Batch checkpoint: restore replica mode with the saved states.
    pending_->replicas = static_cast<int>(replicas.size());
    pending_->ranks = 1;
    system_ = replicas.front();
    staged_replicas_ = std::move(replicas);
    out_ << "restored " << staged_replicas_.size() << " replicas ("
         << system_->nlocal() << " atoms each) from " << path << "\n";
    return;
  }
  system_ = std::move(replicas.front());
  out_ << "restored " << system_->nlocal() << " atoms from " << path << "\n";
}

void Interpreter::cmd_threads(std::istream& args) {
  const auto word = need<std::string>(args, "thread count or 'auto'");
  int n = 1;
  if (word == "auto") {
    n = ExecutionPolicy::hardware().nthreads;
  } else {
    std::istringstream ws(word);
    EMBER_REQUIRE(static_cast<bool>(ws >> n) && n >= 1,
                  "thread count must be a positive integer or 'auto'");
  }
  pending_->nthreads = n;
  if (sim_) sim_->set_execution_policy(ExecutionPolicy{n});
  if (batch_) batch_->set_execution_policy(ExecutionPolicy{n});
  out_ << "threads " << n << "\n";
}

void Interpreter::cmd_ranks(std::istream& args) {
  const int n = need<int>(args, "rank count");
  EMBER_REQUIRE(n >= 1, "rank count must be >= 1");
  EMBER_REQUIRE(n == 1 || pending_->replicas == 1,
                "'ranks' and 'replicas' are mutually exclusive");
  reclaim_system();
  pending_->ranks = n;
  out_ << "ranks " << n << "\n";
}

void Interpreter::cmd_transport(std::istream& args) {
  const auto kind = need<std::string>(args, "'thread' or 'socket'");
  pending_->transport = comm::transport_kind_from_string(kind);
  out_ << "transport " << comm::to_string(pending_->transport) << "\n";
}

void Interpreter::cmd_replicas(std::istream& args) {
  const int n = need<int>(args, "replica count");
  EMBER_REQUIRE(n >= 1, "replica count must be >= 1");
  EMBER_REQUIRE(n == 1 || pending_->ranks == 1,
                "'ranks' and 'replicas' are mutually exclusive");
  reclaim_system();
  pending_->replicas = n;
  out_ << "replicas " << n << "\n";
}

void Interpreter::cmd_trace(std::istream& args) {
  const auto mode = need<std::string>(args, "'on <file>' or 'off'");
  if (mode == "on") {
    const auto path = need<std::string>(args, "trace output file");
    EMBER_REQUIRE(trace_path_.empty(),
                  "a trace is already recording to " + trace_path_);
    trace_path_ = path;
    auto& session = obs::TraceSession::global();
    session.clear();
    session.start();
    out_ << "trace on -> " << trace_path_ << "\n";
  } else if (mode == "off") {
    EMBER_REQUIRE(!trace_path_.empty(),
                  "no trace is recording ('trace on <file>' first)");
    flush_trace();
  } else {
    EMBER_REQUIRE(false, "expected 'trace on <file>' or 'trace off'");
  }
}

void Interpreter::flush_trace() {
  auto& session = obs::TraceSession::global();
  session.stop();
  session.write_chrome_trace(trace_path_);
  out_ << "trace written to " << trace_path_ << " ("
       << session.snapshot().size() << " spans)\n";
  trace_path_.clear();
}

void Interpreter::cmd_metrics(std::istream& args) {
  const auto mode = need<std::string>(args, "'dump <file>'");
  EMBER_REQUIRE(mode == "dump", "expected 'metrics dump <file>'");
  const auto path = need<std::string>(args, "metrics output file");
  obs::Registry::global().to_json().write_file(path);
  out_ << "metrics written to " << path << "\n";
}

void Interpreter::reclaim_system() {
  if (sim_) {
    system_ = sim_->system();
    sim_.reset();
  }
  if (batch_) {
    system_ = batch_->replica(0);
    batch_.reset();
  }
  staged_replicas_.clear();
}

void Interpreter::apply_integrator_settings(md::Integrator& integrator) const {
  integrator.set_langevin(pending_->langevin);
  integrator.set_berendsen_t(pending_->berendsen_t);
  integrator.set_nose_hoover(pending_->nose_hoover);
  integrator.set_berendsen_p(pending_->berendsen_p);
}

void Interpreter::ensure_simulation() {
  EMBER_REQUIRE(system_.has_value(), "no system: use 'lattice' or 'random'");
  EMBER_REQUIRE(potential_ != nullptr, "no potential defined");
  if (sim_) return;
  sim_ = std::make_unique<md::Simulation>(std::move(*system_), potential_,
                                          pending_->dt, pending_->skin,
                                          pending_->seed,
                                          ExecutionPolicy{pending_->nthreads});
  system_.emplace(md::Box(1, 1, 1), mass_);  // moved-from placeholder
  apply_integrator_settings(sim_->integrator());
}

void Interpreter::cmd_run(std::istream& args) {
  const long steps = need<long>(args, "step count");
  if (pending_->ranks > 1) {
    run_parallel(steps);
  } else if (pending_->replicas > 1 || batch_) {
    run_batched(steps);
  } else {
    run_serial(steps);
  }
  // End-of-command barrier: when `run` reports done, every scheduled dump
  // and checkpoint is on disk and any write error has surfaced here (with
  // the async backend the overlap happened within the run).
  if (writer_) writer_->drain();
  total_steps_ += steps;
  out_ << "ran " << steps << " steps (total " << total_steps_ << ")\n";
}

md::IoPlan Interpreter::make_io_plan(bool append) const {
  md::IoPlan plan;
  plan.dump_every = pending_->dump_every;
  plan.dump_path = pending_->dump_path;
  plan.dump_format = pending_->dump_format;
  plan.append = append;
  plan.checkpoint_every = pending_->checkpoint_every;
  plan.checkpoint_path = pending_->checkpoint_path;
  return plan;
}

void Interpreter::run_serial(long steps) {
  ensure_simulation();
  sim_->set_writer(writer());
  sim_->set_io_plan(make_io_plan(/*append=*/total_steps_ > 0));
  const long log_every = pending_->log_every;

  sim_->run(steps, [&](md::Simulation& s) {
    if (log_every > 0 && s.step() % log_every == 0) {
      out_ << "step " << s.step() << "  E " << s.total_energy() << "  T "
           << s.system().temperature() << "  P " << s.pressure() << "\n";
    }
  });
}

void Interpreter::run_parallel(long steps) {
  reclaim_system();
  EMBER_REQUIRE(system_.has_value(), "no system: use 'lattice' or 'random'");
  EMBER_REQUIRE(potential_factory_ != nullptr, "no potential defined");
  EMBER_REQUIRE(!pending_->berendsen_p,
                "barostat not supported with 'ranks' (per-rank virials "
                "cannot drive a consistent box rescale)");
  const long log_every = pending_->log_every;
  const md::IoPlan plan = make_io_plan(/*append=*/total_steps_ > 0);
  const io::Mode io_mode = pending_->io_mode;
  const md::System& global = *system_;

  // The socket backend forks the ranks: quiesce this process's writer
  // thread first, and give every rank its own post-fork writer inside
  // the lambda (an inherited worker thread would not survive the fork).
  if (writer_) writer_->drain();

  comm::TransportSpec spec;
  spec.kind = pending_->transport;
  spec.ranks = pending_->ranks;
  const auto ctx = comm::make_context(spec);
  // run_gather ships rank 0's gathered System back to this process as
  // checkpoint bytes — with the socket backend the ranks are forked
  // children, so a captured reference cannot carry the state out.
  const auto gathered = ctx->run_gather([&](comm::Transport& c) {
    parallel::ParallelSimulation psim(c, global, potential_factory_(),
                                      pending_->dt, pending_->skin,
                                      pending_->seed,
                                      ExecutionPolicy{pending_->nthreads});
    apply_integrator_settings(psim.integrator());
    psim.set_writer(io::make_writer(io_mode));  // rank-private, post-fork
    psim.set_io_plan(plan);
    psim.run(steps, [&](parallel::ParallelSimulation& s) {
      if (log_every > 0 && s.step() % log_every == 0) {
        const auto g = s.global_state();  // collective
        if (c.rank() == 0) {
          out_ << "step " << s.step() << "  E " << g.total_energy() << "  T "
               << g.temperature << "\n";
        }
      }
    });
    psim.writer().drain();  // all output durable before the rank reports
    md::System g = psim.gather_global();
    if (c.rank() != 0) return std::vector<std::byte>{};
    return md::checkpoint_bytes(g);
  });
  system_ = md::system_from_checkpoint_bytes(gathered);
}

void Interpreter::run_batched(long steps) {
  EMBER_REQUIRE(!pending_->berendsen_p,
                "barostat not supported with 'replicas' (per-replica "
                "boxes are fixed)");
  if (!batch_) {
    EMBER_REQUIRE(system_.has_value(), "no system: use 'lattice' or 'random'");
    EMBER_REQUIRE(potential_ != nullptr, "no potential defined");
    std::vector<md::System> reps = std::move(staged_replicas_);
    staged_replicas_.clear();
    if (reps.empty()) {
      // Identical copies; a Langevin thermostat decorrelates them (the
      // combined sweep draws fresh noise per atom, replica by replica).
      reps.assign(static_cast<std::size_t>(pending_->replicas), *system_);
    }
    batch_ = std::make_unique<md::BatchedSimulation>(
        std::move(reps), potential_, pending_->dt, pending_->skin,
        pending_->seed, ExecutionPolicy{pending_->nthreads});
    apply_integrator_settings(batch_->integrator());
  }
  const long log_every = pending_->log_every;
  // Batched dumps always append (historical semantics: the trajectory
  // interleaves one frame per replica per interval).
  batch_->set_writer(writer());
  batch_->set_io_plan(make_io_plan(/*append=*/true));

  batch_->run(steps, [&](md::BatchedSimulation& b) {
    if (log_every > 0 && b.step() % log_every == 0) {
      out_ << "step " << b.step() << "  E " << b.energy_virial().energy
           << "  T";
      for (int r = 0; r < b.num_replicas(); ++r) {
        out_ << ' ' << b.temperature(r);
      }
      out_ << "\n";
    }
  });
  system_ = batch_->replica(0);  // keep analyze/log views current
}

void Interpreter::cmd_analyze(std::istream& args) {
  std::string word;
  if (args >> word) {
    EMBER_REQUIRE(word == "trajectory",
                  "expected 'analyze' or 'analyze trajectory <file>'");
    const auto path = need<std::string>(args, "trajectory file");
    if (writer_) writer_->drain();  // frames may still be in the queue
    const auto frames = analysis::analyze_trajectory(path);
    for (const auto& fr : frames) {
      out_ << "frame step " << fr.step;
      if (fr.replica != 0) out_ << " replica " << fr.replica;
      out_ << "  atoms " << fr.natoms << "  diamond "
           << 100.0 * fr.fractions.diamond << "%  bc8 "
           << 100.0 * fr.fractions.bc8 << "%  disordered "
           << 100.0 * (1.0 - fr.fractions.crystalline()) << "%\n";
    }
    out_ << "analyzed " << frames.size() << " frames from " << path << "\n";
    return;
  }
  EMBER_REQUIRE(system_.has_value() || sim_, "no system to analyze");
  const md::System& sys = sim_ ? sim_->system() : *system_;
  const auto f = analysis::analyze(sys);
  out_ << "phases: diamond " << 100.0 * f.diamond << "%  bc8 "
       << 100.0 * f.bc8 << "%  disordered "
       << 100.0 * (1.0 - f.crystalline()) << "%\n";
}

}  // namespace ember::app
