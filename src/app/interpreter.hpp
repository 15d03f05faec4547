#pragma once

// ember_run input-script interpreter.
//
// A small LAMMPS-flavoured command language driving the library, so
// production protocols (like the paper's melt-quench-compress-anneal
// runs) are plain text files:
//
//   lattice diamond 3.567 repeat 3 3 3
//   mass 12.011
//   potential tersoff
//   thermalize 300 seed 42
//   timestep 0.0002
//   thermostat langevin 5000 0.05
//   barostat berendsen 12e6 0.05 2e-7
//   log every 100
//   dump every 500 traj.xyz
//   checkpoint every 1000 state.bin
//   run 2000
//   analyze
//
// Commands execute in order; `run` advances the dynamics. Unknown
// commands raise ember::Error with the line number.
//
// `run` executes on one of the three unified StepLoop drivers, selected
// by two mode commands (mutually exclusive):
//   ranks N      domain-decomposed run on N ranks (ParallelSimulation;
//                state gathers back after each run)
//   replicas N   N copies of the system advanced in lockstep
//                (BatchedSimulation; checkpoints use the batch format)
// `transport thread|socket` picks the comm backend behind a ranks run:
// thread ranks share this process, socket ranks are forked OS processes
// (log output then appears on the process stdout, written by rank 0).
// The default honours EMBER_TRANSPORT.
// Barostats only work in the default serial mode (per-rank virials and
// fixed per-replica boxes make box coupling unsound elsewhere).
//
// Output goes through the io::Writer pipeline:
//   io async|sync              pick the backend for subsequent runs (the
//                              default honours EMBER_IO; sync otherwise)
//   dump every N f [xyz|ember_traj]
//                              trajectory format defaults by extension
//                              (.embt1 -> compressed EMBT1)
//   analyze trajectory <file>  stream an EMBT1 file through the phase
//                              classifier, one summary line per frame
// `run` drains the writer before reporting, so a finished run command
// always means the files are on disk (async overlap happens inside the
// run, where it matters).

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "md/batched.hpp"
#include "md/simulation.hpp"

namespace ember::app {

class Interpreter {
 public:
  explicit Interpreter(std::ostream& out);
  ~Interpreter();

  // Execute a whole script (throws ember::Error with line info).
  void run_script(const std::string& text);
  void run_file(const std::string& path);

  // Execute a single command line (empty/comment lines are no-ops).
  void execute(const std::string& line);

  // Introspection for tests.
  [[nodiscard]] bool has_system() const { return system_.has_value(); }
  [[nodiscard]] const md::System& system() const;
  [[nodiscard]] md::Simulation* simulation() { return sim_.get(); }
  [[nodiscard]] md::BatchedSimulation* batched() { return batch_.get(); }
  [[nodiscard]] long total_steps() const { return total_steps_; }

 private:
  struct Pending;  // settings staged before the Simulation exists

  void cmd_lattice(std::istream& args);
  void cmd_random(std::istream& args);
  void cmd_mass(std::istream& args);
  void cmd_potential(std::istream& args);
  void cmd_thermalize(std::istream& args);
  void cmd_timestep(std::istream& args);
  void cmd_thermostat(std::istream& args);
  void cmd_barostat(std::istream& args);
  void cmd_log(std::istream& args);
  void cmd_io(std::istream& args);
  void cmd_dump(std::istream& args);
  void cmd_checkpoint(std::istream& args);
  void cmd_run(std::istream& args);
  void cmd_analyze(std::istream& args);
  void cmd_read_checkpoint(std::istream& args);
  void cmd_threads(std::istream& args);
  void cmd_ranks(std::istream& args);
  void cmd_transport(std::istream& args);
  void cmd_replicas(std::istream& args);
  void cmd_trace(std::istream& args);
  void cmd_metrics(std::istream& args);

  void ensure_simulation();
  // Fold any live driver's state back into system_ (mode switches and
  // the parallel run path start from a plain System).
  void reclaim_system();
  // The script-lifetime output backend (sync or async per `io`/EMBER_IO),
  // created lazily and shared by the serial/batched drivers; parallel
  // ranks build their own post-fork copies.
  [[nodiscard]] std::shared_ptr<io::Writer> writer();
  [[nodiscard]] md::IoPlan make_io_plan(bool append) const;
  void run_serial(long steps);
  void run_parallel(long steps);
  void run_batched(long steps);
  void apply_integrator_settings(md::Integrator& integrator) const;
  // Stop the session and write the Chrome trace to trace_path_.
  void flush_trace();

  std::ostream& out_;
  std::optional<md::System> system_;
  std::shared_ptr<md::PairPotential> potential_;
  // Builds a fresh potential instance; the parallel driver needs
  // rank-private potentials (per-thread caches are per-object).
  std::function<std::shared_ptr<md::PairPotential>()> potential_factory_;
  std::unique_ptr<md::Simulation> sim_;
  std::unique_ptr<md::BatchedSimulation> batch_;
  std::vector<md::System> staged_replicas_;  // from a batch checkpoint
  std::shared_ptr<io::Writer> writer_;       // lazily built; see writer()
  std::unique_ptr<Pending> pending_;
  double mass_ = 12.011;
  long total_steps_ = 0;
  int line_number_ = 0;
  std::string trace_path_;  // non-empty while a trace is recording
};

}  // namespace ember::app
