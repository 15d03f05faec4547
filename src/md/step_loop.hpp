#pragma once

// The one timestep pipeline. StepLoop owns the canonical LAMMPS-style
// step sequence the paper's production capability rests on:
//
//   initial_integrate                                      [Other]
//   reneighbor decision            stages.check_rebuild
//   if rebuild:
//     wrap / migrate / halo        stages.exchange          [Comm]
//     neighbor rebuild             stages.build_neighbors   [Neigh]
//   else:
//     position forwarding          stages.forward_positions [Comm]
//   force compute                  potential->compute       [Pair]
//   force reverse-comm             stages.reverse_forces    [Comm]
//   final_integrate                                         [Other]
//   scheduled output (IoPlan)      stages.dump / write_checkpoint [Dump]
//   step callback
//
// Every driver (Simulation, BatchedSimulation, ParallelSimulation)
// implements StepStages and delegates here, so the sequence, the Fig. 4
// timer taxonomy (Pair / Neigh / Comm / Other with per-thread
// attribution), and the checkpoint interface exist in exactly one place.
// The stage defaults ARE the serial single-box driver; distributed and
// batched drivers override only what differs.

#include <functional>
#include <memory>
#include <string>

#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "io/writer.hpp"
#include "md/integrate.hpp"
#include "md/potential.hpp"
#include "md/system.hpp"

namespace ember::md {

// The canonical timer taxonomy is the closed TimerCategory enum
// (common/timer.hpp). fig4_label is the single display-name mapping:
// the paper's Fig. 4 presentation names ("SNAP", "MPI Comm") are applied
// here by the bench layer, never stored.
[[nodiscard]] constexpr const char* fig4_label(TimerCategory category) {
  switch (category) {
    case TimerCategory::Pair: return "SNAP";
    case TimerCategory::Comm: return "MPI Comm";
    case TimerCategory::Neigh: return "Neigh";
    case TimerCategory::Other: return "Other";
    case TimerCategory::Dump: return "Output";
  }
  return "?";
}

class StepLoop;

// Scheduled output: what the loop's dump/checkpoint stages do each step.
// Every count is matched against the loop's cumulative step counter
// (`step % every == 0`), so plans survive across successive run calls.
struct IoPlan {
  long dump_every = 0;  // 0 = no trajectory output
  std::string dump_path;
  io::Format dump_format = io::Format::Xyz;
  // true: the first dump of this plan appends to an existing trajectory
  // (a continued run); false: it starts the file over.
  bool append = false;
  long checkpoint_every = 0;  // 0 = no scheduled checkpoints
  std::string checkpoint_path;

  [[nodiscard]] bool dumps() const { return dump_every > 0; }
  [[nodiscard]] bool checkpoints() const { return checkpoint_every > 0; }
};

// Stage hooks a driver fills in. Defaults implement the serial
// single-box pipeline: no communication, wrap-on-rebuild, ghost-free
// list builds, single-System checkpoints.
class StepStages {
 public:
  virtual ~StepStages() = default;

  // Does this driver have real communication legs? When false the Comm
  // stages are still invoked (they default to no-ops) but never open a
  // Comm timer bucket, so serial breakdowns stay Pair/Neigh/Other only.
  [[nodiscard]] virtual bool communicates() const { return false; }

  // True when the neighbor list must be rebuilt this step. Distributed
  // drivers reduce the local criterion across ranks and account the
  // reduction as Comm themselves.
  [[nodiscard]] virtual bool check_rebuild(StepLoop& loop);

  // Rebuild-step housekeeping before the list build: atom migration and
  // halo reconstruction. Timed as Comm. Also runs once at setup
  // (initial = true).
  virtual void exchange(StepLoop& loop, bool initial);

  // Neighbor-list rebuild, including any coordinate re-wrap that must
  // stay consistent with the list's shift vectors. Timed as Neigh. The
  // default wraps local positions (except at setup, where the caller's
  // coordinates are taken as-is) and builds without ghosts.
  virtual void build_neighbors(StepLoop& loop, bool initial);

  // Forward owner positions into ghost copies on non-rebuild steps. Comm.
  virtual void forward_positions(StepLoop& loop);

  // Push ghost forces back onto their owners after the force pass. Comm.
  virtual void reverse_forces(StepLoop& loop);

  // Emit one trajectory frame through the loop's io::Writer. Timed as
  // Dump. Default: snapshot the local System into a single-frame
  // Trajectory request ("step=N" comment); the parallel driver gathers on
  // root first, the batched driver submits one frame per replica.
  // truncate is true only for the first dump of a fresh (non-append) plan.
  virtual void dump(StepLoop& loop, const IoPlan& plan, bool truncate);

  // Serialize the driver's full restartable state through the loop's
  // io::Writer (checkpoint requests are tmp+renamed, so the file on disk
  // is always complete). Default: single-System EMBERCP1 request; the
  // parallel driver gathers on root, the batched driver writes the
  // multi-replica format. Does NOT drain — StepLoop::save_checkpoint and
  // the end of a run() that schedules checkpoints add the barrier.
  virtual void write_checkpoint(StepLoop& loop, const std::string& path);

  // --- checked-build invariants (DESIGN.md §11) -------------------------
  // Called by StepLoop at stage boundaries only under EMBER_CHECKED=ON;
  // the hooks themselves are always compiled so overrides stay honest in
  // every configuration. Violations throw check::InvariantViolation.

  // After the exchange stage: no stray ghosts for single-owner drivers
  // (default); the parallel driver checks global atom conservation and
  // per-leg ghost bookkeeping instead.
  virtual void verify_exchange(StepLoop& loop, bool initial);

  // After a neighbor rebuild: index bounds, self-image shifts and
  // local-local symmetry of the fresh list.
  virtual void verify_neighbors(StepLoop& loop);

  // Total (potential + kinetic) energy fed to the energy-drift tripwire.
  // Default: this driver's local sums; the parallel driver reduces across
  // ranks so every rank trips on the same global value.
  [[nodiscard]] virtual double total_energy(StepLoop& loop);
};

class StepLoop {
 public:
  StepLoop(System sys, std::shared_ptr<PairPotential> pot, double dt_ps,
           double skin, Rng rng, ExecutionPolicy policy, StepStages& stages);

  StepLoop(StepLoop&&) noexcept = default;
  StepLoop& operator=(StepLoop&&) noexcept = default;

  // A move relocates the owning driver, so its StepStages base moves with
  // it; the driver's move constructor rebinds the hooks to its new self.
  void set_stages(StepStages& stages) { stages_ = &stages; }

  void set_execution_policy(ExecutionPolicy policy) {
    ctx_ = ComputeContext(policy);
  }
  [[nodiscard]] const ComputeContext& context() const { return ctx_; }

  [[nodiscard]] System& system() { return sys_; }
  [[nodiscard]] const System& system() const { return sys_; }
  [[nodiscard]] Integrator& integrator() { return integrator_; }
  [[nodiscard]] PairPotential& potential() { return *pot_; }
  [[nodiscard]] NeighborList& neighbor_list() { return nl_; }
  [[nodiscard]] const NeighborList& neighbor_list() const { return nl_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] const EnergyVirial& energy_virial() const { return ev_; }
  [[nodiscard]] long step() const { return step_; }
  [[nodiscard]] TimerSet& timers() { return timers_; }
  [[nodiscard]] const TimerSet& timers() const { return timers_; }
  void reset_timers() { timers_.clear(); }

  // Exchange + initial list build + initial forces. Called lazily by
  // run() if needed.
  void setup();

  // Advance nsteps through the pipeline; after_step fires after every
  // completed step (drivers wrap it into their typed StepCallback). When
  // the plan schedules checkpoints, run() drains the writer before it
  // returns (timed as Dump), so the last one is in place.
  void run(long nsteps, const std::function<void()>& after_step = {});

  // Scheduled output. Setting a plan restarts its first-dump truncation
  // decision (IoPlan::append).
  void set_io_plan(IoPlan plan) {
    io_plan_ = std::move(plan);
    dump_started_ = false;
  }
  [[nodiscard]] const IoPlan& io_plan() const { return io_plan_; }

  // Route output through a specific backend (shared across drivers /
  // ranks as the caller likes). Without one, a private synchronous
  // writer is created on first use — the pre-async behavior.
  void set_writer(std::shared_ptr<io::Writer> writer) {
    writer_ = std::move(writer);
  }
  [[nodiscard]] io::Writer& writer() {
    if (!writer_) writer_ = io::make_writer(io::Mode::Sync);
    return *writer_;
  }

  // Checkpoint through the driver's stage hook (serial: plain file;
  // parallel: gather-on-root collective; batched: multi-replica file),
  // then drain the writer: when this returns the file is on disk and
  // readable — the restart barrier.
  void save_checkpoint(const std::string& path) {
    stages_->write_checkpoint(*this, path);
    writer().drain();
  }

 private:
  void compute_forces();
  void rebuild_neighbors(bool initial);
  void scheduled_output();
  // A threaded stage's per-worker busy seconds: begin resets the pool's
  // sums, add feeds them (every sweep of the stage) to the timers.
  void begin_thread_times();
  void add_thread_times(TimerCategory category);
  // Checked build only: arm the tripwire on the first completed step and
  // compare every later step's total energy against it.
  void observe_drift();
  // A comm stage's sink: the Comm bucket, or none (an untimed span) for
  // drivers that do not communicate.
  [[nodiscard]] double* comm_bucket() {
    return stages_->communicates() ? timers_.bucket(TimerCategory::Comm)
                                   : nullptr;
  }

  StepStages* stages_;
  System sys_;
  std::shared_ptr<PairPotential> pot_;
  ComputeContext ctx_;
  Integrator integrator_;
  NeighborList nl_;
  Rng rng_;
  EnergyVirial ev_;
  TimerSet timers_;
  IoPlan io_plan_;
  std::shared_ptr<io::Writer> writer_;  // lazily a SyncWriter when unset
  bool dump_started_ = false;  // has this plan written its first frames?
  long step_ = 0;
  bool ready_ = false;
  // Energy-drift tripwire (checked builds; armed when the
  // EMBER_CHECK_DRIFT_TOL environment variable sets a tolerance).
  check::DriftTripwire tripwire_;
};

}  // namespace ember::md
