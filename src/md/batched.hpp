#pragma once

// Batched multi-replica MD: many independent systems advanced in lockstep
// through a single concatenated atom list and one combined neighbor list.
//
// This is the deck's closing proof-of-concept ("GPUs are too powerful"):
// when one replica cannot saturate a device, concatenate all replicas
// into a single list of atoms, build a combined neighbor list with a
// different simulation cell per system, compute forces all at once
// (atoms from different systems don't see each other), and integrate all
// systems in lockstep. The force kernels need no changes — they already
// consume neighbor entries with explicit shift vectors and never touch
// the box.
//
// The timestep itself is the shared md::StepLoop pipeline; this driver
// only overrides the neighbor stage (per-replica wrap + combined-list
// rebuild) and the checkpoint stage (multi-replica file format).
//
// Requirements: all replicas share the same atomic mass and potential;
// barostats are not supported (per-replica boxes are fixed).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "md/step_loop.hpp"

namespace ember::md {

class BatchedSimulation : private StepStages {
 public:
  BatchedSimulation(std::vector<System> replicas,
                    std::shared_ptr<PairPotential> pot, double dt_ps,
                    double skin = 0.5, std::uint64_t seed = 12345,
                    ExecutionPolicy policy = {});

  BatchedSimulation(const BatchedSimulation&) = delete;
  BatchedSimulation& operator=(const BatchedSimulation&) = delete;

  // Threading for the combined force/neighbor/integration sweeps; the
  // default (serial) policy preserves the pre-threading trajectory.
  void set_execution_policy(ExecutionPolicy policy) {
    loop_.set_execution_policy(policy);
  }
  [[nodiscard]] const ComputeContext& context() const {
    return loop_.context();
  }

  [[nodiscard]] int num_replicas() const {
    return static_cast<int>(boxes_.size());
  }
  [[nodiscard]] const System& combined() const { return loop_.system(); }
  [[nodiscard]] const NeighborList& neighbor_list() const {
    return loop_.neighbor_list();
  }
  [[nodiscard]] Integrator& integrator() { return loop_.integrator(); }
  [[nodiscard]] long step() const { return loop_.step(); }
  [[nodiscard]] const TimerSet& timers() const { return loop_.timers(); }
  void reset_timers() { loop_.reset_timers(); }

  // Extract one replica's current state (copies).
  [[nodiscard]] System replica(int r) const;

  // Combined energy/virial over all replicas (valid after setup()/run()).
  [[nodiscard]] const EnergyVirial& energy_virial() const {
    return loop_.energy_virial();
  }

  // Kinetic energy / instantaneous temperature of one replica.
  [[nodiscard]] double kinetic_energy(int r) const;
  [[nodiscard]] double temperature(int r) const;

  void setup() { loop_.setup(); }

  // Advance every replica nsteps in lockstep; the optional callback
  // fires after each step, matching the other drivers.
  using StepCallback = std::function<void(BatchedSimulation&)>;
  void run(long nsteps, const StepCallback& callback = {});

  // Multi-replica binary checkpoint (read back via read_checkpoint_batch).
  void save_checkpoint(const std::string& path) {
    loop_.save_checkpoint(path);
  }

  // Scheduled output: one frame per replica per dump, multi-replica
  // checkpoints; all routed through the loop's io::Writer.
  void set_io_plan(IoPlan plan) { loop_.set_io_plan(std::move(plan)); }
  void set_writer(std::shared_ptr<io::Writer> writer) {
    loop_.set_writer(std::move(writer));
  }
  [[nodiscard]] io::Writer& writer() { return loop_.writer(); }

 private:
  void build_neighbors(StepLoop& loop, bool initial) override;
  void dump(StepLoop& loop, const IoPlan& plan, bool truncate) override;
  void write_checkpoint(StepLoop& loop, const std::string& path) override;
  void wrap_replicas();
  static System combine(std::vector<System>& replicas,
                        std::vector<Box>& boxes, std::vector<int>& offsets);

  std::vector<Box> boxes_;
  std::vector<int> offsets_;
  StepLoop loop_;
};

}  // namespace ember::md
