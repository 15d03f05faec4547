#include "step_loop.hpp"

#include "io/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ember::md {

namespace {

// Observability handles for the pipeline, registered once per process.
// Every StepLoop (serial, batched, each parallel rank) reports into the
// same counters; the per-thread shards keep concurrent ranks cheap.
struct LoopMetrics {
  obs::Counter& steps;
  obs::Counter& rebuilds;
  obs::Histogram& step_seconds;

  static LoopMetrics& get() {
    // Step-time buckets: 10 us .. 10 s, decade + half-decade resolution —
    // wide enough for an LJ toy box and a multi-rank SNAP step alike.
    static constexpr double kBounds[] = {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
                                         1e-2, 3e-2, 1e-1, 3e-1, 1.0, 10.0};
    auto& reg = obs::Registry::global();
    static LoopMetrics m{reg.counter("md.steps"),
                         reg.counter("md.neigh.rebuilds"),
                         reg.histogram("md.step.seconds", kBounds)};
    return m;
  }
};

}  // namespace

bool StepStages::check_rebuild(StepLoop& loop) {
  return loop.neighbor_list().needs_rebuild(loop.system());
}

void StepStages::exchange(StepLoop&, bool) {}

void StepStages::build_neighbors(StepLoop& loop, bool initial) {
  System& sys = loop.system();
  if (!initial) {
    // Re-wrap positions only together with the rebuild, so the list's
    // shift vectors stay consistent with the stored coordinates. The
    // setup build takes the caller's coordinates as-is.
    for (int i = 0; i < sys.nlocal(); ++i) {
      sys.x[i] = sys.box().wrap(sys.x[i]);
    }
  }
  loop.neighbor_list().build(sys, /*use_ghosts=*/false, &loop.context());
}

void StepStages::forward_positions(StepLoop&) {}

void StepStages::reverse_forces(StepLoop&) {}

void StepStages::dump(StepLoop& loop, const IoPlan& plan, bool truncate) {
  io::Request req;
  req.kind = io::Request::Kind::Trajectory;
  req.path = plan.dump_path;
  req.format = plan.dump_format;
  req.truncate = truncate;
  req.frames.push_back(io::frame_of(loop.system(), loop.step(), /*replica=*/0,
                                    "step=" + std::to_string(loop.step())));
  // Trajectory dumps are position-only in every format: XYZ has no
  // velocity column, and keeping EMBT1 to the same information makes the
  // compressed trajectory strictly smaller. Restarts use checkpoints.
  req.frames.back().v.clear();
  loop.writer().submit(std::move(req));
}

void StepStages::write_checkpoint(StepLoop& loop, const std::string& path) {
  io::Request req;
  req.kind = io::Request::Kind::Checkpoint;
  req.path = path;
  req.frames.push_back(io::frame_of(loop.system()));
  loop.writer().submit(std::move(req));
}

void StepStages::verify_exchange(StepLoop& loop, bool /*initial*/) {
  check::check_no_ghosts(loop.system(), "exchange", loop.step());
}

void StepStages::verify_neighbors(StepLoop& loop) {
  check::check_neighbor_list(loop.neighbor_list(), loop.system(), "neigh",
                             loop.step());
}

double StepStages::total_energy(StepLoop& loop) {
  return loop.energy_virial().energy + loop.system().kinetic_energy();
}

StepLoop::StepLoop(System sys, std::shared_ptr<PairPotential> pot,
                   double dt_ps, double skin, Rng rng, ExecutionPolicy policy,
                   StepStages& stages)
    : stages_(&stages),
      sys_(std::move(sys)),
      pot_(std::move(pot)),
      ctx_(policy),
      integrator_(dt_ps),
      nl_(pot_->cutoff(), skin),
      rng_(rng) {}

void StepLoop::begin_thread_times() {
  if (!ctx_.serial()) ctx_.pool().reset_thread_seconds();
}

// Every sweep since begin_thread_times(): SNAP's force stage ends with a
// short merge_forces sweep, and the stage's balance is the sum of both.
void StepLoop::add_thread_times(TimerCategory category) {
  if (!ctx_.serial()) {
    timers_.add_thread_times(category, ctx_.pool().thread_seconds());
  }
}

void StepLoop::rebuild_neighbors(bool initial) {
  obs::ScopedSpan stage("neigh.rebuild", "neigh",
                       timers_.bucket(TimerCategory::Neigh));
  begin_thread_times();
  stages_->build_neighbors(*this, initial);
  add_thread_times(TimerCategory::Neigh);
  LoopMetrics::get().rebuilds.inc();
  EMBER_CHECK(stages_->verify_neighbors(*this));
}

void StepLoop::compute_forces() {
  obs::ScopedSpan stage("force", "pair", timers_.bucket(TimerCategory::Pair));
  begin_thread_times();
  sys_.zero_forces();
  ev_ = pot_->compute(ctx_, sys_, nl_);
  add_thread_times(TimerCategory::Pair);
  EMBER_CHECK(
      check::check_finite(sys_.f, sys_.nlocal(), "force", "force", step_));
}

// The Dump-timed stage: snapshotting + submit for async writers, the full
// write for sync ones — exactly the stall Fig.-4-style breakdowns should
// attribute to output, not to Other.
void StepLoop::scheduled_output() {
  if (io_plan_.dumps() && step_ % io_plan_.dump_every == 0) {
    obs::ScopedSpan stage("dump", "io", timers_.bucket(TimerCategory::Dump));
    stages_->dump(*this, io_plan_, !dump_started_ && !io_plan_.append);
    dump_started_ = true;
  }
  if (io_plan_.checkpoints() && step_ % io_plan_.checkpoint_every == 0) {
    obs::ScopedSpan stage("checkpoint", "io",
                         timers_.bucket(TimerCategory::Dump));
    // No drain: the writer writes "<path>.tmp" and renames it into place
    // off this thread, so the file on disk is always complete while the
    // queue or the rename is in flight; run() waits for both at its end.
    stages_->write_checkpoint(*this, io_plan_.checkpoint_path);
  }
}

void StepLoop::observe_drift() {
  if (!tripwire_.armed()) {
    const double tol = check::drift_tolerance_from_env();
    if (tol <= 0.0) return;
    tripwire_.arm(stages_->total_energy(*this), tol);
    return;
  }
  tripwire_.observe(stages_->total_energy(*this), step_);
}

void StepLoop::setup() {
  EMBER_OBS_SPAN("setup", "other");
  {
    obs::ScopedSpan stage("exchange", "comm", comm_bucket());
    stages_->exchange(*this, /*initial=*/true);
  }
  EMBER_CHECK(stages_->verify_exchange(*this, /*initial=*/true));
  rebuild_neighbors(/*initial=*/true);
  compute_forces();
  {
    obs::ScopedSpan stage("reverse", "comm", comm_bucket());
    stages_->reverse_forces(*this);
  }
  ready_ = true;
}

void StepLoop::run(long nsteps, const std::function<void()>& after_step) {
  if (!ready_) setup();
  for (long s = 0; s < nsteps; ++s) {
    double step_seconds = 0.0;
    {
      obs::ScopedSpan span("step", "step", &step_seconds, "step", step_);
      {
        obs::ScopedSpan stage("integrate.initial", "other",
                              timers_.bucket(TimerCategory::Other));
        integrator_.initial_integrate(sys_, &ctx_);
      }
      EMBER_CHECK(check::check_finite(sys_.x, sys_.nlocal(), "position",
                                      "integrate", step_));
      if (stages_->check_rebuild(*this)) {
        {
          obs::ScopedSpan stage("exchange", "comm", comm_bucket());
          stages_->exchange(*this, /*initial=*/false);
        }
        EMBER_CHECK(stages_->verify_exchange(*this, /*initial=*/false));
        rebuild_neighbors(/*initial=*/false);
      } else {
        obs::ScopedSpan stage("forward", "comm", comm_bucket());
        stages_->forward_positions(*this);
      }
      compute_forces();
      {
        obs::ScopedSpan stage("reverse", "comm", comm_bucket());
        stages_->reverse_forces(*this);
      }
      {
        obs::ScopedSpan stage("integrate.final", "other",
                              timers_.bucket(TimerCategory::Other));
        integrator_.final_integrate(sys_, ev_, rng_, &ctx_);
      }
      ++step_;
      EMBER_CHECK(observe_drift());
      scheduled_output();
    }
    LoopMetrics& m = LoopMetrics::get();
    m.steps.inc();
    m.step_seconds.record(step_seconds);
    if (after_step) after_step();
  }
  if (io_plan_.checkpoints()) {
    // End-of-run barrier: when run() returns, the last scheduled
    // checkpoint is in place, as it was when the rename ran inline.
    obs::ScopedSpan stage("checkpoint.drain", "io",
                          timers_.bucket(TimerCategory::Dump));
    writer().drain();
  }
}

}  // namespace ember::md
