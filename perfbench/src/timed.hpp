#pragma once

// Decorators the benchmark wraps around two public layer interfaces, so
// per-layer time is measured from outside the library:
//
//   TimedPotential  around md::PairPotential::compute (the force stage of
//                   the real StepLoop, SNAP or Tersoff);
//   TimedWriter     around io::Writer::submit on the root rank. It also
//                   keeps what the correctness gate needs: a digest of
//                   every trajectory frame handed to the writer and a copy
//                   of the last checkpoint frame.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "io/frame.hpp"
#include "io/writer.hpp"
#include "md/potential.hpp"

namespace perfbench {

// FNV-1a over the bit patterns of a frame's ids and positions: equal
// digests mean bit-identical frames (up to a 2^-64 collision).
inline std::uint64_t frame_digest(const ember::io::Frame& frame) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < bytes; ++k) {
      h ^= p[k];
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t i = 0; i < frame.x.size(); ++i) {
    mix(&frame.id[i], sizeof(long));
    const double xyz[3] = {frame.x[i].x, frame.x[i].y, frame.x[i].z};
    mix(xyz, sizeof xyz);
  }
  return h;
}

class TimedPotential final : public ember::md::PairPotential {
 public:
  explicit TimedPotential(std::shared_ptr<ember::md::PairPotential> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] double cutoff() const override { return inner_->cutoff(); }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

  using ember::md::PairPotential::compute;
  ember::md::EnergyVirial compute(const ember::md::ComputeContext& ctx,
                                  ember::md::System& sys,
                                  const ember::md::NeighborList& nl) override {
    if (!enabled_) return inner_->compute(ctx, sys, nl);
    const ember::WallTimer t;
    const ember::md::EnergyVirial ev = inner_->compute(ctx, sys, nl);
    seconds_ += t.seconds();
    return ev;
  }

  // Off: a plain pass-through (the untraced chunks of a traced run).
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  std::shared_ptr<ember::md::PairPotential> inner_;
  bool enabled_ = false;
  double seconds_ = 0.0;
};

class TimedWriter final : public ember::io::Writer {
 public:
  explicit TimedWriter(std::unique_ptr<ember::io::Writer> inner)
      : inner_(std::move(inner)) {}

  void submit(ember::io::Request req) override {
    const bool dump = req.kind == ember::io::Request::Kind::Trajectory;
    if (dump) {
      for (const ember::io::Frame& f : req.frames) {
        dump_digests_.push_back(frame_digest(f));
      }
    } else if (!req.frames.empty()) {
      last_checkpoint_ = req.frames.back();
      last_checkpoint_path_ = req.path;
    }
    const ember::WallTimer t;
    inner_->submit(std::move(req));
    (dump ? dump_seconds_ : checkpoint_seconds_).push_back(t.seconds());
  }
  void drain() override { inner_->drain(); }
  [[nodiscard]] bool async() const override { return inner_->async(); }

  [[nodiscard]] const std::vector<double>& dump_seconds() const {
    return dump_seconds_;
  }
  [[nodiscard]] const std::vector<double>& checkpoint_seconds() const {
    return checkpoint_seconds_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& dump_digests() const {
    return dump_digests_;
  }
  [[nodiscard]] const ember::io::Frame& last_checkpoint() const {
    return last_checkpoint_;
  }
  [[nodiscard]] const std::string& last_checkpoint_path() const {
    return last_checkpoint_path_;
  }

 private:
  std::unique_ptr<ember::io::Writer> inner_;
  std::vector<double> dump_seconds_;
  std::vector<double> checkpoint_seconds_;
  std::vector<std::uint64_t> dump_digests_;
  ember::io::Frame last_checkpoint_;
  std::string last_checkpoint_path_;
};

}  // namespace perfbench
