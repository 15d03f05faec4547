#include "neighbor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "md/compute_context.hpp"
#include "obs/metrics.hpp"

namespace ember::md {

namespace {
// Threaded builds only engage for a non-serial context.
bool threaded(const ComputeContext* ctx) { return ctx != nullptr && !ctx->serial(); }

// Candidates of a periodic build: the atoms of [begin, end) with zero
// shift, then every periodic image of them that lies inside the atoms'
// extent grown by rlist (per periodic dimension, the shifts k*L that keep
// x + k*L in [lo - rlist, hi + rlist]). No other image can come within
// rlist of an atom of the range. This covers rlist > L (several periods,
// an atom listing its own image) and positions not yet wrapped into the
// box. Non-periodic dimensions get no images.
std::vector<NeighborList::Entry> periodic_candidates(const System& sys,
                                                     const Box& box, int begin,
                                                     int end, double rlist) {
  std::vector<NeighborList::Entry> cands;
  if (begin == end) return cands;
  Vec3 lo = sys.x[begin];
  Vec3 hi = lo;
  for (int i = begin; i < end; ++i) {
    cands.push_back({i, Vec3{}});
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], sys.x[i][d]);
      hi[d] = std::max(hi[d], sys.x[i][d]);
    }
  }
  // Pad like the grid so rounding in k never drops a boundary image. The
  // k bounds stay doubles: a non-finite position then yields no images
  // instead of an undefined cast to int.
  const double reach = rlist + 1e-9;
  for (int i = begin; i < end; ++i) {
    double kmin[3] = {0.0, 0.0, 0.0};
    double kmax[3] = {0.0, 0.0, 0.0};
    for (int d = 0; d < 3; ++d) {
      if (!box.periodic(d)) continue;
      kmin[d] = std::ceil((lo[d] - reach - sys.x[i][d]) / box.length(d));
      kmax[d] = std::floor((hi[d] + reach - sys.x[i][d]) / box.length(d));
    }
    for (double kz = kmin[2]; kz <= kmax[2]; ++kz) {
      for (double ky = kmin[1]; ky <= kmax[1]; ++ky) {
        for (double kx = kmin[0]; kx <= kmax[0]; ++kx) {
          if (kx == 0.0 && ky == 0.0 && kz == 0.0) continue;
          cands.push_back({i, Vec3{kx * box.length(0), ky * box.length(1),
                                   kz * box.length(2)}});
        }
      }
    }
  }
  return cands;
}
}  // namespace

void NeighborList::build(const System& sys, bool use_ghosts,
                         const ComputeContext* ctx) {
  reset(sys.nlocal());
  if (use_ghosts) {
    // Parallel path: ghosts are explicit pre-shifted copies, so every atom
    // is a candidate as it stands.
    std::vector<Entry> cands(static_cast<std::size_t>(sys.ntotal()));
    for (int j = 0; j < sys.ntotal(); ++j) cands[j].j = j;
    search(sys, 0, sys.nlocal(), cands, ctx);
  } else {
    search(sys, 0, sys.nlocal(),
           periodic_candidates(sys, sys.box(), 0, sys.nlocal(),
                               cutoff_ + skin_),
           ctx);
  }
  finish(sys);
}

void NeighborList::build_batched(const System& combined,
                                 std::span<const Box> boxes,
                                 std::span<const int> offsets,
                                 const ComputeContext* ctx) {
  EMBER_REQUIRE(offsets.size() == boxes.size() + 1 &&
                    offsets.front() == 0 &&
                    offsets.back() == combined.nlocal(),
                "batched offsets must tile the combined system");
  reset(combined.nlocal());
  for (std::size_t r = 0; r < boxes.size(); ++r) {
    search(combined, offsets[r], offsets[r + 1],
           periodic_candidates(combined, boxes[r], offsets[r], offsets[r + 1],
                               cutoff_ + skin_),
           ctx);
  }
  finish(combined);
}

void NeighborList::reset(int nlocal) {
  EMBER_REQUIRE(cutoff_ > 0.0, "neighbor list cutoff not set");
  first_.assign(nlocal + 1, 0);
  entries_.clear();
}

void NeighborList::finish(const System& sys) {
  x_at_build_.assign(sys.x.begin(), sys.x.begin() + sys.nlocal());
  box_at_build_ = sys.box().lengths();

  static obs::Counter& builds = obs::Registry::global().counter("neigh.builds");
  static obs::Gauge& pairs = obs::Registry::global().gauge("neigh.pairs");
  builds.inc();
  pairs.set(static_cast<double>(entries_.size()));
}

bool NeighborList::needs_rebuild(const System& sys) const {
  if (static_cast<int>(x_at_build_.size()) != sys.nlocal()) return true;
  // A barostat changes the box: every stored shift is invalid.
  const Vec3 db = sys.box().lengths() - box_at_build_;
  if (db.norm2() != 0.0) return true;
  const double limit2 = 0.25 * skin_ * skin_;
  for (int i = 0; i < sys.nlocal(); ++i) {
    // Use minimum image: positions may have been rewrapped since build.
    const Vec3 d = sys.box().minimum_image(x_at_build_[i], sys.x[i]);
    if (d.norm2() > limit2) return true;
  }
  return false;
}

void NeighborList::emit_rows(int begin, int end, const ComputeContext* ctx,
                             const RowSearch& search) {
  if (!threaded(ctx)) {
    // Serial: append rows directly in atom order.
    std::vector<Entry> row;
    for (int i = begin; i < end; ++i) {
      row.clear();
      search(i, row);
      entries_.insert(entries_.end(), row.begin(), row.end());
      first_[i + 1] = static_cast<int>(entries_.size());
    }
    return;
  }

  // Threaded: each worker searches one contiguous atom block into a
  // private buffer (parallel_blocks partitions deterministically from
  // (range, nthreads) alone), then a serial prefix sum sizes the CSR
  // arrays and the same partition copies the buffers into place. The
  // resulting list is identical to the serial one entry for entry.
  const int nth = ctx->nthreads();
  std::vector<std::vector<Entry>> bufs(nth);
  std::vector<int> rowlen(end - begin, 0);
  ctx->pool().parallel_blocks(begin, end, [&](int tid, int b, int e) {
    auto& buf = bufs[tid];
    buf.clear();
    std::vector<Entry> row;
    for (int i = b; i < e; ++i) {
      row.clear();
      search(i, row);
      rowlen[i - begin] = static_cast<int>(row.size());
      buf.insert(buf.end(), row.begin(), row.end());
    }
  });
  for (int i = begin; i < end; ++i) {
    first_[i + 1] = first_[i] + rowlen[i - begin];
  }
  entries_.resize(static_cast<std::size_t>(first_[end]));
  ctx->pool().parallel_blocks(begin, end, [&](int tid, int b, int e) {
    if (b >= e) return;
    std::copy(bufs[tid].begin(), bufs[tid].end(),
              entries_.begin() + first_[b]);
  });
}

void NeighborList::search(const System& sys, int begin, int end,
                          const std::vector<Entry>& cands,
                          const ComputeContext* ctx) {
  if (begin == end) return;  // no owned atoms: their rows stay empty
  const double rlist = cutoff_ + skin_;
  const double r2 = rlist * rlist;
  const int n = static_cast<int>(cands.size());

  // Open grid over the candidates' bounding box; cells are at least rlist
  // wide, so the 27 cells around an atom hold all of its neighbors.
  std::vector<Vec3> pos(cands.size());
  for (int k = 0; k < n; ++k) pos[k] = sys.x[cands[k].j] + cands[k].shift;
  Vec3 lo = pos[0];
  Vec3 hi = pos[0];
  for (const Vec3& p : pos) {
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  const Vec3 origin = lo - Vec3{1e-9, 1e-9, 1e-9};
  const Vec3 extent = hi - lo + Vec3{2e-9, 2e-9, 2e-9};

  int nc[3];
  for (int d = 0; d < 3; ++d) {
    nc[d] = std::max(1, static_cast<int>(std::floor(extent[d] / rlist)));
  }
  const auto cell_of = [&](const Vec3& r, int out[3]) {
    for (int d = 0; d < 3; ++d) {
      const int c = static_cast<int>((r[d] - origin[d]) / extent[d] * nc[d]);
      out[d] = std::clamp(c, 0, nc[d] - 1);
    }
  };

  // Bucket candidates into cells (counting sort). Assigning cell indices
  // is the FP-heavy part of binning and parallelizes over candidates; the
  // histogram + scatter stay serial (write conflicts). The scatter copies
  // positions into cell order, so the scan below reads them contiguously.
  const int ncells = nc[0] * nc[1] * nc[2];
  std::vector<int> count(ncells + 1, 0);
  std::vector<int> cell_idx(n);
  const auto assign_cells = [&](int /*tid*/, int b, int e) {
    for (int k = b; k < e; ++k) {
      int c[3];
      cell_of(pos[k], c);
      cell_idx[k] = (c[2] * nc[1] + c[1]) * nc[0] + c[0];
    }
  };
  if (threaded(ctx)) {
    ctx->pool().parallel_for(0, n, 4096, assign_cells);
  } else {
    assign_cells(0, 0, n);
  }
  for (int k = 0; k < n; ++k) ++count[cell_idx[k] + 1];
  for (int c = 0; c < ncells; ++c) count[c + 1] += count[c];
  std::vector<int> order(n);
  std::vector<Vec3> sorted(cands.size());
  {
    std::vector<int> cursor(count.begin(), count.end() - 1);
    for (int k = 0; k < n; ++k) {
      const int slot = cursor[cell_idx[k]]++;
      order[slot] = k;
      sorted[slot] = pos[k];
    }
  }

  emit_rows(begin, end, ctx, [&](int i, std::vector<Entry>& out) {
    int ci[3];
    cell_of(sys.x[i], ci);
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int cx = ci[0] + dx;
          const int cy = ci[1] + dy;
          const int cz = ci[2] + dz;
          if (cx < 0 || cx >= nc[0] || cy < 0 || cy >= nc[1] || cz < 0 ||
              cz >= nc[2]) {
            continue;
          }
          const int cell = (cz * nc[1] + cy) * nc[0] + cx;
          for (int s = count[cell]; s < count[cell + 1]; ++s) {
            if ((sorted[s] - sys.x[i]).norm2() >= r2) continue;
            const Entry& c = cands[order[s]];
            if (c.j != i || c.shift.norm2() != 0.0) out.push_back(c);
          }
        }
      }
    }
  });
}

}  // namespace ember::md
