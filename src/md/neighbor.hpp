#pragma once

// Full neighbor lists with periodic shifts, found by one binned search.
//
// The list stores, for every local atom i, the indices of all atoms j with
// |r_j + shift - r_i| < cutoff (j may equal another local atom or, in
// parallel runs, a ghost). Shift vectors make minimum-image arithmetic
// unnecessary in force kernels: rij = x[j] + shift(ij) - x[i].
//
// Every build searches a list of candidates (j, shift) at x[j] + shift:
// they are binned on an open cell grid over their bounding box, and each
// owned atom scans the 27 cells around its own. In parallel runs the
// candidates are the local atoms plus the pre-shifted ghosts; in serial
// and batched runs they are the atoms plus the periodic images of them
// that can lie within cutoff + skin of one of them, as LAMMPS stores such
// images as ghosts even on one process.
//
// A skin distance is added so the list stays valid while atoms move less
// than skin/2; needs_rebuild() tracks the displacement criterion.
//
// Builds accept an optional ComputeContext: cell binning and the per-atom
// neighbor searches are then distributed over the context's thread pool
// (contiguous atom blocks into per-thread row buffers, stitched into the
// CSR arrays by a serial prefix sum + parallel copy). The emitted list is
// identical to the serial one entry for entry.

#include <functional>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "md/system.hpp"

namespace ember::md {

class ComputeContext;

class NeighborList {
 public:
  struct Entry {
    int j;       // neighbor atom index (local or ghost)
    Vec3 shift;  // periodic image shift to add to x[j]
  };

  NeighborList() = default;
  NeighborList(double cutoff, double skin) : cutoff_(cutoff), skin_(skin) {}

  [[nodiscard]] double cutoff() const { return cutoff_; }
  [[nodiscard]] double skin() const { return skin_; }

  // Rebuild the full list for all local atoms of sys. When use_ghosts is
  // true, atoms beyond nlocal are treated as pre-shifted ghost copies and
  // no periodic wrapping is applied (parallel path); otherwise neighbors
  // are found through periodic images of the local atoms (serial path).
  void build(const System& sys, bool use_ghosts = false,
             const ComputeContext* ctx = nullptr);

  // Batched build over several independent replicas laid out back to back
  // in one System: replica r occupies atoms [offsets[r], offsets[r+1])
  // and lives in its own periodic box. Atoms of different replicas never
  // appear as neighbors of each other (the deck's multi-replica lockstep
  // scheme: one combined list, one force pass, zero cross-talk).
  void build_batched(const System& combined, std::span<const Box> boxes,
                     std::span<const int> offsets,
                     const ComputeContext* ctx = nullptr);

  [[nodiscard]] bool needs_rebuild(const System& sys) const;

  // Neighbors of local atom i.
  [[nodiscard]] std::span<const Entry> neighbors(int i) const {
    const int begin = first_[i];
    return {entries_.data() + begin,
            static_cast<std::size_t>(first_[i + 1] - begin)};
  }

  [[nodiscard]] int num_atoms() const {
    return static_cast<int>(first_.size()) - 1;
  }
  [[nodiscard]] std::size_t total_pairs() const { return entries_.size(); }
  [[nodiscard]] double average_neighbors() const {
    return num_atoms() > 0 ? static_cast<double>(entries_.size()) / num_atoms()
                           : 0.0;
  }

 private:
  // Test-only backdoor: tests/check corrupts entries through this to
  // prove the checked build detects asymmetric/out-of-range lists.
  friend struct NeighborListTestAccess;

  // Per-atom neighbor search: appends the row of atom i to `out`.
  using RowSearch = std::function<void(int i, std::vector<Entry>&)>;

  // Start a build of `nlocal` empty rows; record what needs_rebuild() and
  // the neigh.* metrics read once it is done.
  void reset(int nlocal);
  void finish(const System& sys);
  // Append the rows of atoms [begin, end) from a binned search over
  // `cands`, each found at sys.x[j] + shift.
  void search(const System& sys, int begin, int end,
              const std::vector<Entry>& cands, const ComputeContext* ctx);
  // Run `search` for every atom of [begin, end) and stitch the rows into
  // first_/entries_ — serially, or over the context's pool.
  void emit_rows(int begin, int end, const ComputeContext* ctx,
                 const RowSearch& search);

  double cutoff_ = 0.0;
  double skin_ = 0.5;
  std::vector<int> first_;       // CSR offsets, size nlocal+1
  std::vector<Entry> entries_;
  std::vector<Vec3> x_at_build_;  // positions when the list was built
  Vec3 box_at_build_{};           // box lengths when the list was built
};

}  // namespace ember::md
