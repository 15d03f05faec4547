#pragma once

// Index bookkeeping for the flattened SNAP data structures.
//
// All angular momenta are doubled integers (j means twoj below). The U
// arrays for j = 0..twojmax are stored back to back; block j holds the
// (j+1)x(j+1) matrix row-major: element (j; ma, mb) lives at
//     u_block[j] + ma * (j+1) + mb
// with ma = j + 2m' (row) and mb = j + 2m (column), i.e. ma,mb = 0..j.
//
// The coupling list enumerates every triple (j1, j2, j) with
//     j2 <= j1 <= twojmax,   |j1-j2| <= j <= min(twojmax, j1+j2),  step 2,
// which covers both the canonical bispectrum triples (those with j >= j1,
// the paper's 0 <= 2j2 <= 2j1 <= 2j <= 2J enumeration) and the permuted
// triples needed by the adjoint accumulation (eq. 6 of the paper). Each
// entry records which canonical B component it contributes to and with what
// multiplicity/normalization.

#include <vector>

#include "common/error.hpp"

namespace ember::snap {

struct ZTriple {
  int j1 = 0;  // first coupled momentum (doubled), j1 >= j2
  int j2 = 0;  // second coupled momentum (doubled)
  int j = 0;   // product momentum (doubled)
  int idxb = -1;       // canonical B component this triple contributes to
  double beta_scale = 1.0;  // multiplicity x normalization for compute_yi
  int idxcg = 0;       // offset of this triple's Clebsch-Gordan block
  int idxz_u = 0;      // offset of this triple's slot in the z value array
  int idxcga = 0;      // offset of this triple's aligned CG block
};

// Contraction weight of element (j; ma, mb) under the half-column symmetry
// scheme U[j, ma, mb] = (-1)^(ma+mb) conj(U[j, j-ma, j-mb]): strictly
// left-half columns stand in for their mirror (weight 2); on the middle
// column of even j the rows above the diagonal carry the mirror (2), the
// diagonal element is its own mirror (1), and the rows below are redundant
// (0). Shared by the TestSNAP V5..V7 variants and the production lane
// kernel.
constexpr double half_weight(int j, int ma, int mb) {
  if (2 * mb < j) return 2.0;
  if (2 * ma < j) return 2.0;
  if (2 * ma == j) return 1.0;
  return 0.0;
}

// Adjoint Y work list (SnapIndex::y_outputs / y_rows). Every atom runs
// the same sweep, so it is flattened once, with the coupling bounds baked
// in and the zero-CG rows dropped.
//
// One YOutput per (coupling triple, half-range element (ma, mb) of its
// product block, 2*mb <= j):
//     Y[e] += coeff[triple] * sum_{r in [row_begin, row_end)} row_r
struct YOutput {
  int e = 0;       // half-range element u_half_index(j, ma, mb)
  int triple = 0;  // index into z_triples()
  int row_begin = 0;
  int row_end = 0;
};

// One YRow per non-zero Clebsch-Gordan row factor of an output:
//     row = cg_row * sum_{k < n} cg[cg_col + k] * U[u1 + k] * U[u2 - k]
// over the full-range Utot. u1 walks row ma1 of block j1 forward from
// column mb1_lo, u2 walks row ma2 of block j2 backward (mb2 = mb + s - mb1),
// and cg[cg_col..] are the column factors in the aligned CG table.
struct YRow {
  int u1 = 0;
  int u2 = 0;
  int n = 0;
  int cg_col = 0;
  double cg_row = 0.0;
};

struct BTriple {
  int j1 = 0;
  int j2 = 0;
  int j = 0;  // j >= j1 >= j2
};

// Largest supported 2J.
inline constexpr int kMaxTwojmax = 24;

class SnapIndex {
 public:
  explicit SnapIndex(int twojmax);

  // The process-wide immutable index for `twojmax`, built on first use
  // (thread-safe) and shared read-only by every Bispectrum.
  [[nodiscard]] static const SnapIndex& shared(int twojmax);

  [[nodiscard]] int twojmax() const { return twojmax_; }

  // ---- U storage ----
  [[nodiscard]] int u_block(int j) const { return u_block_[j]; }
  [[nodiscard]] int u_total() const { return u_total_; }
  [[nodiscard]] int u_index(int j, int ma, int mb) const {
    return u_block_[j] + ma * (j + 1) + mb;
  }

  // ---- half-range U storage (adjoint lane kernel) ----
  // Block j keeps only the columns with 2*mb <= j: (j+1) rows of
  // (j/2 + 1) columns, row-major. The dropped columns are recovered via
  // U[j, ma, mb] = (-1)^(ma+mb) conj(U[j, j-ma, j-mb]).
  [[nodiscard]] int u_half_block(int j) const { return u_half_block_[j]; }
  // Raw block-offset table (twojmax + 1 entries) for kernels that take
  // plain pointers (src/snap/simd/).
  [[nodiscard]] const int* u_half_block_data() const {
    return u_half_block_.data();
  }
  [[nodiscard]] int u_half_total() const { return u_half_total_; }
  [[nodiscard]] int u_half_index(int j, int ma, int mb) const {
    return u_half_block_[j] + ma * (j / 2 + 1) + mb;
  }
  // half_weight(j, ma, mb) flattened over the half layout; contractions
  // over the half range multiply by this table to restore the full sum.
  [[nodiscard]] const std::vector<double>& half_weights() const {
    return half_weight_;
  }

  // ---- coupling triples ----
  [[nodiscard]] const std::vector<ZTriple>& z_triples() const { return z_; }
  [[nodiscard]] const std::vector<BTriple>& b_triples() const { return b_; }
  [[nodiscard]] int num_b() const { return static_cast<int>(b_.size()); }
  // index of canonical triple (j1, j2, j) with j >= j1 >= j2
  [[nodiscard]] int b_index(int j1, int j2, int j) const;
  // total size of the per-triple z matrices ((j+1)^2 each), baseline path
  [[nodiscard]] int z_total() const { return z_total_; }
  // index into z_triples() of the entry coupling {ja, jb} -> rank j
  // (argument order of the pair does not matter)
  [[nodiscard]] int z_index(int ja, int jb, int j) const;

  // ---- Clebsch-Gordan blocks ----
  // Block for triple t holds C^{j m}_{j1 m1 j2 m2} for all (m1, m2), flat
  // index (ma1 * (j2+1) + ma2) with ma1 = (j1+2m1)/... = 0..j1 etc.;
  // m = m1 + m2 implied.
  [[nodiscard]] double cg(const ZTriple& t, int ma1, int ma2) const {
    return cg_[t.idxcg + ma1 * (t.j2 + 1) + ma2];
  }

  // Aligned CG blocks: the z-element sums walk cg(t, m1, m + s - m1) with
  // m fixed, which strides the raw (m1, m2) block by j2 per step. The
  // aligned block re-lays each triple as (j+1) contiguous rows of (j1+1)
  // entries, row m at t.idxcga + m * (j1+1):
  //     row m [m1] = C^{j m}_{j1 m1 j2 (m+s-m1)},
  // zero outside the coupling range, so the column factors of a Y row
  // (YRow::cg_col) are unit-stride.
  [[nodiscard]] const std::vector<double>& aligned_cg() const {
    return cg_aligned_;
  }

  // ---- adjoint Y work list ----
  // Outputs grouped by element e (ascending), triples ascending within a
  // group, so a sweep finishes each Y element in registers; each output's
  // rows are contiguous in y_rows(). At 2J=8: 2386 outputs, 8791 rows.
  [[nodiscard]] const std::vector<YOutput>& y_outputs() const {
    return y_out_;
  }
  [[nodiscard]] const std::vector<YRow>& y_rows() const { return y_rows_; }

 private:
  int twojmax_;
  std::vector<int> u_block_;
  int u_total_ = 0;
  std::vector<int> u_half_block_;
  int u_half_total_ = 0;
  std::vector<double> half_weight_;
  std::vector<double> cg_aligned_;
  std::vector<ZTriple> z_;
  std::vector<BTriple> b_;
  std::vector<int> b_block_;  // dense [j1][j2][j] lookup
  std::vector<int> z_block_;  // dense [j1][j2][j] lookup (j1 >= j2)
  int z_total_ = 0;
  std::vector<double> cg_;
  std::vector<YOutput> y_out_;
  std::vector<YRow> y_rows_;
};

}  // namespace ember::snap
