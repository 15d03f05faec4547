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

#include <cstddef>
#include <cstdint>
#include <span>
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

// Adjoint Y work list (SnapIndex::y_groups / y_outputs / y_products /
// y_coeffs). Every atom runs the same sweep, so it is built once, with
// the coupling bounds baked in and every vanishing term dropped.
//
// A term of Z^j_{j1 j2}(ma, mb) multiplies U_j1(ma1, mb1) U_j2(ma2, mb2)
// with ma1 + ma2 = ma + s, mb1 + mb2 = mb + s, s = (j1 + j2 - j) / 2, so
// the product depends on (j1, j2, A = ma + s, B = mb + s) but not on j.
// One YGroup per (j1, j2, A, B) holds the distinct products (u1, u2) of
// those terms and its outputs, one YOutput per coupled j whose
// half-range element (j; A - s, B - s), 2*mb <= j, is live; per product
// one coefficient per output,
//     c = mult * cg(t, ma1, ma2) * cg(t, mb1, mb2),
// and the sweep adds, per output k of the group,
//     Y[e_k] += coeff[triple_k] * sum_products c[p][k] * U[u1_p] * U[u2_p]
// over the full-range Utot. For j1 = j2 the product (u1, u2) and its
// mirror (u2, u1) are equal and carry the same coefficient (the two CG
// swap signs cancel); the one with u1 > u2 is merged into the other with
// mult = 2. Elements whose half_weight is 0 get no outputs, outputs whose
// coefficients are all exact zeros are dropped, and so are products
// whose coefficients are. A group couples at most kMaxYGroupOutputs
// values of j; a (j1, j2, A, B) with more is split into several groups.
struct YGroup {
  int product_begin = 0;  // products [product_begin, product_end)
  int product_end = 0;
  int output_begin = 0;   // outputs [output_begin, output_end)
  int output_end = 0;
  int coeff_begin = 0;    // (output_end - output_begin) per product,
                          //   product-major
};
struct YOutput {
  int e = 0;       // half-range element u_half_index(j, ma, mb)
  int triple = 0;  // index into z_triples()
};
// Upper bound on a group's outputs: the sweep keeps one register
// accumulator pair per output. 2J <= 14 couples at most 8 j per (j1, j2).
inline constexpr int kMaxYGroupOutputs = 8;

struct BTriple {
  int j1 = 0;
  int j2 = 0;
  int j = 0;  // j >= j1 >= j2
};

// Largest supported 2J.
inline constexpr int kMaxTwojmax = 24;
// Largest Y work list (SnapIndex::y_list_bytes) a SNAP model file may ask
// for; SnapModel::load rejects a twojmax above it. The list grows as
// O(J^7): 0.36 MB at 2J=8, 9.1 MB at 2J=14, 61 MB at 2J=19 (the largest
// that loads), 85 MB at 2J=20, 276 MB at 2J=24. Every process that runs
// a model builds its list once, before the first step.
inline constexpr std::size_t kMaxYListBytes = std::size_t{64} << 20;
// A packed Y product holds two full-range U indices (u_total = sum of
// (j+1)^2) in 16 bits each.
static_assert((kMaxTwojmax + 1) * (kMaxTwojmax + 2) * (2 * kMaxTwojmax + 3) /
                  6 <= (1 << 16));

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
  // num_b() of SnapIndex(twojmax), counted without building the index
  // (the model loader checks a file's coefficient count with it).
  [[nodiscard]] static int count_b(int twojmax);
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

  // ---- adjoint Y work list ----
  // Groups ascend in (j1, j2, A, B); each group's products, outputs and
  // coefficients are contiguous and in group order. Product p packs
  // u1 | u2 << 16 in y_products()[p]; its coefficient for output k of
  // group g is y_coeffs()[g.coeff_begin + (p - g.product_begin) * K + k],
  // K = g.output_end - g.output_begin. At 2J=8: 1285 groups, 2221
  // outputs, 14 543 products and 31 804 coefficients (the flat list of
  // one output per (triple, element) ran 30 298 terms).
  [[nodiscard]] const std::vector<YGroup>& y_groups() const {
    return y_groups_;
  }
  [[nodiscard]] const std::vector<YOutput>& y_outputs() const {
    return y_out_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& y_products() const {
    return y_prod_;
  }
  [[nodiscard]] const std::vector<double>& y_coeffs() const {
    return y_coeff_;
  }
  // Bytes of the work list of SnapIndex(twojmax), groups, outputs,
  // products and coefficients, counted without building the index or
  // allocating the list.
  [[nodiscard]] static std::size_t y_list_bytes(int twojmax);

  // The per-triple Y coefficients of a linear model, out[t] =
  // beta[z_triples()[t].idxb] * z_triples()[t].beta_scale (beta.size()
  // must equal num_b()); out is resized to z_triples().size().
  void fold_beta(std::span<const double> beta, std::vector<double>& out) const;

 private:
  int twojmax_;
  std::vector<int> u_block_;
  int u_total_ = 0;
  std::vector<int> u_half_block_;
  int u_half_total_ = 0;
  std::vector<double> half_weight_;
  std::vector<ZTriple> z_;
  std::vector<BTriple> b_;
  std::vector<int> b_block_;  // dense [j1][j2][j] lookup
  std::vector<int> z_block_;  // dense [j1][j2][j] lookup (j1 >= j2)
  int z_total_ = 0;
  std::vector<double> cg_;
  std::vector<YGroup> y_groups_;
  std::vector<YOutput> y_out_;
  std::vector<std::uint32_t> y_prod_;
  std::vector<double> y_coeff_;
};

}  // namespace ember::snap
