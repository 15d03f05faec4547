// Tests for the SNAP index tables: block offsets, component counts, the
// canonical-triple bookkeeping used by the adjoint accumulation, and the
// grouped Y work list the atom-lane sweep runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "snap/factorial.hpp"
#include "snap/indexing.hpp"

namespace ember::snap {
namespace {

TEST(SnapIndex, UBlockOffsets) {
  SnapIndex idx(8);
  // Block j holds (j+1)^2 entries: offsets are partial sums of squares.
  EXPECT_EQ(idx.u_block(0), 0);
  EXPECT_EQ(idx.u_block(1), 1);
  EXPECT_EQ(idx.u_block(2), 5);
  EXPECT_EQ(idx.u_block(3), 14);
  EXPECT_EQ(idx.u_total(), 285);  // sum_{j=0..8} (j+1)^2
}

TEST(SnapIndex, ComponentCountsMatchThePaper) {
  // The paper: 2J = 8 -> 55 bispectrum components, 2J = 14 -> 204.
  EXPECT_EQ(SnapIndex(8).num_b(), 55);
  EXPECT_EQ(SnapIndex(14).num_b(), 204);
  EXPECT_EQ(SnapIndex(0).num_b(), 1);
  EXPECT_EQ(SnapIndex(2).num_b(), 5);
}

TEST(SnapIndex, YListBytesCountsTheBuiltList) {
  // The loader's budget check counts the work list without building it;
  // the count must equal what the constructor builds.
  for (const int twojmax : {0, 1, 2, 5, 8, 11, 14}) {
    const SnapIndex idx(twojmax);
    EXPECT_EQ(SnapIndex::y_list_bytes(twojmax),
              idx.y_groups().size() * sizeof(YGroup) +
                  idx.y_outputs().size() * sizeof(YOutput) +
                  idx.y_products().size() * sizeof(std::uint32_t) +
                  idx.y_coeffs().size() * sizeof(double))
        << "2J=" << twojmax;
  }
}

TEST(SnapIndex, CanonicalTriplesAreOrdered) {
  SnapIndex idx(8);
  for (const auto& bt : idx.b_triples()) {
    EXPECT_LE(bt.j2, bt.j1);
    EXPECT_LE(bt.j1, bt.j);
    EXPECT_LE(bt.j, 8);
    EXPECT_GE(bt.j, bt.j1 - bt.j2);
    EXPECT_LE(bt.j, bt.j1 + bt.j2);
    EXPECT_EQ((bt.j1 + bt.j2 + bt.j) % 2, 0);
    // Round-trip through the dense lookup.
    const int l = idx.b_index(bt.j1, bt.j2, bt.j);
    EXPECT_EQ(idx.b_triples()[l].j1, bt.j1);
    EXPECT_EQ(idx.b_triples()[l].j2, bt.j2);
    EXPECT_EQ(idx.b_triples()[l].j, bt.j);
  }
}

TEST(SnapIndex, EveryCouplingTripleMapsToACanonicalB) {
  SnapIndex idx(8);
  for (const auto& t : idx.z_triples()) {
    ASSERT_GE(t.idxb, 0);
    ASSERT_LT(t.idxb, idx.num_b());
    const auto& bt = idx.b_triples()[t.idxb];
    // The canonical triple must contain the same multiset of momenta.
    int a[3] = {t.j1, t.j2, t.j};
    int b[3] = {bt.j1, bt.j2, bt.j};
    std::sort(a, a + 3);
    std::sort(b, b + 3);
    EXPECT_EQ(a[0], b[0]);
    EXPECT_EQ(a[1], b[1]);
    EXPECT_EQ(a[2], b[2]);
    EXPECT_GT(t.beta_scale, 0.0);
  }
}

TEST(SnapIndex, BetaScaleMultiplicitySumsToThree) {
  // Every canonical B has exactly three U-slot dependencies (eq. 6), so
  // summing beta_scale * (target dimension ratio correction)^-1 ... the
  // simplest invariant: for each canonical triple, the total multiplicity
  // of entries pointing at it, weighting permuted entries by
  // (j_target+1)/(j_big+1) to undo the dimension ratio, must be 3.
  SnapIndex idx(8);
  std::vector<double> mult(idx.num_b(), 0.0);
  for (const auto& t : idx.z_triples()) {
    const auto& bt = idx.b_triples()[t.idxb];
    // beta_scale already includes the (big+1)/(target+1) ratio for permuted
    // entries; undo it so each dependency slot counts as 1.
    double count = t.beta_scale;
    if (t.j < bt.j) {
      count *= static_cast<double>(t.j + 1) / static_cast<double>(bt.j + 1);
    }
    mult[t.idxb] += count;
  }
  for (int l = 0; l < idx.num_b(); ++l) {
    EXPECT_NEAR(mult[l], 3.0, 1e-12) << "triple " << l;
  }
}

TEST(SnapIndex, ZLookupFindsAllPermutations) {
  SnapIndex idx(8);
  for (const auto& bt : idx.b_triples()) {
    EXPECT_NO_THROW((void)idx.z_index(bt.j1, bt.j2, bt.j));
    EXPECT_NO_THROW((void)idx.z_index(bt.j, bt.j2, bt.j1));
    EXPECT_NO_THROW((void)idx.z_index(bt.j, bt.j1, bt.j2));
    // Argument order within the pair must not matter.
    EXPECT_EQ(idx.z_index(bt.j2, bt.j1, bt.j), idx.z_index(bt.j1, bt.j2, bt.j));
  }
}

TEST(SnapIndex, CgBlocksMatchDirectEvaluation) {
  SnapIndex idx(6);
  for (const auto& t : idx.z_triples()) {
    for (int ma1 = 0; ma1 <= t.j1; ++ma1) {
      for (int ma2 = 0; ma2 <= t.j2; ++ma2) {
        const int twom1 = 2 * ma1 - t.j1;
        const int twom2 = 2 * ma2 - t.j2;
        EXPECT_DOUBLE_EQ(
            idx.cg(t, ma1, ma2),
            clebsch_gordan(t.j1, twom1, t.j2, twom2, t.j, twom1 + twom2));
      }
    }
  }
}

// Row and column of full-range element u of block j.
std::pair<int, int> u_rowcol(const SnapIndex& idx, int j, int u) {
  return {(u - idx.u_block(j)) / (j + 1), (u - idx.u_block(j)) % (j + 1)};
}

TEST(SnapIndex, YWorkListHasOneOutputPerHalfElementOfEveryTriple) {
  for (const int tj : {0, 2, 4, 8, 14}) {
    const SnapIndex idx(tj);
    std::set<std::pair<int, int>> seen;
    int next_product = 0;
    int next_output = 0;
    int next_coeff = 0;
    for (const YGroup& g : idx.y_groups()) {
      // Groups tile the products, outputs and coefficients in order.
      ASSERT_EQ(g.product_begin, next_product) << "2J=" << tj;
      ASSERT_EQ(g.output_begin, next_output) << "2J=" << tj;
      ASSERT_EQ(g.coeff_begin, next_coeff) << "2J=" << tj;
      const int k = g.output_end - g.output_begin;
      ASSERT_GE(k, 1);
      ASSERT_LE(k, kMaxYGroupOutputs);
      ASSERT_LT(g.product_begin, g.product_end);
      next_product = g.product_end;
      next_output = g.output_end;
      next_coeff = g.coeff_begin + (g.product_end - g.product_begin) * k;
      // Every product of the group couples (j1, j2) at the same (A, B).
      const std::uint32_t p0 = idx.y_products()[g.product_begin];
      const ZTriple& t0 = idx.z_triples()[idx.y_outputs()[g.output_begin].triple];
      const auto [ra, ca] = u_rowcol(idx, t0.j1, static_cast<int>(p0 & 0xffffu));
      const auto [rb, cb] = u_rowcol(idx, t0.j2, static_cast<int>(p0 >> 16));
      for (int o = g.output_begin; o < g.output_end; ++o) {
        const YOutput& out = idx.y_outputs()[o];
        const ZTriple& t = idx.z_triples()[out.triple];
        EXPECT_EQ(t.j1, t0.j1);
        EXPECT_EQ(t.j2, t0.j2);
        // One output per (triple, half element), on a live element of the
        // triple's block, at (ma, mb) = (A - s, B - s).
        EXPECT_TRUE(seen.insert({out.triple, out.e}).second)
            << "2J=" << tj << " duplicate output " << out.triple << "/"
            << out.e;
        ASSERT_GE(out.e, idx.u_half_block(t.j));
        ASSERT_LT(out.e, idx.u_half_block(t.j) + (t.j + 1) * (t.j / 2 + 1));
        EXPECT_NE(idx.half_weights()[out.e], 0.0) << "2J=" << tj;
        const int s = (t.j1 + t.j2 - t.j) / 2;
        const int hs = t.j / 2 + 1;
        EXPECT_EQ((out.e - idx.u_half_block(t.j)) / hs + s, ra + rb);
        EXPECT_EQ((out.e - idx.u_half_block(t.j)) % hs + s, ca + cb);
      }
    }
    EXPECT_EQ(next_product, static_cast<int>(idx.y_products().size()));
    EXPECT_EQ(next_output, static_cast<int>(idx.y_outputs().size()));
    EXPECT_EQ(next_coeff, static_cast<int>(idx.y_coeffs().size()));
  }
}

TEST(SnapIndex, YWorkListTermsAreTheMergedNonZeroCouplingTerms) {
  // triple, e, u1, u2, c
  using Term = std::tuple<int, int, int, int, double>;
  for (const int tj : {2, 5, 8, 14}) {
    const SnapIndex idx(tj);
    // Straight from the CG blocks: per triple and live half element, every
    // product cg(ma1, ma2) * cg(mb1, mb2) * U[u1] * U[u2] with a non-zero
    // coefficient; for j1 = j2 the pair with u1 > u2 merged into its
    // mirror (u2, u1) with the coefficient doubled.
    std::set<Term> want;
    std::size_t unmerged = 0;
    for (int ti = 0; ti < static_cast<int>(idx.z_triples().size()); ++ti) {
      const ZTriple& t = idx.z_triples()[ti];
      const int s = (t.j1 + t.j2 - t.j) / 2;
      for (int ma = 0; ma <= t.j; ++ma) {
        for (int mb = 0; 2 * mb <= t.j; ++mb) {
          if (half_weight(t.j, ma, mb) == 0.0) continue;
          for (int ma1 = std::max(0, ma + s - t.j2);
               ma1 <= std::min(t.j1, ma + s); ++ma1) {
            for (int mb1 = std::max(0, mb + s - t.j2);
                 mb1 <= std::min(t.j1, mb + s); ++mb1) {
              const int ma2 = ma + s - ma1;
              const int mb2 = mb + s - mb1;
              const double c = idx.cg(t, ma1, ma2) * idx.cg(t, mb1, mb2);
              if (c == 0.0) continue;
              ++unmerged;
              const int u1 = idx.u_index(t.j1, ma1, mb1);
              const int u2 = idx.u_index(t.j2, ma2, mb2);
              if (t.j1 == t.j2 && u1 > u2) continue;
              const double mult = t.j1 == t.j2 && u1 != u2 ? 2.0 : 1.0;
              want.insert({ti, idx.u_half_index(t.j, ma, mb), u1, u2,
                           mult * c});
            }
          }
        }
      }
    }
    // Expand the groups: each product with each of its outputs' non-zero
    // coefficients.
    std::set<Term> got;
    std::size_t expanded = 0;
    for (const YGroup& g : idx.y_groups()) {
      const int k = g.output_end - g.output_begin;
      for (int p = g.product_begin; p < g.product_end; ++p) {
        const int u1 = static_cast<int>(idx.y_products()[p] & 0xffffu);
        const int u2 = static_cast<int>(idx.y_products()[p] >> 16);
        bool any = false;
        for (int o = 0; o < k; ++o) {
          const double c =
              idx.y_coeffs()[g.coeff_begin + (p - g.product_begin) * k + o];
          if (c == 0.0) continue;
          any = true;
          const YOutput& out = idx.y_outputs()[g.output_begin + o];
          EXPECT_TRUE(got.insert({out.triple, out.e, u1, u2, c}).second)
              << "2J=" << tj << " term listed twice";
          ++expanded;
        }
        EXPECT_TRUE(any) << "2J=" << tj << " product with no coefficient";
      }
    }
    EXPECT_EQ(got, want) << "2J=" << tj;
    EXPECT_EQ(expanded, want.size());
    if (tj == 8) {
      // 36 326 non-zero terms on live elements, 30 298 once mirrors merge
      // (the flat term list), over 14 543 distinct products.
      EXPECT_EQ(unmerged, 36326u);
      EXPECT_EQ(want.size(), 30298u);
      EXPECT_EQ(idx.y_products().size(), 14543u);
    }
  }
}

TEST(SnapIndex, YWorkListFormsEachProductOnce) {
  // Up to 2J=14 no (j1, j2, A, B) couples more than kMaxYGroupOutputs
  // values of j, so no group is split and each distinct U product appears
  // once in the whole list.
  for (const int tj : {2, 8, 14}) {
    const SnapIndex idx(tj);
    const std::set<std::uint32_t> distinct(idx.y_products().begin(),
                                           idx.y_products().end());
    EXPECT_EQ(distinct.size(), idx.y_products().size()) << "2J=" << tj;
  }
}

TEST(SnapIndex, FoldBetaScalesEachTriplesCanonicalCoefficient) {
  const SnapIndex idx(6);
  std::vector<double> beta(idx.num_b());
  for (int l = 0; l < idx.num_b(); ++l) beta[l] = 0.5 + l;
  std::vector<double> out(3, -1.0);
  idx.fold_beta(beta, out);
  ASSERT_EQ(out.size(), idx.z_triples().size());
  for (std::size_t t = 0; t < out.size(); ++t) {
    const ZTriple& z = idx.z_triples()[t];
    EXPECT_EQ(out[t], beta[z.idxb] * z.beta_scale);
  }
  beta.pop_back();
  EXPECT_THROW(idx.fold_beta(beta, out), Error);
}

TEST(SnapIndex, CountBMatchesTheBuiltIndex) {
  for (int tj = 0; tj <= 14; ++tj) {
    EXPECT_EQ(SnapIndex::count_b(tj), SnapIndex(tj).num_b()) << "2J=" << tj;
  }
}

}  // namespace
}  // namespace ember::snap
