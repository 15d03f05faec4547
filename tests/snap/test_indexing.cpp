// Tests for the SNAP index tables: block offsets, component counts, the
// canonical-triple bookkeeping used by the adjoint accumulation, and the
// flat Y work list the atom-lane sweep runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

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

TEST(SnapIndex, YWorkListHasOneOutputPerHalfElementOfEveryTriple) {
  for (const int tj : {0, 2, 4, 8, 14}) {
    const SnapIndex idx(tj);
    const auto& out = idx.y_outputs();
    std::set<std::pair<int, int>> seen;
    std::size_t want = 0;
    for (const auto& t : idx.z_triples()) {
      want += static_cast<std::size_t>(t.j + 1) * (t.j / 2 + 1);
    }
    ASSERT_EQ(out.size(), want) << "2J=" << tj;
    int next_row = 0;
    for (const YOutput& o : out) {
      const ZTriple& t = idx.z_triples()[o.triple];
      EXPECT_GE(o.e, idx.u_half_block(t.j));
      EXPECT_LT(o.e, idx.u_half_block(t.j) + (t.j + 1) * (t.j / 2 + 1));
      EXPECT_TRUE(seen.insert({o.triple, o.e}).second)
          << "2J=" << tj << " duplicate output " << o.triple << "/" << o.e;
      // Rows are contiguous and in output order.
      EXPECT_EQ(o.row_begin, next_row);
      EXPECT_LE(o.row_begin, o.row_end);
      next_row = o.row_end;
    }
    EXPECT_EQ(next_row, static_cast<int>(idx.y_rows().size()));
  }
}

TEST(SnapIndex, YWorkListRowsAreTheNonZeroCouplingRows) {
  for (const int tj : {2, 8, 14}) {
    const SnapIndex idx(tj);
    // Trip count of the unflattened half-column sweep over non-zero rows.
    long terms_want = 0;
    for (const auto& t : idx.z_triples()) {
      const int s = (t.j1 + t.j2 - t.j) / 2;
      for (int ma = 0; ma <= t.j; ++ma) {
        for (int mb = 0; 2 * mb <= t.j; ++mb) {
          const int cols = std::min(t.j1, mb + s) -
                           std::max(0, mb + s - t.j2) + 1;
          for (int ma1 = std::max(0, ma + s - t.j2);
               ma1 <= std::min(t.j1, ma + s); ++ma1) {
            if (idx.cg(t, ma1, ma + s - ma1) != 0.0) terms_want += cols;
          }
        }
      }
    }
    long terms = 0;
    for (const YOutput& o : idx.y_outputs()) {
      const ZTriple& t = idx.z_triples()[o.triple];
      const int s = (t.j1 + t.j2 - t.j) / 2;
      const int hs = t.j / 2 + 1;
      const int ma = (o.e - idx.u_half_block(t.j)) / hs;
      const int mb = (o.e - idx.u_half_block(t.j)) % hs;
      for (int r = o.row_begin; r < o.row_end; ++r) {
        const YRow& row = idx.y_rows()[r];
        ASSERT_GT(row.n, 0);
        terms += row.n;
        const int ma1 = (row.u1 - idx.u_block(t.j1)) / (t.j1 + 1);
        const int mb1 = (row.u1 - idx.u_block(t.j1)) % (t.j1 + 1);
        const int ma2 = (row.u2 - idx.u_block(t.j2)) / (t.j2 + 1);
        const int mb2 = (row.u2 - idx.u_block(t.j2)) % (t.j2 + 1);
        EXPECT_NE(row.cg_row, 0.0);
        EXPECT_EQ(ma1 + ma2, ma + s);
        EXPECT_EQ(mb1 + mb2, mb + s);
        EXPECT_EQ(row.cg_row, idx.cg(t, ma1, ma2));
        for (int k = 0; k < row.n; ++k) {
          EXPECT_EQ(idx.aligned_cg()[row.cg_col + k],
                    idx.cg(t, mb1 + k, mb2 - k));
        }
      }
    }
    EXPECT_EQ(terms, terms_want) << "2J=" << tj;
    if (tj == 8) {
      EXPECT_EQ(idx.y_outputs().size(), 2386u);
      EXPECT_EQ(idx.y_rows().size(), 8791u);
      EXPECT_EQ(terms, 40732);
    }
  }
}

}  // namespace
}  // namespace ember::snap
