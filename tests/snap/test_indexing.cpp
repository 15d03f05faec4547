// Tests for the SNAP index tables: block offsets, component counts, the
// canonical-triple bookkeeping used by the adjoint accumulation, and the
// flat Y work list the atom-lane sweep runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
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

TEST(SnapIndex, YListBytesCountsTheBuiltList) {
  // The loader's budget check counts the work list without building it;
  // the count must equal what the constructor builds.
  for (const int twojmax : {0, 1, 2, 5, 8, 11, 14}) {
    const SnapIndex idx(twojmax);
    EXPECT_EQ(SnapIndex::y_list_bytes(twojmax),
              idx.y_outputs().size() * sizeof(YOutput) +
                  idx.y_term_u().size() * sizeof(std::uint32_t) +
                  idx.y_term_c().size() * sizeof(double))
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
    int next_term = 0;
    for (const YOutput& o : out) {
      const ZTriple& t = idx.z_triples()[o.triple];
      EXPECT_GE(o.e, idx.u_half_block(t.j));
      EXPECT_LT(o.e, idx.u_half_block(t.j) + (t.j + 1) * (t.j / 2 + 1));
      EXPECT_TRUE(seen.insert({o.triple, o.e}).second)
          << "2J=" << tj << " duplicate output " << o.triple << "/" << o.e;
      // Terms are contiguous and in output order; a zero-weight element's
      // outputs carry none (the sweep still writes its Y = 0).
      EXPECT_EQ(o.term_begin, next_term);
      EXPECT_LE(o.term_begin, o.term_end);
      if (idx.half_weights()[o.e] == 0.0) {
        EXPECT_EQ(o.term_begin, o.term_end) << "2J=" << tj << " e " << o.e;
      }
      next_term = o.term_end;
    }
    EXPECT_EQ(next_term, static_cast<int>(idx.y_term_c().size()));
    EXPECT_EQ(idx.y_term_u().size(), idx.y_term_c().size());
  }
}

TEST(SnapIndex, YWorkListTermsAreTheMergedNonZeroCouplingTerms) {
  using Term = std::tuple<int, int, int, int>;  // triple, e, u1, u2
  for (const int tj : {2, 8, 14}) {
    const SnapIndex idx(tj);
    // The unflattened half-column sweep over live elements, one entry per
    // non-zero product cg(ma1, ma2) * cg(mb1, mb2) * U[u1] * U[u2].
    std::set<Term> want;
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
              if (idx.cg(t, ma1, ma2) * idx.cg(t, mb1, mb2) == 0.0) continue;
              want.insert({ti, idx.u_half_index(t.j, ma, mb),
                           idx.u_index(t.j1, ma1, mb1),
                           idx.u_index(t.j2, ma2, mb2)});
            }
          }
        }
      }
    }
    // Decode every term, check its coupling and coefficient, and expand
    // each merged mirror term back into its pair.
    std::set<Term> got;
    for (const YOutput& o : idx.y_outputs()) {
      const ZTriple& t = idx.z_triples()[o.triple];
      const int s = (t.j1 + t.j2 - t.j) / 2;
      const int hs = t.j / 2 + 1;
      const int ma = (o.e - idx.u_half_block(t.j)) / hs;
      const int mb = (o.e - idx.u_half_block(t.j)) % hs;
      for (int k = o.term_begin; k < o.term_end; ++k) {
        const int u1 = static_cast<int>(idx.y_term_u()[k] & 0xffffu);
        const int u2 = static_cast<int>(idx.y_term_u()[k] >> 16);
        ASSERT_GE(u1, idx.u_block(t.j1));
        ASSERT_LT(u1, idx.u_block(t.j1) + (t.j1 + 1) * (t.j1 + 1));
        ASSERT_GE(u2, idx.u_block(t.j2));
        ASSERT_LT(u2, idx.u_block(t.j2) + (t.j2 + 1) * (t.j2 + 1));
        const int ma1 = (u1 - idx.u_block(t.j1)) / (t.j1 + 1);
        const int mb1 = (u1 - idx.u_block(t.j1)) % (t.j1 + 1);
        const int ma2 = (u2 - idx.u_block(t.j2)) / (t.j2 + 1);
        const int mb2 = (u2 - idx.u_block(t.j2)) % (t.j2 + 1);
        EXPECT_EQ(ma1 + ma2, ma + s);
        EXPECT_EQ(mb1 + mb2, mb + s);
        const bool merged = t.j1 == t.j2 && u1 != u2;
        EXPECT_EQ(idx.y_term_c()[k], (merged ? 2.0 : 1.0) *
                                         idx.cg(t, ma1, ma2) *
                                         idx.cg(t, mb1, mb2));
        EXPECT_TRUE(got.insert({o.triple, o.e, u1, u2}).second);
        if (merged) {
          EXPECT_TRUE(got.insert({o.triple, o.e, u2, u1}).second)
              << "2J=" << tj << " mirror listed twice";
        }
      }
    }
    EXPECT_EQ(got, want) << "2J=" << tj;
    if (tj == 8) {
      EXPECT_EQ(idx.y_outputs().size(), 2386u);
      // 36 326 non-zero terms on live elements (the row-level list ran
      // 40 732, zero-weight elements and zero column factors included).
      EXPECT_EQ(want.size(), 36326u);
      EXPECT_EQ(idx.y_term_c().size(), 30298u);
    }
  }
}

TEST(SnapIndex, CountBMatchesTheBuiltIndex) {
  for (int tj = 0; tj <= 14; ++tj) {
    EXPECT_EQ(SnapIndex::count_b(tj), SnapIndex(tj).num_b()) << "2J=" << tj;
  }
}

}  // namespace
}  // namespace ember::snap
