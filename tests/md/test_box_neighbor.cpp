// Tests for the periodic box and neighbor-list construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"

namespace ember::md {
namespace {

TEST(Box, WrapAndMinimumImage) {
  Box box(10.0, 20.0, 30.0);
  const Vec3 w = box.wrap({-1.0, 25.0, 61.0});
  EXPECT_NEAR(w.x, 9.0, 1e-12);
  EXPECT_NEAR(w.y, 5.0, 1e-12);
  EXPECT_NEAR(w.z, 1.0, 1e-12);

  const Vec3 d = box.minimum_image({9.5, 0.0, 0.0}, {0.5, 0.0, 0.0});
  EXPECT_NEAR(d.x, 1.0, 1e-12);  // through the boundary, not -9
  EXPECT_NEAR(box.minimum_image({0, 0, 0}, {5.0, 0, 0}).x, -5.0, 1e-12);
}

TEST(Box, NonPeriodicDimension) {
  Box box(10, 10, 10, {true, true, false});
  const Vec3 w = box.wrap({11.0, 11.0, 11.0});
  EXPECT_NEAR(w.x, 1.0, 1e-12);
  EXPECT_NEAR(w.z, 11.0, 1e-12);  // z untouched
  EXPECT_NEAR(box.minimum_image({0, 0, 0}, {0, 0, 9}).z, 9.0, 1e-12);
}

// One neighbor entry as a comparable key: (j, shift).
using Key = std::tuple<int, double, double, double>;

// Reference row of atom i: every (j, shift) with j in [begin, end) and
// |x_j + shift - x_i| < rlist, enumerated over all images k*L with |k| up
// to what the atoms' spread plus rlist can reach along each periodic
// dimension. Non-periodic dimensions only take k = 0.
std::multiset<Key> reference_row(const System& sys, const Box& box, int begin,
                                 int end, int i, double rlist) {
  int span[3] = {0, 0, 0};
  for (int d = 0; d < 3; ++d) {
    if (!box.periodic(d)) continue;
    double lo = sys.x[begin][d];
    double hi = lo;
    for (int j = begin; j < end; ++j) {
      lo = std::min(lo, sys.x[j][d]);
      hi = std::max(hi, sys.x[j][d]);
    }
    span[d] = static_cast<int>(std::ceil((hi - lo + rlist) / box.length(d)));
  }
  std::multiset<Key> row;
  for (int j = begin; j < end; ++j) {
    for (int sx = -span[0]; sx <= span[0]; ++sx) {
      for (int sy = -span[1]; sy <= span[1]; ++sy) {
        for (int sz = -span[2]; sz <= span[2]; ++sz) {
          if (j == i && sx == 0 && sy == 0 && sz == 0) continue;
          const Vec3 shift{sx * box.length(0), sy * box.length(1),
                           sz * box.length(2)};
          if ((sys.x[j] + shift - sys.x[i]).norm2() < rlist * rlist) {
            row.insert({j, shift.x, shift.y, shift.z});
          }
        }
      }
    }
  }
  return row;
}

std::multiset<Key> listed_row(const NeighborList& nl, int i) {
  std::multiset<Key> row;
  for (const auto& en : nl.neighbors(i)) {
    row.insert({en.j, en.shift.x, en.shift.y, en.shift.z});
  }
  return row;
}

// Every row of [begin, end) holds exactly the reference (j, shift) set.
void expect_exact_rows(const NeighborList& nl, const System& sys,
                       const Box& box, int begin, int end) {
  const double rlist = nl.cutoff() + nl.skin();
  for (int i = begin; i < end; ++i) {
    EXPECT_EQ(listed_row(nl, i), reference_row(sys, box, begin, end, i, rlist))
        << "atom " << i;
  }
}

TEST(NeighborList, MatchesBruteForceOnRandomConfig) {
  Rng rng(1);
  Box box(14.0, 15.0, 16.0);
  System sys = random_packing(box, 120, 1.2, 12.011, rng);

  NeighborList nl(3.0, 0.5);
  nl.build(sys);
  expect_exact_rows(nl, sys, box, 0, sys.nlocal());
}

TEST(NeighborList, SmallBoxFallsBackToImages) {
  // A box only ~2 list radii wide: neighbors come through the images on
  // both sides at once.
  Rng rng(2);
  Box box(5.0, 5.0, 5.0);
  System sys = random_packing(box, 20, 1.0, 12.011, rng);
  NeighborList nl(2.4, 0.0);
  nl.build(sys);
  expect_exact_rows(nl, sys, box, 0, sys.nlocal());
}

TEST(NeighborList, ListRadiusBeyondTheBoxSeesSeveralPeriods) {
  // rlist > L: images up to two periods away, and every atom lists
  // images of itself.
  Rng rng(8);
  Box box(3.0, 3.5, 4.0);
  System sys = random_packing(box, 4, 1.0, 12.011, rng);
  NeighborList nl(5.0, 0.5);
  nl.build(sys);
  expect_exact_rows(nl, sys, box, 0, sys.nlocal());

  bool two_periods = false;
  for (int i = 0; i < sys.nlocal(); ++i) {
    bool own_image = false;
    for (const auto& en : nl.neighbors(i)) {
      own_image = own_image || en.j == i;
      two_periods = two_periods || std::abs(en.shift.x) == 2 * box.length(0);
    }
    EXPECT_TRUE(own_image) << "atom " << i;
  }
  EXPECT_TRUE(two_periods);
}

TEST(NeighborList, OpenDimensionTakesNoImages) {
  Rng rng(9);
  Box box(9.0, 9.0, 9.0, {true, true, false});
  System sys = random_packing(box, 40, 1.2, 12.011, rng);
  NeighborList nl(3.0, 0.3);
  nl.build(sys);
  expect_exact_rows(nl, sys, box, 0, sys.nlocal());
  for (int i = 0; i < sys.nlocal(); ++i) {
    for (const auto& en : nl.neighbors(i)) EXPECT_EQ(en.shift.z, 0.0);
  }
}

TEST(NeighborList, UnwrappedPositionsAtSetup) {
  // The setup build takes the caller's coordinates as they are: atoms a
  // little outside [0, L) still find every neighbor through the images.
  Rng rng(10);
  Box box(10.0, 11.0, 12.0);
  System sys = random_packing(box, 60, 1.2, 12.011, rng);
  sys.x[0] = {-0.4, 5.0, 6.0};
  sys.x[1] = {9.9, -0.2, 12.3};
  sys.x[2] = {10.3, 10.8, -0.1};
  sys.x[3] = {0.2, 11.4, 11.9};
  NeighborList nl(3.2, 0.4);
  nl.build(sys);
  expect_exact_rows(nl, sys, box, 0, sys.nlocal());
}

TEST(NeighborList, BatchedReplicasKeepTheirOwnBoxes) {
  Rng rng(11);
  const std::vector<Box> boxes = {Box(9.0, 10.0, 11.0), Box(6.0, 7.0, 5.5)};
  System a = random_packing(boxes[0], 50, 1.2, 12.011, rng);
  System b = random_packing(boxes[1], 20, 1.2, 12.011, rng);
  System combined(boxes[0], 12.011);
  for (const System* rep : {&a, &b}) {
    for (int i = 0; i < rep->nlocal(); ++i) combined.add_atom(rep->x[i]);
  }
  const std::vector<int> offsets = {0, a.nlocal(), a.nlocal() + b.nlocal()};

  NeighborList nl(3.0, 0.4);
  nl.build_batched(combined, boxes, offsets);
  for (int r = 0; r < 2; ++r) {
    expect_exact_rows(nl, combined, boxes[r], offsets[r], offsets[r + 1]);
  }
}

TEST(NeighborList, GhostBuildListsPreShiftedCopies) {
  // Parallel path: ghosts are explicit copies and nothing wraps, so the
  // reference is a plain search over all atoms with zero shift.
  Rng rng(12);
  Box box(10.0, 10.0, 10.0);
  System sys = random_packing(box, 40, 1.2, 12.011, rng);
  const int nlocal = sys.nlocal();
  for (int i = 0; i < nlocal; ++i) {
    if (sys.x[i].x < 3.5) sys.add_ghost(sys.x[i] + Vec3{10.0, 0.0, 0.0}, i);
  }
  NeighborList nl(3.0, 0.4);
  nl.build(sys, /*use_ghosts=*/true);
  ASSERT_EQ(nl.num_atoms(), nlocal);
  const double rlist = nl.cutoff() + nl.skin();
  for (int i = 0; i < nlocal; ++i) {
    std::multiset<Key> want;
    for (int j = 0; j < sys.ntotal(); ++j) {
      if (j != i && (sys.x[j] - sys.x[i]).norm2() < rlist * rlist) {
        want.insert({j, 0.0, 0.0, 0.0});
      }
    }
    EXPECT_EQ(listed_row(nl, i), want) << "atom " << i;
  }
}

TEST(NeighborList, FullListIsSymmetric) {
  Rng rng(3);
  Box box(12.0, 12.0, 12.0);
  System sys = random_packing(box, 60, 1.2, 12.011, rng);
  NeighborList nl(3.0, 0.4);
  nl.build(sys);
  // Count (i -> j) occurrences; each unordered pair must appear the same
  // number of times from both sides.
  std::multiset<std::pair<int, int>> pairs;
  for (int i = 0; i < sys.nlocal(); ++i) {
    for (const auto& en : nl.neighbors(i)) pairs.insert({i, en.j});
  }
  for (const auto& [i, j] : pairs) {
    EXPECT_EQ(pairs.count({i, j}), pairs.count({j, i}));
  }
}

TEST(NeighborList, RebuildTriggersOnDisplacement) {
  Rng rng(4);
  Box box(12, 12, 12);
  System sys = random_packing(box, 30, 1.5, 12.011, rng);
  NeighborList nl(3.0, 0.6);
  nl.build(sys);
  EXPECT_FALSE(nl.needs_rebuild(sys));
  sys.x[0] += Vec3{0.31, 0.0, 0.0};  // > skin/2
  EXPECT_TRUE(nl.needs_rebuild(sys));
}

TEST(NeighborList, DiamondCoordination) {
  LatticeSpec spec;
  spec.kind = LatticeKind::Diamond;
  spec.a = 3.567;
  spec.nx = spec.ny = spec.nz = 3;
  System sys = build_lattice(spec, 12.011);
  EXPECT_EQ(sys.nlocal(), 8 * 27);

  NeighborList nl(1.8, 0.0);  // first shell only (bond = 1.545 A)
  nl.build(sys);
  for (int i = 0; i < sys.nlocal(); ++i) {
    EXPECT_EQ(nl.neighbors(i).size(), 4u) << "atom " << i;
  }
}

TEST(NeighborList, Bc8CoordinationIsFour) {
  // BC8 is fourfold-coordinated like diamond (1 short + 3 longer bonds).
  LatticeSpec spec;
  spec.kind = LatticeKind::Bc8;
  spec.a = 4.46;  // ~carbon BC8 scale at high pressure
  spec.nx = spec.ny = spec.nz = 2;
  System sys = build_lattice(spec, 12.011);
  EXPECT_EQ(sys.nlocal(), 16 * 8);

  NeighborList nl(2.1, 0.0);
  nl.build(sys);
  for (int i = 0; i < sys.nlocal(); ++i) {
    EXPECT_EQ(nl.neighbors(i).size(), 4u) << "atom " << i;
  }
}

TEST(Lattice, CountsAndDensities) {
  for (auto [kind, per_cell] :
       {std::pair{LatticeKind::SimpleCubic, 1}, {LatticeKind::Bcc, 2},
        {LatticeKind::Fcc, 4}, {LatticeKind::Diamond, 8},
        {LatticeKind::Bc8, 16}}) {
    LatticeSpec spec;
    spec.kind = kind;
    spec.nx = 2;
    spec.ny = 3;
    spec.nz = 4;
    EXPECT_EQ(lattice_atom_count(spec), per_cell * 24);
    EXPECT_EQ(build_lattice(spec, 12.011).nlocal(), per_cell * 24);
  }
}

TEST(Lattice, RandomPackingRespectsMinimumSeparation) {
  Rng rng(5);
  Box box(10, 10, 10);
  System sys = random_packing(box, 50, 1.4, 12.011, rng);
  for (int i = 0; i < sys.nlocal(); ++i) {
    for (int j = i + 1; j < sys.nlocal(); ++j) {
      EXPECT_GE(box.minimum_image(sys.x[i], sys.x[j]).norm(), 1.4);
    }
  }
}

}  // namespace
}  // namespace ember::md
