#include "indexing.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <mutex>

#include "factorial.hpp"

namespace ember::snap {

namespace {

// Clebsch-Gordan block of triple (j1, j2, j): entry ma1 * (j2+1) + ma2.
void append_cg_block(int j1, int j2, int j, std::vector<double>& out) {
  for (int ma1 = 0; ma1 <= j1; ++ma1) {
    const int twom1 = 2 * ma1 - j1;
    for (int ma2 = 0; ma2 <= j2; ++ma2) {
      const int twom2 = 2 * ma2 - j2;
      out.push_back(clebsch_gordan(j1, twom1, j2, twom2, j, twom1 + twom2));
    }
  }
}

// The kept terms of Y output (t; ma, mb), in list order, as
// f(u1, u2, c): the coupling range of ma1 and, per row, of mb1, less the
// j1 = j2 mirror terms (merged, see YOutput) and zero coefficients. cg
// points at the triple's Clebsch-Gordan block; u_block at the full-range
// U block offsets.
template <class F>
void for_each_y_term(const ZTriple& t, int ma, int mb, const double* cg,
                     const int* u_block, F f) {
  const int s = (t.j1 + t.j2 - t.j) / 2;
  const bool mirror = t.j1 == t.j2;
  for (int ma1 = std::max(0, ma + s - t.j2); ma1 <= std::min(t.j1, ma + s);
       ++ma1) {
    const int ma2 = ma + s - ma1;
    for (int mb1 = std::max(0, mb + s - t.j2); mb1 <= std::min(t.j1, mb + s);
         ++mb1) {
      const int mb2 = mb + s - mb1;
      // For j1 = j2, u1 > u2 is (ma1, mb1) after (ma2, mb2).
      const int u1 = u_block[t.j1] + ma1 * (t.j1 + 1) + mb1;
      const int u2 = u_block[t.j2] + ma2 * (t.j2 + 1) + mb2;
      if (mirror && u1 > u2) continue;
      const double mult = mirror && u1 != u2 ? 2.0 : 1.0;
      const double c = mult * cg[ma1 * (t.j2 + 1) + ma2] *
                       cg[mb1 * (t.j2 + 1) + mb2];
      if (c == 0.0) continue;
      f(u1, u2, c);
    }
  }
}

}  // namespace

SnapIndex::SnapIndex(int twojmax) : twojmax_(twojmax) {
  EMBER_REQUIRE(twojmax >= 0 && twojmax <= kMaxTwojmax,
                "twojmax out of supported range");

  // U blocks.
  u_block_.resize(twojmax + 1);
  int off = 0;
  for (int j = 0; j <= twojmax; ++j) {
    u_block_[j] = off;
    off += (j + 1) * (j + 1);
  }
  u_total_ = off;

  // Half-range U blocks (columns 2*mb <= j) and their contraction weights.
  u_half_block_.resize(twojmax + 1);
  off = 0;
  for (int j = 0; j <= twojmax; ++j) {
    u_half_block_[j] = off;
    off += (j + 1) * (j / 2 + 1);
  }
  u_half_total_ = off;
  half_weight_.resize(u_half_total_);
  for (int j = 0; j <= twojmax; ++j) {
    for (int ma = 0; ma <= j; ++ma) {
      for (int mb = 0; mb <= j / 2; ++mb) {
        half_weight_[u_half_index(j, ma, mb)] = half_weight(j, ma, mb);
      }
    }
  }

  // Canonical bispectrum triples: j >= j1 >= j2, paper's enumeration
  // 0 <= 2j2 <= 2j1 <= 2j <= 2J. NB(2J=8) = 55, NB(2J=14) = 204.
  const int n = twojmax + 1;
  b_block_.assign(static_cast<std::size_t>(n) * n * n, -1);
  for (int j1 = 0; j1 <= twojmax; ++j1) {
    for (int j2 = 0; j2 <= j1; ++j2) {
      for (int j = j1 - j2; j <= std::min(twojmax, j1 + j2); j += 2) {
        if (j < j1) continue;
        b_block_[(static_cast<std::size_t>(j1) * n + j2) * n + j] =
            static_cast<int>(b_.size());
        b_.push_back({j1, j2, j});
      }
    }
  }

  // Full coupling list (j1 >= j2, all product ranks), with the canonical-B
  // mapping and multiplicity/normalization factors used by compute_yi.
  // The factors follow from the chain rule over the three U-slots of each
  // canonical B component (paper eq. 6); permuted slots acquire the
  // representation-dimension ratio (2j_big+1)/(2j_target+1).
  for (int j1 = 0; j1 <= twojmax; ++j1) {
    for (int j2 = 0; j2 <= j1; ++j2) {
      for (int j = j1 - j2; j <= std::min(twojmax, j1 + j2); j += 2) {
        ZTriple t;
        t.j1 = j1;
        t.j2 = j2;
        t.j = j;
        if (j >= j1) {
          t.idxb = b_index(j1, j2, j);
          if (j1 == j) {
            t.beta_scale = (j2 == j) ? 3.0 : 2.0;
          } else {
            t.beta_scale = 1.0;
          }
        } else if (j >= j2) {
          t.idxb = b_index(j, j2, j1);
          const double ratio = static_cast<double>(j1 + 1) / (j + 1);
          t.beta_scale = (j2 == j) ? 2.0 * ratio : ratio;
        } else {
          t.idxb = b_index(j2, j, j1);
          t.beta_scale = static_cast<double>(j1 + 1) / (j + 1);
        }
        EMBER_REQUIRE(t.idxb >= 0, "coupling triple has no canonical B");
        t.idxz_u = z_total_;
        z_total_ += (j + 1) * (j + 1);
        if (z_block_.empty()) {
          z_block_.assign(static_cast<std::size_t>(n) * n * n, -1);
        }
        z_block_[(static_cast<std::size_t>(j1) * n + j2) * n + j] =
            static_cast<int>(z_.size());
        z_.push_back(t);
      }
    }
  }

  // Clebsch-Gordan blocks, one per coupling triple.
  for (auto& t : z_) {
    t.idxcg = static_cast<int>(cg_.size());
    append_cg_block(t.j1, t.j2, t.j, cg_);
  }

  // Y work list over the half column range 2*mb <= j, in element order
  // (j, ma, mb) with triples ascending per element. Zero-weight elements
  // get no terms.
  for (int j = 0; j <= twojmax; ++j) {
    for (int ma = 0; ma <= j; ++ma) {
      for (int mb = 0; 2 * mb <= j; ++mb) {
        const bool live = half_weight(j, ma, mb) != 0.0;
        for (int ti = 0; ti < static_cast<int>(z_.size()); ++ti) {
          const ZTriple& t = z_[ti];
          if (t.j != j) continue;
          YOutput o{u_half_index(j, ma, mb), ti,
                    static_cast<int>(y_term_c_.size()), 0};
          if (live) {
            for_each_y_term(t, ma, mb, cg_.data() + t.idxcg, u_block_.data(),
                            [this](int u1, int u2, double c) {
                              y_term_u_.push_back(
                                  static_cast<std::uint32_t>(u1) |
                                  static_cast<std::uint32_t>(u2) << 16);
                              y_term_c_.push_back(c);
                            });
          }
          o.term_end = static_cast<int>(y_term_c_.size());
          y_out_.push_back(o);
        }
      }
    }
  }
}

std::size_t SnapIndex::y_list_bytes(int twojmax) {
  EMBER_REQUIRE(twojmax >= 0 && twojmax <= kMaxTwojmax,
                "twojmax out of supported range");
  std::vector<int> u_block(twojmax + 1);
  for (int j = 1; j <= twojmax; ++j) u_block[j] = u_block[j - 1] + j * j;
  // Same outputs and terms as the constructor's sweep, triple by triple;
  // only one triple's Clebsch-Gordan block is held at a time.
  std::size_t outputs = 0;
  std::size_t terms = 0;
  std::vector<double> cg;
  for (int j1 = 0; j1 <= twojmax; ++j1) {
    for (int j2 = 0; j2 <= j1; ++j2) {
      for (int j = j1 - j2; j <= std::min(twojmax, j1 + j2); j += 2) {
        ZTriple t;
        t.j1 = j1;
        t.j2 = j2;
        t.j = j;
        cg.clear();
        append_cg_block(j1, j2, j, cg);
        for (int ma = 0; ma <= j; ++ma) {
          for (int mb = 0; 2 * mb <= j; ++mb) {
            ++outputs;
            if (half_weight(j, ma, mb) == 0.0) continue;
            for_each_y_term(t, ma, mb, cg.data(), u_block.data(),
                            [&terms](int, int, double) { ++terms; });
          }
        }
      }
    }
  }
  return outputs * sizeof(YOutput) +
         terms * (sizeof(std::uint32_t) + sizeof(double));
}

int SnapIndex::count_b(int twojmax) {
  int n = 0;
  for (int j1 = 0; j1 <= twojmax; ++j1) {
    for (int j2 = 0; j2 <= j1; ++j2) {
      for (int j = j1 - j2; j <= std::min(twojmax, j1 + j2); j += 2) {
        n += j >= j1 ? 1 : 0;
      }
    }
  }
  return n;
}

const SnapIndex& SnapIndex::shared(int twojmax) {
  EMBER_REQUIRE(twojmax >= 0 && twojmax <= kMaxTwojmax,
                "twojmax out of supported range");
  static std::array<std::once_flag, kMaxTwojmax + 1> once;
  static std::array<std::unique_ptr<const SnapIndex>, kMaxTwojmax + 1> index;
  std::call_once(once[twojmax], [twojmax] {
    index[twojmax] = std::make_unique<const SnapIndex>(twojmax);
  });
  return *index[twojmax];
}

int SnapIndex::z_index(int ja, int jb, int j) const {
  if (ja < jb) std::swap(ja, jb);
  const int n = twojmax_ + 1;
  const int idx = z_block_[(static_cast<std::size_t>(ja) * n + jb) * n + j];
  EMBER_REQUIRE(idx >= 0, "no coupling triple for the requested momenta");
  return idx;
}

int SnapIndex::b_index(int j1, int j2, int j) const {
  const int n = twojmax_ + 1;
  EMBER_REQUIRE(j1 <= twojmax_ && j2 <= j1 && j >= j1 && j <= twojmax_,
                "b_index arguments not canonical");
  const int idx = b_block_[(static_cast<std::size_t>(j1) * n + j2) * n + j];
  EMBER_REQUIRE(idx >= 0, "triple is not a valid bispectrum component");
  return idx;
}

}  // namespace ember::snap
