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

// One group of the Y work list while it is walked (see YGroup): its
// outputs, its packed products and their coefficients, K per product.
struct YGroupDraft {
  std::vector<YOutput> outputs;
  std::vector<std::uint32_t> products;
  std::vector<double> coeffs;
};

// Walks the Y work list of `twojmax` group by group, in list order, and
// calls f(const YGroupDraft&) for each. Only the Clebsch-Gordan blocks of
// one (j1, j2) pair are held at a time. Triples are numbered as the
// SnapIndex constructor numbers them: j1, then j2 <= j1, then j ascending.
template <class F>
void for_each_y_group(int twojmax, F f) {
  std::vector<int> u_block(twojmax + 1);
  std::vector<int> u_half_block(twojmax + 1);
  for (int j = 1; j <= twojmax; ++j) {
    u_block[j] = u_block[j - 1] + j * j;
    u_half_block[j] = u_half_block[j - 1] + j * ((j - 1) / 2 + 1);
  }
  std::vector<std::vector<double>> cg;  // per coupled j of the pair
  struct Live {
    const double* cg = nullptr;  // the triple's CG block
    YOutput out;
  };
  std::vector<Live> live;
  std::vector<std::uint32_t> prod;  // every product of an (A, B) range
  std::vector<double> c;            // per product, one per live output
  std::vector<int> keep;            // live outputs with a non-zero c
  YGroupDraft g;
  int triple0 = 0;
  for (int j1 = 0; j1 <= twojmax; ++j1) {
    for (int j2 = 0; j2 <= j1; ++j2) {
      const int jlo = j1 - j2;
      const int jhi = std::min(twojmax, j1 + j2);
      const int nj = (jhi - jlo) / 2 + 1;
      cg.resize(nj);
      for (int k = 0; k < nj; ++k) {
        cg[k].clear();
        append_cg_block(j1, j2, jlo + 2 * k, cg[k]);
      }
      const bool mirror = j1 == j2;
      for (int A = 0; A <= j1 + j2; ++A) {
        for (int B = 0; B <= j1 + j2; ++B) {
          // The coupled j whose element (j; A - s, B - s) is live.
          live.clear();
          for (int k = 0; k < nj; ++k) {
            const int j = jlo + 2 * k;
            const int s = (j1 + j2 - j) / 2;
            const int ma = A - s;
            const int mb = B - s;
            if (ma < 0 || ma > j || mb < 0 || 2 * mb > j) continue;
            if (half_weight(j, ma, mb) == 0.0) continue;
            live.push_back({cg[k].data(),
                            {u_half_block[j] + ma * (j / 2 + 1) + mb,
                             triple0 + k}});
          }
          if (live.empty()) continue;
          const int nl = static_cast<int>(live.size());
          // Every product of the (A, B) coupling range, with one
          // coefficient per live output; the range does not depend on j.
          prod.clear();
          c.clear();
          for (int ma1 = std::max(0, A - j2); ma1 <= std::min(j1, A); ++ma1) {
            const int ma2 = A - ma1;
            for (int mb1 = std::max(0, B - j2); mb1 <= std::min(j1, B);
                 ++mb1) {
              const int mb2 = B - mb1;
              // For j1 = j2, u1 > u2 is (ma1, mb1) after (ma2, mb2).
              const int u1 = u_block[j1] + ma1 * (j1 + 1) + mb1;
              const int u2 = u_block[j2] + ma2 * (j2 + 1) + mb2;
              if (mirror && u1 > u2) continue;
              const double mult = mirror && u1 != u2 ? 2.0 : 1.0;
              prod.push_back(static_cast<std::uint32_t>(u1) |
                             static_cast<std::uint32_t>(u2) << 16);
              for (const Live& l : live) {
                c.push_back(mult * l.cg[ma1 * (j2 + 1) + ma2] *
                            l.cg[mb1 * (j2 + 1) + mb2]);
              }
            }
          }
          const int np = static_cast<int>(prod.size());
          // Drop outputs whose coefficients are all zero, then emit the
          // rest kMaxYGroupOutputs at a time with the products that feed
          // them.
          keep.clear();
          for (int k = 0; k < nl; ++k) {
            for (int p = 0; p < np; ++p) {
              if (c[static_cast<std::size_t>(p) * nl + k] != 0.0) {
                keep.push_back(k);
                break;
              }
            }
          }
          for (std::size_t k0 = 0; k0 < keep.size();
               k0 += kMaxYGroupOutputs) {
            const std::size_t k1 =
                std::min(keep.size(), k0 + kMaxYGroupOutputs);
            g.outputs.clear();
            g.products.clear();
            g.coeffs.clear();
            for (std::size_t k = k0; k < k1; ++k) {
              g.outputs.push_back(live[keep[k]].out);
            }
            for (int p = 0; p < np; ++p) {
              const double* cp = c.data() + static_cast<std::size_t>(p) * nl;
              bool any = false;
              for (std::size_t k = k0; k < k1; ++k) {
                any = any || cp[keep[k]] != 0.0;
              }
              if (!any) continue;
              g.products.push_back(prod[p]);
              for (std::size_t k = k0; k < k1; ++k) {
                g.coeffs.push_back(cp[keep[k]]);
              }
            }
            f(g);
          }
        }
      }
      triple0 += nj;
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

  // Y work list, one (j1, j2, A, B) group at a time.
  for_each_y_group(twojmax, [this](const YGroupDraft& d) {
    YGroup g;
    g.product_begin = static_cast<int>(y_prod_.size());
    g.product_end = g.product_begin + static_cast<int>(d.products.size());
    g.output_begin = static_cast<int>(y_out_.size());
    g.output_end = g.output_begin + static_cast<int>(d.outputs.size());
    g.coeff_begin = static_cast<int>(y_coeff_.size());
    y_groups_.push_back(g);
    y_out_.insert(y_out_.end(), d.outputs.begin(), d.outputs.end());
    y_prod_.insert(y_prod_.end(), d.products.begin(), d.products.end());
    y_coeff_.insert(y_coeff_.end(), d.coeffs.begin(), d.coeffs.end());
  });
}

std::size_t SnapIndex::y_list_bytes(int twojmax) {
  EMBER_REQUIRE(twojmax >= 0 && twojmax <= kMaxTwojmax,
                "twojmax out of supported range");
  std::size_t bytes = 0;
  for_each_y_group(twojmax, [&bytes](const YGroupDraft& d) {
    bytes += sizeof(YGroup) + d.outputs.size() * sizeof(YOutput) +
             d.products.size() * sizeof(std::uint32_t) +
             d.coeffs.size() * sizeof(double);
  });
  return bytes;
}

void SnapIndex::fold_beta(std::span<const double> beta,
                          std::vector<double>& out) const {
  EMBER_REQUIRE(static_cast<int>(beta.size()) == num_b(),
                "beta size must equal the number of bispectrum components");
  out.resize(z_.size());
  for (std::size_t t = 0; t < z_.size(); ++t) {
    out[t] = beta[z_[t].idxb] * z_[t].beta_scale;
  }
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
