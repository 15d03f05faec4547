#include "snap_potential.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <type_traits>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ember::snap {

namespace {
// Initial capacity of the per-atom neighbor scratch; generous for the
// paper's carbon systems (~26 neighbors at 2J=8 cutoffs) so steady state
// never reallocates.
constexpr std::size_t kNeighborReserve = 128;
}  // namespace

void SnapModel::effective_beta(std::span<const double> b,
                               std::vector<double>& out) const {
  out.assign(beta.begin(), beta.end());
  if (!alpha.empty()) {
    const std::size_t n = beta.size();
    for (std::size_t l = 0; l < n; ++l) {
      double sum = 0.0;
      const double* row = alpha.data() + l * n;
      for (std::size_t m = 0; m < n; ++m) sum += row[m] * b[m];
      out[l] += sum;
    }
  }
}

double SnapModel::site_energy(std::span<const double> b) const {
  double e = beta0;
  const std::size_t n = beta.size();
  for (std::size_t l = 0; l < n; ++l) e += beta[l] * b[l];
  if (!alpha.empty()) {
    for (std::size_t l = 0; l < n; ++l) {
      double sum = 0.0;
      const double* row = alpha.data() + l * n;
      for (std::size_t m = 0; m < n; ++m) sum += row[m] * b[m];
      e += 0.5 * b[l] * sum;
    }
  }
  return e;
}

void SnapModel::save(const std::string& path) const {
  std::ofstream os(path);
  EMBER_REQUIRE(os.good(), "cannot open " + path + " for writing");
  os.precision(17);
  os << "# ember SNAP model\n";
  os << "twojmax " << params.twojmax << '\n';
  os << "rcut " << params.rcut << '\n';
  os << "rmin0 " << params.rmin0 << '\n';
  os << "rfac0 " << params.rfac0 << '\n';
  os << "wself " << params.wself << '\n';
  os << "switch " << (params.switch_flag ? 1 : 0) << '\n';
  os << "bzero " << (params.bzero_flag ? 1 : 0) << '\n';
  os << "beta0 " << beta0 << '\n';
  os << "ncoeff " << beta.size() << '\n';
  for (const double b : beta) os << b << '\n';
  os << "nquad " << alpha.size() << '\n';
  for (const double a : alpha) os << a << '\n';
  EMBER_REQUIRE(os.good(), "model write failed");
}

namespace {
// Strict parsing for SnapModel::load: every value is one whole token, and
// every error names the file and the key.
[[noreturn]] void model_error(const std::string& path, const std::string& key,
                              const std::string& what) {
  throw Error("SNAP model " + path + ": " + key + ": " + what);
}

template <class T>
T parse_number(const std::string& tok, const std::string& path,
               const std::string& key) {
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) model_error(path, key, "'" + tok + "' is not a valid value");
  return v;
}

// The value of a `key value` line, which must hold exactly one.
std::string line_value(std::istringstream& ls, const std::string& path,
                       const std::string& key) {
  std::string v;
  std::string extra;
  if (!(ls >> v)) model_error(path, key, "missing value");
  if (ls >> extra) model_error(path, key, "unexpected '" + extra + "'");
  return v;
}

bool parse_flag(const std::string& tok, const std::string& path,
                const std::string& key) {
  const int v = parse_number<int>(tok, path, key);
  if (v != 0 && v != 1) model_error(path, key, "must be 0 or 1");
  return v == 1;
}

// The n numbers that follow a count line, whitespace separated.
void read_block(std::istream& is, std::size_t n, std::vector<double>& out,
                const std::string& path, const std::string& key) {
  out.reserve(n);
  std::string tok;
  while (out.size() < n) {
    if (!(is >> tok)) {
      model_error(path, key,
                  "block truncated after " + std::to_string(out.size()) +
                      " of " + std::to_string(n) + " values");
    }
    out.push_back(parse_number<double>(tok, path, key));
  }
}

void check_ncoeff(std::size_t n, int twojmax, const std::string& path) {
  if (twojmax < 0 || twojmax > kMaxTwojmax) {
    model_error(path, "twojmax",
                "must be in [0, " + std::to_string(kMaxTwojmax) + "]");
  }
  const auto want = static_cast<std::size_t>(SnapIndex::count_b(twojmax));
  if (n != want) {
    model_error(path, "ncoeff",
                std::to_string(n) + " coefficients, but twojmax " +
                    std::to_string(twojmax) + " has " + std::to_string(want));
  }
}

// The Y work list every process running this model builds once; the
// file's twojmax must keep it within kMaxYListBytes.
void check_index_budget(int twojmax, const std::string& path) {
  const std::size_t bytes = SnapIndex::y_list_bytes(twojmax);
  if (bytes > kMaxYListBytes) {
    model_error(path, "twojmax",
                std::to_string(twojmax) + " needs a " + std::to_string(bytes) +
                    "-byte Y work list, above the budget of " +
                    std::to_string(kMaxYListBytes) + " bytes");
  }
}
}  // namespace

SnapModel SnapModel::load(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) throw Error("cannot open SNAP model " + path);
  SnapModel m;
  const std::map<std::string, double*> reals = {
      {"rcut", &m.params.rcut},   {"rmin0", &m.params.rmin0},
      {"rfac0", &m.params.rfac0}, {"wself", &m.params.wself},
      {"beta0", &m.beta0}};
  const std::map<std::string, bool*> flags = {
      {"switch", &m.params.switch_flag}, {"bzero", &m.params.bzero_flag}};
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key) || key[0] == '#') continue;
    const std::string v = line_value(ls, path, key);
    if (const auto r = reals.find(key); r != reals.end()) {
      *r->second = parse_number<double>(v, path, key);
    } else if (const auto fl = flags.find(key); fl != flags.end()) {
      *fl->second = parse_flag(v, path, key);
    } else if (key == "twojmax") {
      m.params.twojmax = parse_number<int>(v, path, key);
    } else if (key == "ncoeff") {
      const auto n = parse_number<std::size_t>(v, path, key);
      if (!m.beta.empty()) model_error(path, key, "appears twice");
      // Checked before allocating: a corrupt count must not reach
      // reserve(). A twojmax that changes after this line fails the final
      // count check, so the index budget is checked here only.
      check_ncoeff(n, m.params.twojmax, path);
      check_index_budget(m.params.twojmax, path);
      read_block(is, n, m.beta, path, key);
    } else if (key == "nquad") {
      const auto n = parse_number<std::size_t>(v, path, key);
      const std::size_t full = m.beta.size() * m.beta.size();
      if (m.beta.empty()) model_error(path, key, "must follow ncoeff");
      if (!m.alpha.empty()) model_error(path, key, "appears twice");
      if (n != 0 && n != full) {
        model_error(path, key,
                    "must be 0 or ncoeff^2 = " + std::to_string(full));
      }
      read_block(is, n, m.alpha, path, key);
    } else {
      model_error(path, key, "unknown key");
    }
  }
  // Also catches a missing ncoeff block, and a twojmax line after it.
  check_ncoeff(m.beta.size(), m.params.twojmax, path);
  return m;
}

SnapPotential::Scratch::Scratch(const SnapModel& model)
    : bi(model.params),
      rij(bi.lane_width()),
      jlist(bi.lane_width()) {
  for (auto& r : rij) r.reserve(kNeighborReserve);
  for (auto& j : jlist) j.reserve(kNeighborReserve);
  beta_eff.reserve(model.beta.size());
  de.reserve(kNeighborReserve);
}

SnapPotential::SnapPotential(SnapModel model, Path path)
    : model_(std::move(model)), path_(path), main_(model_) {
  EMBER_REQUIRE(static_cast<int>(model_.beta.size()) == main_.bi.num_b(),
                "SNAP model has wrong number of coefficients");
  EMBER_REQUIRE(model_.alpha.empty() ||
                    model_.alpha.size() ==
                        model_.beta.size() * model_.beta.size(),
                "quadratic coefficient block must be num_b x num_b");
  if (!model_.quadratic()) main_.bi.index().fold_beta(model_.beta, y_coeff_);

  // The lane width the dispatcher picked is runtime state; a gauge
  // exposes it for roofline math.
  obs::Registry::global()
      .gauge("snap.simd.lane_width")
      .set(static_cast<double>(simd::lane_width(main_.bi.simd_isa())));
}

namespace {
// Kernel-stage counters, always on: each atom block reads the clock four
// times, and adjacent stages share their boundary reading.
struct SnapStageMetrics {
  obs::Counter& ui_seconds;
  obs::Counter& yi_seconds;
  obs::Counter& dei_seconds;
  obs::Counter& atoms;
  obs::Counter& neighbors;
  static SnapStageMetrics& get() {
    auto& r = obs::Registry::global();
    static SnapStageMetrics m{
        r.counter("snap.ui_seconds"),  r.counter("snap.yi_seconds"),
        r.counter("snap.dei_seconds"), r.counter("snap.atoms"),
        r.counter("snap.neighbors")};
    return m;
  }
};
}  // namespace

md::EnergyVirial SnapPotential::compute(const md::ComputeContext& ctx,
                                        md::System& sys,
                                        const md::NeighborList& nl) {
  const double rc2 = cutoff() * cutoff();
  const auto [abegin, aend] = ctx.atom_range(sys.nlocal());
  ctx.zero_partials();
  // Scatter kernel (dE_i/dr_j lands on the neighbor): worker 0 writes
  // sys.f, workers >= 1 write private arrays merged deterministically.
  ctx.prepare_scatter(sys.ntotal());

  // Grain 8: each chunk is whole atom blocks at every lane width.
  ctx.pool().parallel_for(abegin, aend, /*grain=*/8,
                          [&](int tid, int bb, int ee) {
    auto& s = ctx.scratch(tid);
    Scratch& sc = tid == 0 ? main_ : ctx.cache<Scratch>(tid, [&] {
      return Scratch(model_);
    });
    Bispectrum& bi = sc.bi;
    const std::span<Vec3> f = tid == 0 ? std::span<Vec3>(sys.f)
                                       : std::span<Vec3>(s.f);
    // Stage nanoseconds accumulate chunk-locally and hit the sharded
    // counters once per chunk.
    std::int64_t ui_ns = 0, yi_ns = 0, dei_ns = 0;
    long atoms = 0, neighbors = 0;
    // Linear adjoint models run Y over atom blocks, one atom per lane.
    // Quadratic models need each atom's own B before its Y, and the
    // Baseline path has no Y, so both run one atom at a time.
    const bool blocked = path_ == Path::Adjoint && !model_.quadratic();
    const int width = blocked ? bi.lane_width() : 1;

    for (int i0 = bb; i0 < ee; i0 += width) {
      const int na = std::min(width, ee - i0);
      for (int a = 0; a < na; ++a) {
        sc.rij[a].clear();
        sc.jlist[a].clear();
        for (const auto& en : nl.neighbors(i0 + a)) {
          const Vec3 d = sys.x[en.j] + en.shift - sys.x[i0 + a];
          if (d.norm2() < rc2) {
            sc.rij[a].push_back(d);
            sc.jlist[a].push_back(en.j);
          }
        }
        atoms += 1;
        neighbors += static_cast<long>(sc.rij[a].size());
      }

      const std::int64_t t0 = obs::now_ns();
      for (int a = 0; a < na; ++a) {
        // The per-atom form also fills utot(), which compute_zi reads.
        blocked ? bi.compute_ui(sc.rij[a], {}, a)
                : bi.compute_ui(sc.rij[a], {});
      }
      const std::int64_t t1 = obs::now_ns();
      if (blocked) {
        // The per-triple coefficient fold was done once at construction.
        bi.compute_yi_block(y_coeff_);
        for (int a = 0; a < na; ++a) {
          s.energy += bi.energy_from_yi(model_.beta0, model_.beta, a);
        }
      } else {
        // dE/dB = beta + alpha B depends on B itself (LAMMPS
        // quadraticflag), so B comes first.
        bi.compute_zi();
        bi.compute_bi();
        s.energy += model_.site_energy(bi.blist());
        model_.effective_beta(bi.blist(), sc.beta_eff);
        if (path_ == Path::Adjoint) bi.compute_yi(sc.beta_eff);
      }
      const std::int64_t t2 = obs::now_ns();

      for (int a = 0; a < na; ++a) {
        const int i = i0 + a;
        const std::vector<Vec3>& rij = sc.rij[a];
        const int nn = static_cast<int>(rij.size());
        sc.de.resize(nn);
        if (path_ == Path::Adjoint) {
          // U replay + adjoint dE sweep over lane-width neighbor blocks.
          bi.compute_deidrj_all(sc.de, a);
          s.flops += bi.flops_adjoint_atom(nn);
        } else {
          // dB needs the full-range dU list (compute_dbidrj contracts
          // every Z element), so the baseline path runs its own full
          // recursion per neighbor.
          bi.compute_deidrj_baseline(rij, sc.beta_eff, sc.de);
          s.flops += bi.flops_ui(nn) + bi.flops_zi() + bi.flops_bi() +
                     nn * (bi.flops_duidrj_full() + bi.flops_dbidrj());
        }
        for (int m = 0; m < nn; ++m) {
          const Vec3 de = sc.de[m];  // dE_i/dr_k
          f[sc.jlist[a][m]] -= de;
          f[i] += de;
          s.virial += -dot(rij[m], de);
        }
      }
      const std::int64_t t3 = obs::now_ns();
      ui_ns += t1 - t0;
      yi_ns += t2 - t1;
      dei_ns += t3 - t2;
    }

    SnapStageMetrics& m = SnapStageMetrics::get();
    m.ui_seconds.add(1e-9 * static_cast<double>(ui_ns));
    m.yi_seconds.add(1e-9 * static_cast<double>(yi_ns));
    m.dei_seconds.add(1e-9 * static_cast<double>(dei_ns));
    m.atoms.add(static_cast<double>(atoms));
    m.neighbors.add(static_cast<double>(neighbors));
  });

  ctx.merge_forces(sys);
  const auto red = ctx.reduce_ev();
  last_flops_ = red.flops;
  return {red.energy, red.virial};
}

}  // namespace ember::snap
