// Fits the benchmark's SNAP carbon model: 2J=8, rcut 3.1 A (about 28
// neighbors per atom in diamond, close to the paper's ~26), trained with
// fit::Trainer against the Tersoff oracle on fit::standard_carbon_configs
// at a fixed seed, so rerunning it reproduces model/carbon_2j8.snap.
//
//   cmake --build <build> --target perfbench_fit_model
//   <build>/perfbench_fit_model perfbench/model/carbon_2j8.snap
//
// The file is written without a `kernel` line: loading it picks whatever
// SNAP kernel the library defaults to, so the benchmark always measures
// the production default.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "fit/trainer.hpp"
#include "ref/pair_tersoff.hpp"
#include "snap/snap_potential.hpp"

namespace {

constexpr std::uint64_t kFitSeed = 2021;
constexpr int kConfigs = 24;

void save_without_kernel_key(const ember::snap::SnapModel& model,
                             const std::string& path) {
  const std::string tmp = path + ".tmp";
  model.save(tmp);
  std::ifstream in(tmp);
  std::ostringstream kept;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("kernel ", 0) != 0) kept << line << '\n';
  }
  in.close();
  std::remove(tmp.c_str());
  std::ofstream out(path);
  out << "# benchmark model: 2J=8 carbon fitted to Tersoff (perfbench)\n"
      << kept.str();
  EMBER_REQUIRE(out.good(), "cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ember;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output.snap>\n", argv[0]);
    return 2;
  }
  snap::SnapParams params;
  params.twojmax = 8;
  params.rcut = 3.1;

  ref::PairTersoff oracle;
  fit::Trainer trainer(params, fit::FitOptions{200.0, 1.0, 1e-9});
  for (md::System& sys : fit::standard_carbon_configs(kConfigs, kFitSeed)) {
    trainer.add_config(std::move(sys), oracle);
  }
  const snap::SnapModel model = trainer.fit();
  const fit::FitMetrics m = trainer.evaluate(model);
  std::printf("fit: %d configs, E rmse %.4f eV/atom, F rmse %.3f eV/A "
              "(label rms %.3f)\n",
              m.n_configs, m.energy_rmse_per_atom, m.force_rmse,
              m.force_rms_label);
  save_without_kernel_key(model, argv[1]);
  std::printf("wrote %s (%zu coefficients)\n", argv[1], model.beta.size());
  return 0;
}
