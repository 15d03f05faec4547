#pragma once

// One benchmark run of one named workload (its shape is a row of
// perfbench/workloads.txt):
//
//   1. make the input from the seed (diamond carbon, perturbed, thermal
//      velocities) — not timed;
//   2. set the workload up `setups` times through the public driver APIs
//      (model load or potential construction, rank launch, scatter, first
//      neighbor build and first force), timing each set-up;
//   3. continue the last set-up into warm-up steps and a timed window of
//      about `seconds`, time-stamping every step on rank 0;
//   4. run the correctness gate, and in a traced run the per-layer
//      readout.
//
// The result is one JSON object (run_json) that run.py reduces to the
// benchmark's metrics.

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
  std::string table;       // workloads.txt
  std::string workload;    // a row name of the table
  std::string model_path;  // SNAP model (stage replays use it too)
  std::string workdir;     // the run's temp directory goes under it
  std::uint64_t seed = 0;
  double seconds = 0.0;    // length of the timed window
  bool trace = false;
};

// Runs the workload and returns its record as one line of JSON. Throws
// ember::Error on bad input or a failure inside the program.
[[nodiscard]] std::string run_json(const Options& opt);

}  // namespace perfbench
