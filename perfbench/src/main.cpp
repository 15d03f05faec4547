// perfbench_md: runs one workload of perfbench/workloads.txt and prints
// its record as the last line of standard output. run.py is the
// benchmark's entry point and calls it as
//
//   perfbench_md TABLE WORKLOAD MODEL WORKDIR SEED SECONDS TRACE
//
// Exit code 0 with a record, 1 on any error (message on stderr).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/error.hpp"
#include "workload.hpp"

namespace {

double to_number(const char* what, const std::string& v) {
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  EMBER_REQUIRE(!v.empty() && *end == '\0',
                std::string(what) + ": not a number: " + v);
  return out;
}

long long to_integer(const char* what, const std::string& v) {
  char* end = nullptr;
  const long long out = std::strtoll(v.c_str(), &end, 10);
  EMBER_REQUIRE(!v.empty() && *end == '\0',
                std::string(what) + ": not an integer: " + v);
  return out;
}

perfbench::Options parse(int argc, char** argv) {
  EMBER_REQUIRE(argc == 8,
                "usage: perfbench_md TABLE WORKLOAD MODEL WORKDIR SEED "
                "SECONDS TRACE");
  perfbench::Options o;
  o.table = argv[1];
  o.workload = argv[2];
  o.model_path = argv[3];
  o.workdir = argv[4];
  o.seed = static_cast<std::uint64_t>(to_integer("SEED", argv[5]));
  o.seconds = to_number("SECONDS", argv[6]);
  o.trace = to_integer("TRACE", argv[7]) != 0;
  EMBER_REQUIRE(o.seconds > 0.0, "SECONDS must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string record = perfbench::run_json(parse(argc, argv));
    std::printf("%s\n", record.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_md: %s\n", e.what());
    return 1;
  }
}
