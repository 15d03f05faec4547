// Machine probe: the hardware-thread count must be trustworthy (the old
// raw hardware_concurrency() call recorded "hardware_threads": 1 on some
// multi-core hosts) and the git SHA lookup must resolve the repo HEAD
// without shelling out.

#include <gtest/gtest.h>

#include <cctype>
#include <thread>

#include "obs/machine.hpp"

namespace ember::obs {
namespace {

TEST(ObsMachine, ProbeReportsPlausibleHardware) {
  const MachineInfo info = probe_machine();
  EXPECT_FALSE(info.system.empty());
  EXPECT_FALSE(info.arch.empty());
  EXPECT_GE(info.hardware_threads, 1);
  // Never below what the standard library itself reports.
  EXPECT_GE(static_cast<unsigned>(info.hardware_threads),
            std::thread::hardware_concurrency());
#ifdef __linux__
  // /proc/cpuinfo is always present on Linux, so the model string is too.
  EXPECT_FALSE(info.cpu_model.empty());
#endif
}

TEST(ObsMachine, GitHeadShaResolvesFromInsideTheRepo) {
  // The lookup starts in the source tree (the build tree may lie outside
  // the checkout) and walks up until it finds .git.
  const std::string sha = git_head_sha(EMBER_SOURCE_DIR);
  ASSERT_EQ(sha.size(), 40u) << "sha was '" << sha << "'";
  for (const char c : sha) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c))) << sha;
  }
}

TEST(ObsMachine, GitHeadShaIsUnknownOutsideARepo) {
  EXPECT_EQ(git_head_sha("/tmp"), "unknown");
}

}  // namespace
}  // namespace ember::obs
