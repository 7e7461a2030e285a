// The mcsim binary's usage boundary: flags that no longer exist must be
// refused with the usage-error exit code (2), not silently accepted or
// reported as a runtime failure. Runs the built CLI as a child process.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <string>

#include "util/cli.hpp"

namespace mcsim {
namespace {

int mcsim_exit_code(const std::string& args) {
  const std::string command = std::string(MCSIM_CLI) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  EXPECT_TRUE(WIFEXITED(status)) << command;
  return WEXITSTATUS(status);
}

TEST(McsimCli, RemovedEngineAndJobsFlagsAreUsageErrors) {
  EXPECT_EQ(mcsim_exit_code("point --engine=parallel"), kExitUsage);
  EXPECT_EQ(mcsim_exit_code("point --jobs=2"), kExitUsage);
  // Control: --jobs still parses where it sizes the exp::Runner fan-out.
  EXPECT_EQ(mcsim_exit_code("sweep --jobs=2 --help"), 0);
}

}  // namespace
}  // namespace mcsim
