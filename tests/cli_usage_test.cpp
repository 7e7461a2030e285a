// The mcsim binary's usage boundary: flags that no longer exist, and extra
// file arguments to a verb that takes one file, must be refused with the
// usage-error exit code (2), not silently accepted or reported as a runtime
// failure. Runs the built CLI as a child process.
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

// Every single-file verb refuses a second file instead of silently
// ignoring it. The files are real, so the extra argument is the only fault.
const std::string kScenario = std::string(MCSIM_DATA_DIR) + "/scenarios/smoke.json";
const std::string kTrace = std::string(MCSIM_DATA_DIR) + "/archive_samples/kth_style.swf";

TEST(McsimCli, RunRejectsExtraFiles) {
  EXPECT_EQ(mcsim_exit_code("run " + kScenario + " " + kScenario), kExitUsage);
}

TEST(McsimCli, RerunRejectsExtraFiles) {
  EXPECT_EQ(mcsim_exit_code("rerun " + kScenario + " " + kScenario), kExitUsage);
}

TEST(McsimCli, ReplayRejectsExtraFiles) {
  EXPECT_EQ(mcsim_exit_code("replay " + kTrace + " " + kTrace), kExitUsage);
}

TEST(McsimCli, VerifyRejectsExtraDirectories) {
  const std::string golden = std::string(MCSIM_DATA_DIR) + "/golden";
  EXPECT_EQ(mcsim_exit_code("verify " + golden + " " + golden + "/matrix"), kExitUsage);
}

TEST(McsimCli, TraceStatsRejectsExtraFiles) {
  EXPECT_EQ(mcsim_exit_code("trace-stats " + kTrace + " " + kTrace), kExitUsage);
  // Control: one file is a normal run.
  EXPECT_EQ(mcsim_exit_code("trace-stats " + kTrace), 0);
}

TEST(McsimCli, SubmitRejectsExtraFiles) {
  EXPECT_EQ(mcsim_exit_code("submit " + kScenario + " " + kScenario), kExitUsage);
}

}  // namespace
}  // namespace mcsim
