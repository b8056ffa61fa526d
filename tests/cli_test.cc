// End-to-end test of tools/lbsq_cli: a generate -> build -> query cycle
// on a 2k-point index, and its flag checks. A malformed or out-of-domain
// flag must end the process with exit code 2 and a message, never with a
// signal (a failed LBSQ_CHECK aborts) and never by quietly running some
// other query.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#ifndef LBSQ_CLI_BIN
#error "build must define LBSQ_CLI_BIN"
#endif

extern char** environ;

namespace {

struct RunResult {
  bool signaled = false;
  int exit_code = -1;
  std::string output;  // stdout and stderr together
};

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::string dir = ::testing::TempDir() + "lbsq_cli_test_XXXXXX";
    ASSERT_NE(mkdtemp(dir.data()), nullptr);
    dir_ = dir;
    const RunResult generated =
        Run({"generate", "--type", "uniform", "--n", "2000", "--seed", "7",
             "--out", Path("d.csv")});
    ASSERT_EQ(generated.exit_code, 0) << generated.output;
    const RunResult built =
        Run({"build", "--data", Path("d.csv"), "--index", Path("i.db")});
    ASSERT_EQ(built.exit_code, 0) << built.output;
  }

  static void TearDownTestSuite() {
    for (const char* name : {"d.csv", "i.db", "i.db.sum", "out.txt"}) {
      std::remove(Path(name).c_str());
    }
    rmdir(dir_.c_str());
  }

  static std::string Path(const std::string& name) {
    return dir_ + "/" + name;
  }

  // Runs lbsq_cli with `args` (no shell), its output captured in a file.
  static RunResult Run(const std::vector<std::string>& args) {
    RunResult result;
    std::vector<std::string> storage = {LBSQ_CLI_BIN};
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : storage) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const std::string out_path = Path("out.txt");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    pid_t pid = 0;
    const int spawned =
        posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (spawned != 0) return result;
    // A flag that slips through to `serve` would block in its event
    // loop, so a run that outlives the deadline is killed and fails.
    int status = 0;
    pid_t waited = 0;
    for (int ms = 0; ms < kDeadlineMs; ms += 10) {
      waited = waitpid(pid, &status, WNOHANG);
      if (waited != 0) break;
      usleep(10000);
    }
    if (waited == 0) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      result.output = "killed after the deadline";
      return result;
    }
    if (waited != pid) return result;
    result.signaled = WIFSIGNALED(status);
    if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
    std::ifstream in(out_path);
    std::ostringstream text;
    text << in.rdbuf();
    result.output = text.str();
    return result;
  }

  static size_t Count(const std::string& text, const std::string& needle) {
    size_t n = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  }

  static constexpr int kDeadlineMs = 60000;
  static std::string dir_;
};

std::string CliTest::dir_;

TEST_F(CliTest, QueriesRunOnABuiltIndex) {
  const std::string index = Path("i.db");

  const RunResult nn = Run({"nn", "--index", index, "--x", "0.5", "--y",
                            "0.5", "--k", "3"});
  EXPECT_EQ(nn.exit_code, 0) << nn.output;
  EXPECT_EQ(Count(nn.output, "neighbor id="), 3u) << nn.output;
  EXPECT_EQ(Count(nn.output, "validity region:"), 1u) << nn.output;

  const RunResult window = Run({"window", "--index", index, "--x", "0.5",
                                "--y", "0.5", "--hx", "0.05", "--hy", "0.05"});
  EXPECT_EQ(window.exit_code, 0) << window.output;
  EXPECT_EQ(Count(window.output, "objects in window"), 1u) << window.output;

  const RunResult range = Run({"range", "--index", index, "--x", "0.5",
                               "--y", "0.5", "--r", "0.05"});
  EXPECT_EQ(range.exit_code, 0) << range.output;
  EXPECT_EQ(Count(range.output, "objects within"), 1u) << range.output;

  const RunResult stats = Run({"stats", "--index", index});
  EXPECT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_EQ(Count(stats.output, "points:   2000"), 1u) << stats.output;
}

TEST_F(CliTest, BadFlagsExitTwoWithAMessage) {
  const std::string index = Path("i.db");
  const std::vector<std::vector<std::string>> cases = {
      // k outside [1, 1024], not a whole count, or missing.
      {"nn", "--index", index, "--x", "0.5", "--y", "0.5", "--k", "0"},
      {"nn", "--index", index, "--x", "0.5", "--y", "0.5", "--k", "5000"},
      {"nn", "--index", index, "--x", "0.5", "--y", "0.5", "--k", "-1"},
      {"nn", "--index", index, "--x", "0.5", "--y", "0.5", "--k", "3x"},
      {"nn", "--index", index, "--x", "0.5", "--y", "0.5", "--k"},
      // A point outside the universe, or no number at all.
      {"nn", "--index", index, "--x", "2", "--y", "0.5"},
      {"nn", "--index", index, "--x", "abc", "--y", "0.5"},
      {"window", "--index", index, "--x", "0.5", "--y", "-0.1", "--hx",
       "0.1", "--hy", "0.1"},
      // Non-positive or non-finite extents and radii.
      {"window", "--index", index, "--x", "0.5", "--y", "0.5", "--hx", "-1",
       "--hy", "0.1"},
      {"window", "--index", index, "--x", "0.5", "--y", "0.5", "--hx", "0.1",
       "--hy", "0"},
      {"range", "--index", index, "--x", "0.5", "--y", "0.5", "--r", "nan"},
      {"range", "--index", index, "--x", "0.5", "--y", "0.5", "--r", "inf"},
      // Ports beyond 16 bits; counts with a sign.
      {"serve", "--index", index, "--port", "70000"},
      {"ping", "--port", "70000"},
      {"generate", "--n", "-5", "--out", Path("unused.csv")},
  };
  for (const std::vector<std::string>& args : cases) {
    std::string line;
    for (const std::string& arg : args) line += arg + " ";
    const RunResult r = Run(args);
    EXPECT_FALSE(r.signaled) << line;
    EXPECT_EQ(r.exit_code, 2) << line << "\n" << r.output;
    EXPECT_FALSE(r.output.empty()) << line;
  }
}

}  // namespace
