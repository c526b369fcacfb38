// perfbench: runs one workload of the Loom benchmark and prints its result.
//
//   perfbench --workload capture|investigate|live --seed N --seconds S
//             --trace 0|1 --data-dir DIR [--spans FILE]
//
// DIR is scratch space owned by the run: it is emptied first and removed at
// the end.
//
// The last line of standard output is the result object; the line before it
// carries sample counts and engine build facts. Exits 1 when a correctness
// check failed and 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "perfbench/src/harness.h"

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      opts.data_dir = value;
    } else if (flag == "--spans") {
      opts.spans_path = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opts.data_dir.empty() || !(opts.seconds > 0)) {
    std::fprintf(stderr, "perfbench: --data-dir and a positive --seconds are required\n");
    return 2;
  }
  int (*run)(const perfbench::RunOptions&) = nullptr;
  if (opts.workload == "capture") {
    run = perfbench::RunCapture;
  } else if (opts.workload == "investigate") {
    run = perfbench::RunInvestigate;
  } else if (opts.workload == "live") {
    run = perfbench::RunLive;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  // The data directory is the run's scratch space: engines leave their
  // directories behind (see DiscardLogs) and they all go here, at the end.
  perfbench::RemoveDir(opts.data_dir);
  std::error_code ec;
  std::filesystem::create_directories(opts.data_dir, ec);
  const int status = run(opts);
  perfbench::RemoveDir(opts.data_dir);
  return status;
}
