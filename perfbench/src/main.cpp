// Entry point of the repository benchmark: one workload per process.
//
//   perfbench --workload <wan_flash|partition_heal|threaded_closed>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints human-readable lines prefixed with '#', then one JSON result line
// (the last line of stdout). Exits 1 if an output check failed, 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <wan_flash|partition_heal|"
               "threaded_closed> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") return usage();
    } else {
      return usage();
    }
    if (end && *end != '\0') return usage();
  }
  if (argc % 2 != 1 || !have_workload || !(args.seconds > 0.0)) return usage();
  perfbench::Result res;
  if (args.workload == "wan_flash") {
    res = perfbench::run_wan_flash(args);
  } else if (args.workload == "partition_heal") {
    res = perfbench::run_partition_heal(args);
  } else if (args.workload == "threaded_closed") {
    res = perfbench::run_threaded_closed(args);
  } else {
    return usage();
  }
  return res.correct ? 0 : 1;
}
