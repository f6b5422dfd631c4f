// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>]
//   perfbench --fingerprint
//
// Workloads: serve-minim, serve-bbb-burst, churn-100k, paper-figures.
// Prints human-readable lines, then one JSON result object as the last line
// of stdout: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1.  `python3 perfbench/run.py` builds this binary and wraps it.

#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <serve-minim|serve-bbb-burst|"
               "churn-100k|paper-figures> --seed <n> --seconds <s> --trace <0|1>"
               " [--scratch <dir>]\n       perfbench --fingerprint\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc >= 2 && std::strcmp(argv[1], "--figures-worker") == 0)
    return figures_worker(argc, argv);
  if (argc == 2 && std::strcmp(argv[1], "--fingerprint") == 0) {
    std::cout << build_fingerprint_json() << "\n";
    return 0;
  }

  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--scratch") args.scratch = value;
    else return usage();
  }
  if (argc % 2 != 1 || args.workload.empty() || args.seconds <= 0.0) return usage();

  Report report;
  try {
    if (args.workload == "serve-minim") report = run_serve(args, false);
    else if (args.workload == "serve-bbb-burst") report = run_serve(args, true);
    else if (args.workload == "churn-100k") report = run_churn(args);
    else if (args.workload == "paper-figures") report = run_figures(args);
    else return usage();
  } catch (const std::exception& error) {
    // A run that could not finish is a failed run: every operation counts.
    std::cout << "[error] " << error.what() << "\n";
    report = blank_report(args.trace);
    report.correct = false;
    report.attempted = 1;
    report.failed = 1;
    std::cout << report.json() << std::endl;
    return 1;
  }
  std::cout << report.json() << std::endl;
  return 0;
}
