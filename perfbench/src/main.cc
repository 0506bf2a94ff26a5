// perfbench: one run of one benchmark workload.
//
//   perfbench --workload fit-score|serve-tumbling|wire-router --seed N
//             --seconds S [--fault NAME] [--trace-out FILE] [--work-dir DIR]
//
// Prints one JSON line: correctness, operations attempted and failed, the
// end-to-end metrics and, in the traced binary, the per-layer metrics.
// perfbench/run.py builds this and turns the line into the benchmark's
// result format.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"
#ifdef PERFBENCH_TRACED
#include "trace/spans.h"
#endif

namespace {

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fit-score|serve-tumbling|wire-router --seed N --seconds S "
               "[--fault NAME] [--trace-out FILE] [--work-dir DIR]\n",
               problem);
  std::exit(2);
}

double ParseNumber(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    Usage((flag + " needs a number").c_str());
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage((flag + " needs a value").c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      const double seed = ParseNumber(flag, value);
      if (seed < 0) Usage("--seed must be >= 0");
      options.seed = static_cast<uint64_t>(seed);
    } else if (flag == "--seconds") {
      options.seconds = ParseNumber(flag, value);
      if (!(options.seconds >= 1.0)) Usage("--seconds must be >= 1");
    } else if (flag == "--fault") {
      if (!perfbench::ParseFault(value, &options.fault)) {
        Usage("unknown --fault");
      }
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Outcome outcome;
  if (options.workload == "fit-score") {
    perfbench::RunFitScore(options, &outcome);
  } else if (options.workload == "serve-tumbling") {
    perfbench::RunServeTumbling(options, &outcome);
  } else if (options.workload == "wire-router") {
    perfbench::RunWireRouter(options, &outcome);
  } else {
    Usage("--workload must be fit-score, serve-tumbling or wire-router");
  }
#ifdef PERFBENCH_TRACED
  if (!options.trace_out.empty() &&
      !perfbench::trace::WriteChromeTrace(options.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
    return 1;
  }
#endif
  std::printf("%s\n", outcome.ToJson().c_str());
  return 0;
}
