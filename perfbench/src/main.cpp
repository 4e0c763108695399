// perfbench: bgqhf's end-to-end benchmark.
//
//   perfbench --workload <train_ce|train_wide|serve_open> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// a separate traced pass that prints the roll-up and the per-layer metrics.
// Both run the workload's correctness checks. Human-readable lines come
// first; the last stdout line is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "obs/trace.h"
#include "util/config.h"
#include "workloads.h"

extern char** environ;

namespace {

using perfbench::Args;

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <name> --seed <n> --seconds "
                   "<s> --trace <0|1>\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad argument: %s\n", e.what());
    return 2;
  }

  // Library defaults read BGQHF_* knobs (collectives, kernels, precision,
  // compression, serving policy, tracing...). A timed number from a
  // different program is not comparable, so refuse to measure under any.
  int knobs = 0;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "BGQHF_", 6) == 0) {
      std::fprintf(stderr, "perfbench: environment knob set: %s\n", *e);
      ++knobs;
    }
  }
  if (knobs > 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure with %d BGQHF_* variable(s) "
                 "set; unset them\n",
                 knobs);
    return 3;
  }
  // Pin every knob to its default for the rest of the process, and tracing
  // to this run's mode.
  bgqhf::util::RuntimeEnv::set_for_tests(bgqhf::util::RuntimeEnv{});
  bgqhf::obs::set_tracing(false);

  perfbench::MetricSheet sheet;
  perfbench::Outcome outcome;
  try {
    if (const perfbench::TrainSpec* spec =
            perfbench::find_train_spec(args.workload)) {
      perfbench::run_train(*spec, args, sheet, outcome);
    } else if (args.workload == "serve_open") {
      perfbench::run_serve_open(args, sheet, outcome);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& note : outcome.notes) {
    std::printf("  CHECK FAILED: %s\n", note.c_str());
  }
  std::printf("%s metrics (%s):\n%s", args.workload.c_str(),
              args.trace ? "traced pass" : "untraced", sheet.report().c_str());
  const auto& defs = args.trace ? perfbench::per_layer_metrics()
                                : perfbench::end_to_end_metrics();
  for (const perfbench::MetricDef& d : defs) {
    if (!sheet.has(d.name)) {
      // A failed run stops before measuring everything; report no result.
      std::fprintf(stderr, "perfbench: %s produced no value for %s\n",
                   args.workload.c_str(), d.name);
      return 1;
    }
  }
  std::printf("%s\n",
              sheet
                  .result_json(defs, outcome.checks_passed,
                               outcome.attempted, outcome.failed)
                  .c_str());
  std::fflush(stdout);
  return outcome.checks_passed ? 0 : 1;
}
