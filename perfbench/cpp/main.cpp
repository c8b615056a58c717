// perfbench: the repository benchmark program.  One process runs one
// workload:
//
//   perfbench --workload solve|serve|churn|heal --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// It prints its metrics by name with units, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  Untraced runs
// report the end-to-end metrics; traced runs the per-layer ones.  The exit
// code is 0 only when every op's output and the checker self-test passed.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Report;

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(key, "--seed") == 0) {
      args.seed = std::strtoull(value, &end, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      args.seconds = std::strtod(value, &end);
      if (!(args.seconds > 0.0)) return false;
    } else if (std::strcmp(key, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (std::strcmp(key, "--trace-out") == 0) {
      args.trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args.workload.empty();
}

void print_result(const Args& args, const Report& report) {
  const auto& specs = args.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  std::printf("selftest: %s\n", report.selftest_note.c_str());
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& message : report.ledger.messages()) {
    std::printf("FAILED: %s\n", message.c_str());
  }
  const auto value_of = [&](const char* name) {
    const auto it = report.metrics.find(name);
    const double v = it == report.metrics.end() ? 0.0 : it->second;
    return std::isfinite(v) ? v : 0.0;
  };
  for (const perfbench::MetricSpec& spec : specs) {
    std::printf("%-32s %16.6g %s\n", spec.name, value_of(spec.name),
                spec.unit);
  }
  const auto attempted = report.ledger.attempted();
  const auto failed = report.ledger.failed();
  std::printf("%-32s %16.6g %s (%llu failed of %llu)\n", "error_rate",
              perfbench::ratio(static_cast<double>(failed),
                               static_cast<double>(attempted)),
              "1", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  const bool correct = report.selftest_ok && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const perfbench::MetricSpec& spec : specs) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                spec.name, value_of(spec.name), spec.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload solve|serve|churn|heal "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  void (*run)(const Args&, Report&) = nullptr;
  if (args.workload == "solve") run = perfbench::run_solve;
  if (args.workload == "serve") run = perfbench::run_serve;
  if (args.workload == "churn") run = perfbench::run_churn;
  if (args.workload == "heal") run = perfbench::run_heal;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  // Fix glibc's mmap threshold.  Left dynamic, it rises to the largest
  // block freed so far, and a run's resident set then depends on the order
  // of its frees rather than on what it holds.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Report report;
  try {
    run(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  report.metrics["peak_rss_mb"] = perfbench::peak_rss_mb();
  print_result(args, report);
  std::fflush(stdout);
  return report.selftest_ok && report.ledger.failed() == 0 ? 0 : 1;
}
