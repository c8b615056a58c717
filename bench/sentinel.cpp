// Bench regression sentinel — the cross-PR perf-trajectory gate.
//
// Every BENCH_*.json artifact is regenerated and gated *in isolation*, so
// a slow drift (or a clean 2x simulator regression landing together with a
// retuned gate) would pass CI.  The sentinel closes that hole with a
// committed, append-only history file:
//
//   BENCH_HISTORY.jsonl — one JSON object per line:
//     {"schema_version": 1, "suite": "fault", "quick": false,
//      "host": "...", "rev": "...", "metrics": {"sim_ns_p50": ..., ...}}
//
// `sentinel append` reduces the current BENCH_{gossip,fault,engine,scale,
// churn,models,dist}.json files into one summary row per suite and appends them
// to the history.  `sentinel check` reduces the same files and compares
// each metric against its trailing matching rows (same suite and quick
// flag; wall-clock metrics additionally require the same host, so a
// laptop's history never gates a CI runner) with per-metric tolerances:
//
//   * time metrics   (kind "ns"/"ms")  — fail when current exceeds the
//     baseline by more than the tolerance (default +25%, e.g. sim_ns_p50);
//   * ratio metrics  (kind "speedup")  — fail when current falls below the
//     baseline by more than the tolerance (default -30%, e.g. the engine
//     warm speedup);
//   * exact metrics  (round and message counts) — deterministic under the
//     fixed bench seeds; any increase over the *smallest* trailing value
//     fails.  Time and ratio metrics gate against the upper median.
//
// The smallest value, not the median, is what lets an exact gate fail in
// CI: CI appends the fresh row before it checks, so with one committed row
// a median baseline would be the grown count itself.
//
// Metrics with no matching baseline are reported and skipped — the first
// run on a new host gates nothing and seeds the history instead.  CI runs
// `append` then `check` (self-baseline: the freshly appended row makes the
// wall-clock comparisons live even on a throwaway runner), then re-runs
// `check --inflate sim_ns_p50=1.5` and asserts the nonzero exit — the
// injected-regression smoke for the sentinel itself.
//
//   sentinel append|check [--history FILE] [--dir DIR] [--rev REV]
//                         [--window N] [--inflate METRIC=FACTOR]...
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "support/json_read.h"

namespace {

using mg::support::JsonValue;
using mg::support::parse_json;

enum class MetricKind {
  kTime,     ///< wall-clock cost: higher is worse, host-scoped baseline
  kSpeedup,  ///< ratio: lower is worse, host-independent
  kExact,    ///< deterministic count: any increase is a regression
};

struct Metric {
  std::string name;
  double value = 0.0;
  MetricKind kind = MetricKind::kTime;
  double tolerance = 0.25;  ///< relative slack in the worse direction
};

struct SuiteRow {
  std::string suite;
  bool quick = false;
  std::vector<Metric> metrics;
};

double sum_over_rows(const JsonValue& rows, const std::string& field) {
  double total = 0.0;
  for (const JsonValue& row : rows.array) {
    if (row.has(field)) total += row.at(field).as_number();
  }
  return total;
}

double mean_over_rows(const JsonValue& rows, const std::string& field) {
  if (rows.array.empty()) return 0.0;
  return sum_over_rows(rows, field) /
         static_cast<double>(rows.array.size());
}

/// Reduces one parsed BENCH_*.json document to its sentinel metrics.  The
/// field names here mirror the emitting bench — keep in sync when a bench
/// schema changes (the schema_version field is the tripwire).
std::optional<SuiteRow> reduce(const JsonValue& doc) {
  SuiteRow out;
  out.suite = doc.at("suite").as_string();
  out.quick = doc.has("quick") && doc.at("quick").as_bool();
  auto time = [&](const std::string& name, double v, double tol = 0.25) {
    out.metrics.push_back({name, v, MetricKind::kTime, tol});
  };
  auto speedup = [&](const std::string& name, double v, double tol = 0.30) {
    out.metrics.push_back({name, v, MetricKind::kSpeedup, tol});
  };
  auto exact = [&](const std::string& name, double v) {
    out.metrics.push_back({name, v, MetricKind::kExact, 0.0});
  };

  if (out.suite == "gossip") {
    exact("rounds_total", sum_over_rows(doc.at("rows"), "rounds"));
    exact("runs_total", sum_over_rows(doc.at("rows"), "runs"));
    time("wall_ns_total", sum_over_rows(doc.at("rows"), "wall_ns"), 0.75);
  } else if (out.suite == "fault") {
    time("sim_ns_p50", mean_over_rows(doc.at("rows"), "sim_ns_p50"));
    exact("extra_rounds_total",
          sum_over_rows(doc.at("rows"), "extra_rounds"));
  } else if (out.suite == "engine") {
    speedup("warm_speedup",
            doc.at("warm_vs_cold").at("warm_over_cold").as_number());
    time("warm_ns_p50", doc.at("warm_vs_cold").at("warm_ns_p50").as_number());
  } else if (out.suite == "scale") {
    if (doc.has("center_ab")) {
      speedup("center_speedup", doc.at("center_ab").at("speedup").as_number());
    }
    time("solve_ms_total", sum_over_rows(doc.at("rows"), "solve_ms"));
    time("sim_ms_total", sum_over_rows(doc.at("rows"), "sim_ms"));
  } else if (out.suite == "churn") {
    time("patch_ns_p50",
         mean_over_rows(doc.at("churn_rate_sweep"), "patch_ns_p50"), 0.75);
    time("retree_ns_p50",
         mean_over_rows(doc.at("churn_rate_sweep"), "retree_ns_p50"), 0.75);
  } else if (out.suite == "models") {
    exact("model_rounds_total",
          sum_over_rows(doc.at("rows"), "model_rounds"));
    time("wall_ns_total", sum_over_rows(doc.at("rows"), "wall_ns"), 0.75);
  } else if (out.suite == "dist") {
    const JsonValue& recovery = doc.at("recovery");
    exact("recovery_rounds_total", sum_over_rows(recovery, "recovery_rounds"));
    exact("control_messages_total",
          sum_over_rows(recovery, "control_messages"));
    time("recovery_serial_ns_total", sum_over_rows(recovery, "dist_serial_ns"),
         0.75);
  } else {
    return std::nullopt;  // unknown suite: nothing to gate
  }
  return out;
}

std::string host_name() {
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf;
}

/// One history line, already parsed.
struct HistoryRow {
  std::string suite;
  bool quick = false;
  std::string host;
  std::map<std::string, double> metrics;
};

std::vector<HistoryRow> load_history(const std::string& path) {
  std::vector<HistoryRow> rows;
  std::ifstream in(path);
  if (!in) return rows;  // no history yet: everything seeds
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      const JsonValue doc = parse_json(line);
      HistoryRow row;
      row.suite = doc.at("suite").as_string();
      row.quick = doc.at("quick").as_bool();
      row.host = doc.at("host").as_string();
      for (const auto& [name, value] : doc.at("metrics").object) {
        row.metrics[name] = value.as_number();
      }
      rows.push_back(std::move(row));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sentinel: %s:%zu: skipping bad row (%s)\n",
                   path.c_str(), line_no, e.what());
    }
  }
  return rows;
}

/// The baseline from the trailing (up to `window`) values of one metric:
/// the smallest for an exact count, the upper median otherwise.
std::optional<double> baseline_for(const std::vector<HistoryRow>& history,
                                   const SuiteRow& current,
                                   const Metric& metric,
                                   const std::string& host,
                                   std::size_t window) {
  std::vector<double> values;
  for (const HistoryRow& row : history) {
    if (row.suite != current.suite || row.quick != current.quick) continue;
    if (metric.kind == MetricKind::kTime && row.host != host) continue;
    const auto it = row.metrics.find(metric.name);
    if (it == row.metrics.end()) continue;
    values.push_back(it->second);
  }
  if (values.empty()) return std::nullopt;
  if (values.size() > window) {
    values.erase(values.begin(),
                 values.end() - static_cast<std::ptrdiff_t>(window));
  }
  std::sort(values.begin(), values.end());
  return values[metric.kind == MetricKind::kExact ? 0 : values.size() / 2];
}

void write_history_row(std::ostream& out, const SuiteRow& row,
                       const std::string& host, const std::string& rev) {
  // Hand-rolled emission keeps the row on one line (JSONL) with stable key
  // order; metric names never need escaping (ASCII identifiers).
  out << "{\"schema_version\": 1, \"suite\": \"" << row.suite
      << "\", \"quick\": " << (row.quick ? "true" : "false")
      << ", \"host\": \"" << host << "\", \"rev\": \"" << rev
      << "\", \"metrics\": {";
  bool first = true;
  for (const Metric& m : row.metrics) {
    if (!first) out << ", ";
    first = false;
    std::ostringstream num;
    num.precision(17);  // round-trips a double exactly (exact metrics gate
                        // on equality, so 6-sig-fig truncation would lie)
    num << m.value;
    out << '"' << m.name << "\": " << num.str();
  }
  out << "}}\n";
}

const char* const kSuiteFiles[] = {
    "BENCH_gossip.json", "BENCH_fault.json",  "BENCH_engine.json",
    "BENCH_scale.json",  "BENCH_churn.json",  "BENCH_models.json",
    "BENCH_dist.json",
};

int usage() {
  std::fprintf(
      stderr,
      "usage: sentinel append|check [--history FILE] [--dir DIR]\n"
      "                [--rev REV] [--window N] [--inflate METRIC=FACTOR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode != "append" && mode != "check") return usage();
  std::string history_path = "BENCH_HISTORY.jsonl";
  std::string dir = ".";
  std::string rev = "unknown";
  std::size_t window = 5;
  std::map<std::string, double> inflate;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s wants a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--history") {
      history_path = next();
    } else if (flag == "--dir") {
      dir = next();
    } else if (flag == "--rev") {
      rev = next();
    } else if (flag == "--window") {
      // A whole positive count: a window of 0 leaves no baseline to read.
      const std::string text = next();
      if (text.find_first_not_of("0123456789") != std::string::npos) {
        return usage();
      }
      window = std::strtoull(text.c_str(), nullptr, 10);
      if (window == 0) return usage();
    } else if (flag == "--inflate") {
      const std::string spec = next();
      const auto eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--inflate wants METRIC=FACTOR\n");
        return 2;
      }
      inflate[spec.substr(0, eq)] = std::stod(spec.substr(eq + 1));
    } else {
      return usage();
    }
  }

  // Reduce every BENCH artifact present in --dir.
  std::vector<SuiteRow> current;
  for (const char* file : kSuiteFiles) {
    const std::string path = dir + "/" + file;
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "sentinel: %s absent, skipping\n", path.c_str());
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      const JsonValue doc = parse_json(buf.str());
      if (auto row = reduce(doc)) current.push_back(std::move(*row));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sentinel: %s: %s\n", path.c_str(), e.what());
      return 2;
    }
  }
  if (current.empty()) {
    std::fprintf(stderr, "sentinel: no BENCH artifacts found under %s\n",
                 dir.c_str());
    return 2;
  }
  for (SuiteRow& row : current) {
    for (Metric& m : row.metrics) {
      const auto it = inflate.find(m.name);
      if (it != inflate.end()) {
        std::printf("sentinel: inflating %s/%s by %.2fx (injected)\n",
                    row.suite.c_str(), m.name.c_str(), it->second);
        m.value *= it->second;
      }
    }
  }

  const std::string host = host_name();
  if (mode == "append") {
    std::ofstream out(history_path, std::ios::app);
    if (!out) {
      std::fprintf(stderr, "sentinel: cannot append to %s\n",
                   history_path.c_str());
      return 2;
    }
    for (const SuiteRow& row : current) {
      write_history_row(out, row, host, rev);
      std::printf("sentinel: appended %s row (%zu metrics) to %s\n",
                  row.suite.c_str(), row.metrics.size(),
                  history_path.c_str());
    }
    return 0;
  }

  // check
  const std::vector<HistoryRow> history = load_history(history_path);
  bool regressed = false;
  std::size_t gated = 0;
  std::size_t seeded = 0;
  for (const SuiteRow& row : current) {
    for (const Metric& m : row.metrics) {
      const auto base = baseline_for(history, row, m, host, window);
      if (!base) {
        std::printf("  %-8s %-22s %12.6g  (no baseline, seeding)\n",
                    row.suite.c_str(), m.name.c_str(), m.value);
        ++seeded;
        continue;
      }
      ++gated;
      bool bad = false;
      std::string verdict;
      if (m.kind == MetricKind::kSpeedup) {
        bad = m.value < *base * (1.0 - m.tolerance);
        verdict = bad ? "REGRESSION (ratio fell past tolerance)" : "ok";
      } else if (m.kind == MetricKind::kExact) {
        bad = m.value > *base;
        verdict = bad ? "REGRESSION (deterministic count grew)" : "ok";
      } else {
        bad = m.value > *base * (1.0 + m.tolerance);
        verdict = bad ? "REGRESSION (time past tolerance)" : "ok";
      }
      regressed = regressed || bad;
      std::printf("  %-8s %-22s %12.6g vs baseline %12.6g (tol %.0f%%)  %s\n",
                  row.suite.c_str(), m.name.c_str(), m.value, *base,
                  m.tolerance * 100.0, verdict.c_str());
    }
  }
  std::printf("sentinel: %zu metrics gated, %zu seeding, host %s\n", gated,
              seeded, host.c_str());
  if (regressed) {
    std::fprintf(stderr, "sentinel: perf regression against %s\n",
                 history_path.c_str());
    return 1;
  }
  return 0;
}
