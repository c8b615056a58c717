// Distributed runner: executes one gossip instance on the `mg::dist` actor
// runtime — n independent processor actors, a round-synchronized mailbox
// bus, optional live faults — and checks the emergent execution against the
// centrally computed schedule (the differential gate) plus Theorem 1's
// n + r round count.
//
//   $ ./dist_runner                                    # Petersen, ConcurrentUpDown
//   $ ./dist_runner --graph grid:5x5 --algorithm updown --threads 8
//   $ ./dist_runner --drop-rate 0.15 --crash 3:6 --seed 9
//   $ ./dist_runner --timeline-out timeline.json
//   $ ./dist_runner --flow-trace flow.json        # Perfetto causal flows
//
// Exit status: fault-free runs fail (exit 1) unless the emergent schedule
// matches the central one round-for-round, the run completes, and — for
// ConcurrentUpDown — the execution spans exactly n + r rounds.  Faulty runs
// fail unless the emergent repair passes the independent model validator
// and the survivors reach their achievable closure.  CI runs the fault-free
// Petersen configuration as a smoke gate.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "dist/runtime.h"
#include "fault/fault.h"
#include "gossip/recovery.h"
#include "gossip/timeline.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "model/validator.h"
#include "obs/span.h"
#include "obs/trace_export.h"

namespace {

using namespace mg;

struct Options {
  std::string graph = "petersen";
  gossip::Algorithm algorithm = gossip::Algorithm::kConcurrentUpDown;
  std::size_t threads = 0;
  std::uint64_t seed = 0x5eed;
  double drop_rate = 0.0;
  bool have_crash = false;
  graph::Vertex crash_victim = 0;
  std::size_t crash_round = 0;
  std::size_t budget = 0;
  std::string timeline_out;
  std::string flow_trace_out;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--graph petersen|cycle:N|grid:RxC|hypercube:D]\n"
      "          [--algorithm simple|updown|concurrent-updown|telephone]\n"
      "          [--threads N] [--seed N] [--drop-rate P] [--crash V:ROUND]\n"
      "          [--budget ROUNDS] [--timeline-out FILE]\n"
      "          [--flow-trace FILE]\n",
      argv0);
}

graph::Graph make_graph(const std::string& spec) {
  if (spec == "petersen") return graph::petersen();
  const auto colon = spec.find(':');
  const std::string family = spec.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (family == "cycle") {
    return graph::cycle(static_cast<graph::Vertex>(std::stoul(arg)));
  }
  if (family == "grid") {
    const auto x = arg.find('x');
    if (x == std::string::npos) throw std::invalid_argument("grid wants RxC");
    return graph::grid(
        static_cast<graph::Vertex>(std::stoul(arg.substr(0, x))),
        static_cast<graph::Vertex>(std::stoul(arg.substr(x + 1))));
  }
  if (family == "hypercube") {
    return graph::hypercube(static_cast<unsigned>(std::stoul(arg)));
  }
  throw std::invalid_argument("unknown graph family '" + family + "'");
}

gossip::Algorithm parse_algorithm(const std::string& name) {
  if (name == "simple") return gossip::Algorithm::kSimple;
  if (name == "updown") return gossip::Algorithm::kUpDown;
  if (name == "concurrent-updown") return gossip::Algorithm::kConcurrentUpDown;
  if (name == "telephone") return gossip::Algorithm::kTelephone;
  throw std::invalid_argument("unknown algorithm '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s wants a value\n", flag.c_str());
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (flag == "--graph") {
        opt.graph = next();
      } else if (flag == "--algorithm") {
        opt.algorithm = parse_algorithm(next());
      } else if (flag == "--threads") {
        opt.threads = std::stoul(next());
      } else if (flag == "--seed") {
        opt.seed = std::stoull(next());
      } else if (flag == "--drop-rate") {
        opt.drop_rate = std::stod(next());
      } else if (flag == "--crash") {
        const std::string spec = next();
        const auto colon = spec.find(':');
        if (colon == std::string::npos) {
          throw std::invalid_argument("--crash wants V:ROUND");
        }
        opt.have_crash = true;
        opt.crash_victim =
            static_cast<graph::Vertex>(std::stoul(spec.substr(0, colon)));
        opt.crash_round = std::stoul(spec.substr(colon + 1));
      } else if (flag == "--budget") {
        opt.budget = std::stoul(next());
      } else if (flag == "--timeline-out") {
        opt.timeline_out = next();
      } else if (flag == "--flow-trace") {
        opt.flow_trace_out = next();
      } else {
        usage(argv[0]);
        return flag == "--help" ? 0 : 2;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), e.what());
      return 2;
    }
  }

  graph::Graph network(0);
  try {
    network = make_graph(opt.graph);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--graph %s: %s\n", opt.graph.c_str(), e.what());
    return 2;
  }

  fault::FaultPlan plan;
  bool faulty = false;
  if (opt.drop_rate > 0.0) {
    plan.drop_rate(opt.drop_rate).seed(opt.seed);
    faulty = true;
  }
  if (opt.have_crash) {
    plan.crash(opt.crash_victim, opt.crash_round);
    faulty = true;
  }

  // The central solve is only needed up front to size the timeline sink;
  // run_distributed recomputes its own reference.
  const auto central = gossip::solve_gossip(network, opt.algorithm);
  const graph::Vertex n = central.instance.vertex_count();
  const std::uint32_t r = central.instance.radius();
  gossip::RoundTimeline timeline(central.instance);

  dist::RuntimeOptions options;
  options.threads = opt.threads;
  options.seed = opt.seed;
  options.extra_round_budget = opt.budget;
  options.sink = &timeline;
  if (faulty) options.faults = &plan;

  // The flow trace layers the run's happens-before record over the spans
  // the run records while the span tracer is on.
  const bool want_flows = !opt.flow_trace_out.empty();
  obs::SpanTracer::global().set_enabled(want_flows);
  const dist::DistOutcome outcome =
      dist::run_distributed(network, opt.algorithm, options);
  const dist::RunReport& run = outcome.run;
  obs::SpanTracer::global().set_enabled(false);

  std::printf("algorithm: %s on %s (n = %u, radius r = %u)\n",
              gossip::algorithm_name(opt.algorithm).c_str(),
              opt.graph.c_str(), n, r);
  std::printf("actors: %u, worker threads: %zu, bus seed: %llu\n", n,
              opt.threads, static_cast<unsigned long long>(opt.seed));
  std::printf("main phase: %zu rounds, %zu messages, %zu deliveries\n",
              run.horizon, run.messages, run.deliveries);
  if (faulty) {
    std::printf("faults: %zu drops, %zu crashed sends, %zu skipped, "
                "%zu lost; %zu actors crashed\n",
                run.injected_drops, run.crashed_sends, run.skipped_sends,
                run.lost_receives, run.crashed.size());
    std::printf("recovery: %zu data rounds, %zu control messages\n",
                run.recovery_rounds, run.control_messages);
  }
  std::printf("result: %s, recovered %s, coverage %.4f\n",
              run.complete ? "complete" : "INCOMPLETE",
              run.recovered ? "yes" : "NO", run.coverage);
  const dist::CriticalPath cp = dist::critical_path(run);
  std::printf("critical path: %zu hops, causal length %zu rounds\n",
              cp.hops.size(), cp.length);

  if (!opt.timeline_out.empty()) {
    std::ofstream out(opt.timeline_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.timeline_out.c_str());
      return 2;
    }
    timeline.write_json(out);
    std::printf("round timeline written to %s\n", opt.timeline_out.c_str());
  }

  if (want_flows) {
    std::ofstream out(opt.flow_trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.flow_trace_out.c_str());
      return 2;
    }
    obs::write_chrome_trace(out, obs::SpanTracer::global().snapshot(),
                            dist::flow_events(run));
    std::printf("causal flow trace written to %s (%zu events)\n",
                opt.flow_trace_out.c_str(), run.causal.size());
  }

  if (!faulty) {
    std::printf("differential gate: emergent %s central (%zu vs %zu rounds)\n",
                outcome.verify.match ? "==" : "!=",
                outcome.verify.emergent_rounds, outcome.verify.central_rounds);
    if (!outcome.verify.match) {
      std::fprintf(stderr, "FAIL: emergent schedule diverged\n%s\n",
                   outcome.verify.detail.c_str());
      return 1;
    }
    if (!run.complete) {
      std::fprintf(stderr, "FAIL: fault-free run did not complete\n");
      return 1;
    }
    if (opt.algorithm == gossip::Algorithm::kConcurrentUpDown) {
      if (!outcome.verify.n_plus_r_ok) {
        std::fprintf(stderr,
                     "FAIL: expected n + r = %u rounds, emergent has %zu\n",
                     n + r, outcome.verify.emergent_rounds);
        return 1;
      }
      std::printf("Theorem 1 check: execution spans exactly n + r rounds\n");
    }
    return 0;
  }

  // Faulty run: the emergent repair must be independently model-valid, and
  // the survivors must have reached their achievable closure (unless a
  // budget cut recovery short, in which case honesty is the gate).
  const auto repair_report = model::validate_schedule_general(
      network, run.repair, gossip::holds_to_initial_sets(run.main_holds),
      static_cast<std::size_t>(n),
      {.require_completion = false});
  if (!repair_report.ok) {
    std::fprintf(stderr, "FAIL: emergent repair is model-invalid: %s\n",
                 repair_report.error.c_str());
    return 1;
  }
  if (!run.recovered && opt.budget == 0) {
    std::fprintf(stderr, "FAIL: survivors did not reach closure\n");
    return 1;
  }
  return 0;
}
