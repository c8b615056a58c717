// `churn`: one caller applies seeded uniform_feed edge events back to back
// to a ChurnSolver on a 16x16 grid with an Engine attached.  This is the
// workload that rewrites schedules (filter-and-replay patches, greedy
// repair splices, re-anchors, cache invalidation) instead of building and
// reading them; tree-edge removals set its tail.  n stays at 256 because a
// repair costs roughly n^3 (seconds per event at n = 1024).
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "churn/feed.h"
#include "churn/solver.h"
#include "engine/engine.h"
#include "inputs.h"
#include "model/validator.h"
#include "obs/registry.h"
#include "trace.h"
#include "tree/incremental.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mg;

constexpr graph::Vertex kSide = 16;
constexpr std::size_t kEventsPerFeed = 120;
constexpr std::size_t kFeeds = 4;
constexpr double kTailQuantile = 0.95;
// Every run replays all feeds: the few tree-edge removals that need a
// repair dominate the mean, so fewer events leave too few of them.
constexpr std::size_t kMinOps = kFeeds * kEventsPerFeed;

struct Inputs {
  graph::Graph g0;
  std::vector<churn::ChurnFeed> feeds;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in{grid(kSide, kSide), {}};
  for (std::size_t f = 0; f < kFeeds; ++f) {
    churn::FeedOptions options;
    options.events = kEventsPerFeed;
    options.seed = derive_seed(seed, ("churn" + std::to_string(f)).c_str());
    in.feeds.push_back(churn::uniform_feed(in.g0, options));
  }
  return in;
}

/// One replay of one feed on a fresh engine + solver.
struct Episode {
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<churn::ChurnSolver> solver;
  std::size_t feed = 0;
  std::size_t next = 0;  ///< next event index
};

void start_episode(Episode& ep, const Inputs& in, std::size_t feed) {
  ep.solver.reset();
  ep.engine = std::make_unique<engine::Engine>();
  (void)ep.engine->solve(in.g0);  // a cached entry for the first event to evict
  ep.solver = std::make_unique<churn::ChurnSolver>(
      in.g0, churn::ChurnSolverOptions{}, ep.engine.get());
  ep.feed = feed;
  ep.next = 0;
}

std::string check_event(const churn::ApplyReport& r) {
  const double limit = churn::ChurnSolverOptions{}.stale_factor *
                       static_cast<double>(r.fresh_bound);
  if (static_cast<double>(r.schedule_time) > limit) {
    return "churn: schedule time " + std::to_string(r.schedule_time) +
           " beyond stale_factor * (n + r)";
  }
  return {};
}

std::string check_final(const graph::Graph& g, const model::Schedule& s,
                        const std::vector<model::Message>& initial) {
  const model::ValidationReport report = model::validate_schedule(g, s,
                                                                  initial);
  return report.ok ? std::string()
                   : "churn: final schedule invalid: " + report.error;
}

bool selftest(const Inputs& in, std::string& note) {
  Episode ep;
  start_episode(ep, in, 0);
  bool good = true;
  for (std::size_t k = 0; k < 12; ++k) {
    good = check_event(ep.solver->apply(in.feeds[0].events[k])).empty() &&
           good;
  }
  const graph::Graph& g = ep.solver->graph().snapshot();
  good = good &&
         check_final(g, ep.solver->schedule(), ep.solver->initial()).empty();
  churn::ApplyReport stale;
  stale.fresh_bound = 100;
  stale.schedule_time = 201;
  const bool stale_caught = !check_event(stale).empty();
  const bool broken_caught =
      !check_final(g, ep.solver->schedule(), rotated(ep.solver->initial()))
           .empty();
  note = std::string("churn checker: correct output ") +
         (good ? "passes" : "FAILS") + ", stale schedule " +
         (stale_caught ? "counted" : "MISSED") +
         ", final schedule from wrong holdings " +
         (broken_caught ? "counted" : "MISSED");
  return good && stale_caught && broken_caught;
}

/// Per-event tallies of the traced phase.
struct LayerCounts {
  double events = 0.0;
  double path[5] = {0, 0, 0, 0, 0};  ///< by tree::MaintenancePath
  double bfs = 0.0;
  double patched = 0.0;
  double resolved = 0.0;
  double tx = 0.0;
  double deliveries = 0.0;
  double fingerprint_ns = 0.0;
};

}  // namespace

void run_churn(const Args& args, Report& report) {
  Inputs in;
  Episode ep;
  report.metrics["setup_s"] = median_setup_seconds(
      3,
      [&] {
        ep = Episode{};
        in.feeds.clear();
      },
      [&] {
        in = make_inputs(args.seed);
        start_episode(ep, in, 0);
      });
  report.selftest_ok = selftest(in, report.selftest_note);

  Ledger& ledger = report.ledger;
  Tracer* tracer = nullptr;
  LayerCounts counts;
  const auto finish_episode = [&] {
    ledger.run_check(
        check_final(ep.solver->graph().snapshot(), ep.solver->schedule(),
                    ep.solver->initial())
            .empty(),
        "churn: final schedule does not validate on the final graph");
  };
  const auto op = [&](std::size_t i, double& rounds_ratio) {
    if (ep.next == in.feeds[ep.feed].events.size()) {
      finish_episode();
      start_episode(ep, in, (ep.feed + 1) % in.feeds.size());
    }
    const churn::ChurnEvent& event = in.feeds[ep.feed].events[ep.next++];
    const std::int64_t start = now_ns();
    churn::ApplyReport r;
    {
      Span span(tracer, 0, "op.churn", i);
      Span call(tracer, 0, "churn.apply", i);
      r = ep.solver->apply(event);
    }
    const double ms = static_cast<double>(now_ns() - start) * 1e-6;
    ledger.op(check_event(r));
    rounds_ratio = ratio(static_cast<double>(r.schedule_time),
                         static_cast<double>(r.fresh_bound));
    if (tracer != nullptr) {
      counts.events += 1;
      counts.path[static_cast<int>(r.tree_report.path)] += 1;
      counts.bfs += static_cast<double>(r.tree_report.bfs_runs);
      counts.patched += r.patched ? 1 : 0;
      counts.resolved += r.resolved ? 1 : 0;
      counts.tx += static_cast<double>(ep.solver->schedule().transmission_count());
      counts.deliveries +=
          static_cast<double>(ep.solver->schedule().delivery_count());
      const std::int64_t fp_start = now_ns();
      (void)engine::graph_fingerprint(ep.solver->graph().snapshot());
      counts.fingerprint_ns += static_cast<double>(now_ns() - fp_start);
    }
    return ms;
  };

  if (!args.trace) {
    summarize(closed_loop(args.seconds, kMinOps, SIZE_MAX, kEventsPerFeed, op),
              kTailQuantile, report);
    finish_episode();
    return;
  }

  const Phase untraced =
      closed_loop(args.seconds / 2, 1, SIZE_MAX, kEventsPerFeed, op);
  finish_episode();
  const std::size_t ops = untraced.latency_ms.size();

  // Replay the same events traced, from a fresh start.
  start_episode(ep, in, 0);
  Tracer trace_store(1);
  tracer = &trace_store;
  obs::Registry& registry = obs::Registry::global();
  registry.reset();
  // Each episode has its own engine: sum their invalidations.
  std::uint64_t invalidations = 0;
  const Phase traced = closed_loop(0.0, ops, ops, 1, [&](std::size_t i,
                                                      double& rr) {
    if (ep.next == in.feeds[ep.feed].events.size()) {
      invalidations += ep.engine->stats().invalidations;
    }
    return op(i, rr);
  });
  invalidations += ep.engine->stats().invalidations;
  finish_episode();
  const obs::Snapshot snap = registry.snapshot();

  const double events = counts.events;
  auto& m = report.metrics;
  m["graph.center_ms"] =
      ratio(timer_ns(snap, "tree.center_scan_ns") * 1e-6, events);
  m["graph.center_bfs"] = ratio(
      static_cast<double>(snap.counter("tree.center_scan_bfs")), events);
  m["tree.retree_ms"] = ratio(
      static_cast<double>(snap.histogram("churn.retree_ns").sum) * 1e-6,
      events);
  const char* paths[5] = {"tree.path.noop", "tree.path.parent_patch",
                          "tree.path.subtree_repair", "tree.path.recenter",
                          "tree.path.full_rebuild"};
  for (int p = 0; p < 5; ++p) m[paths[p]] = ratio(counts.path[p], events);
  m["tree.bfs_per_event"] = ratio(counts.bfs, events);
  m["gossip.tx"] = ratio(counts.tx, events);
  m["gossip.deliveries"] = ratio(counts.deliveries, events);
  m["gossip.repair_rounds"] = ratio(
      static_cast<double>(snap.counter("churn.patch.repair_rounds")), events);
  m["churn.reschedule_ms"] = ratio(
      static_cast<double>(snap.histogram("churn.patch_ns").sum) * 1e-6,
      events);
  m["churn.patch_share"] = ratio(counts.patched, events);
  m["churn.resolve_share"] = ratio(counts.resolved, events);
  m["engine.invalidations"] = ratio(static_cast<double>(invalidations), events);
  m["engine.fingerprint_us"] = ratio(counts.fingerprint_ns * 1e-3, events);
  finish_trace(trace_store, untraced, traced, args.trace_out, report);
}

}  // namespace perfbench
