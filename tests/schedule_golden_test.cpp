// Golden schedule digests: every schedule producer, pinned bit for bit.
//
// Each case hashes the *canonical form* of the schedules it produces —
// rounds in order up to total_time(), and the tuples of each round sorted by
// (sender, message, receivers) — into one `Fingerprint64`.  Order inside a
// round is free (nothing may depend on it, exactly as for `equivalent()`),
// but the set of tuples per round is not: a representation change of
// `model::Schedule` must reproduce every digest below.
//
// Corpus: the paper's named graphs and the differential battery's seeded
// graphs with the four algorithms; ConcurrentUpDown without the (U3)
// lookahead; Propagate-Up and Propagate-Down alone; the online protocol;
// and `adapt_schedule` under each built-in model.
//
// Every ConcurrentUpDown-family schedule folded here (with and without the
// lookahead, Propagate-Up, Propagate-Down, the online protocol and the
// `solve/*` networks below) must also store each round with its senders
// strictly ascending.  A processor sends at most once per round, so that
// order is the canonical one, and the digest then pins the stored arrays.
//
// The repair planners are pinned harder, in *stored* order: the greedy
// completion flood (`partial_completion_schedule`) on seeded degraded
// states, every repair of one `solve_with_recovery` run, and two
// `dist::ActorRuntime` runs with decentralized recovery (emergent and repair
// schedules plus the run's counters; the online-rule run's causal record
// too; the other run has per-edge delays).  Their within-round order is
// part of their output, because the radio/beep legalizer packs rounds in
// stored order.  The bus's delivery order itself is pinned in
// dist_differential_test.
//
// Center finding is pinned on graphs wider than one 64-bit word of BFS
// sources: `find_center`'s (center, radius, diameter_lb, bfs_runs, pruned)
// serially and on a 4-thread pool, `compute_metrics`' eccentricity arrays,
// and the ConcurrentUpDown schedule of one n = 1024 network per family of
// the repository benchmark's `solve` workload, which fixes center, tree,
// labels and schedule end to end.
//
// To regenerate after an intended schedule change, run
// `MG_GOLDEN_PRINT=1 ./schedule_golden_test` and paste the printed table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dist/runtime.h"
#include "fault/fault.h"
#include "gossip/concurrent_updown.h"
#include "gossip/online.h"
#include "gossip/recovery.h"
#include "gossip/solve.h"
#include "graph/center.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "graph/properties.h"
#include "model/comm_model.h"
#include "model/legalize.h"
#include "sim/network_sim.h"
#include "support/bitset.h"
#include "support/fingerprint.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "test_util.h"

namespace mg {
namespace {

/// Folds the canonical form of `schedule` into `fp`.
void fold(Fingerprint64& fp, const model::Schedule& schedule) {
  fp.update(schedule.total_time());
  for (model::RoundCursor cursor(schedule); cursor.next();) {
    const std::vector<model::Tx> round =
        model::canonical_round(schedule, cursor.txs());
    fp.update(round.size());
    for (const model::Tx& tx : round) {
      fp.update(tx.sender);
      fp.update(tx.message);
      fp.update(tx.count);
      for (const graph::Vertex r : schedule.receivers(tx)) fp.update(r);
    }
  }
}

/// Fails the current test unless senders strictly ascend inside every round
/// of `schedule`.  A sender sends at most once per round, so for the
/// ConcurrentUpDown family this plus the canonical digest pins the stored
/// arrays byte for byte, which the radio/beep legalizer reads.
void expect_sender_ordered(const model::Schedule& schedule,
                           const std::string& name) {
  for (model::RoundCursor cursor(schedule); cursor.next();) {
    const auto round = cursor.txs();
    for (std::size_t i = 1; i < round.size(); ++i) {
      ASSERT_LT(round[i - 1].sender, round[i].sender)
          << name << " round " << cursor.index() << " tuple " << i;
    }
  }
}

/// Folds `schedule` into `fp` in stored order: every round up to
/// round_count(), tuples exactly as stored.
void fold_stored(Fingerprint64& fp, const model::Schedule& schedule) {
  fp.update(schedule.round_count());
  for (model::RoundCursor cursor(schedule); cursor.next();) {
    const auto round = cursor.txs();
    fp.update(round.size());
    for (const model::Tx& tx : round) {
      fp.update(tx.sender);
      fp.update(tx.message);
      fp.update(tx.count);
      for (const graph::Vertex r : schedule.receivers(tx)) fp.update(r);
    }
  }
}

struct NamedGraph {
  const char* name;
  graph::Graph g;
};

std::vector<NamedGraph> named_graphs() {
  return {{"n1", graph::n1_cycle()},
          {"petersen", graph::petersen()},
          {"n3", graph::n3_witness()},
          {"fig4", graph::fig4_network()},
          {"fig5", graph::fig5_tree()}};
}

/// One of the differential battery's four families on `n` vertices.
graph::Graph battery_family(graph::Vertex n, std::uint64_t family, Rng& rng) {
  switch (family % 4) {
    case 0:
      return graph::random_connected_gnp(n, 3.0 / static_cast<double>(n),
                                         rng);
    case 1:
      return graph::random_tree(n, rng);
    case 2:
      return graph::random_geometric(n, 0.3, rng);
    default:
      return graph::random_connected_gnp(n, 0.5, rng);
  }
}

/// The differential battery's seeded graphs (tests/differential_test.cpp).
graph::Graph battery_graph(std::uint64_t seed) {
  Rng rng(0xd1ffULL * (seed + 1));
  return battery_family(static_cast<graph::Vertex>(5 + (seed * 7) % 44),
                        seed, rng);
}
constexpr std::uint64_t kBatteryGraphs = 56;

/// Named graphs followed by the battery, the corpus of most cases.
std::vector<graph::Graph> corpus() {
  std::vector<graph::Graph> graphs;
  for (auto& named : named_graphs()) graphs.push_back(std::move(named.g));
  for (std::uint64_t seed = 0; seed < kBatteryGraphs; ++seed) {
    graphs.push_back(battery_graph(seed));
  }
  return graphs;
}

/// `g` with its vertices renamed by a seeded permutation.
graph::Graph relabeled(const graph::Graph& g, Rng& rng) {
  std::vector<graph::Vertex> label(g.vertex_count());
  for (graph::Vertex v = 0; v < g.vertex_count(); ++v) label[v] = v;
  rng.shuffle(label);
  std::vector<graph::Edge> edges;
  for (const auto& [u, v] : g.edges()) edges.emplace_back(label[u], label[v]);
  return graph::Graph::from_edges(g.vertex_count(), edges);
}

/// The repository benchmark's `solve` families at n = 1024.
std::vector<NamedGraph> solve_families() {
  Rng rng(0x5017eULL);
  std::vector<NamedGraph> graphs;
  graphs.push_back({"grid", relabeled(graph::grid(32, 32), rng)});
  graphs.push_back(
      {"regular3", graph::random_regular_configuration(1024, 3, rng)});
  graphs.push_back({"geometric", graph::random_geometric(1024, 0.06, rng)});
  graphs.push_back({"hypercube", relabeled(graph::hypercube(10), rng)});
  return graphs;
}

/// Center-finding cases: graphs whose n spans more than one 64-bit word of
/// BFS sources, each group searched in one mode.
struct CenterCase {
  std::string name;
  graph::CenterMode mode;
  std::vector<graph::Graph> graphs;
};

std::vector<CenterCase> center_cases() {
  std::vector<CenterCase> cases;
  std::vector<graph::Graph> solve;
  for (auto& named : solve_families()) solve.push_back(std::move(named.g));
  cases.push_back(
      {"solve_families", graph::CenterMode::kAuto, std::move(solve)});
  Rng rng(0xce47e5ULL);
  std::vector<graph::Graph> battery;
  for (const graph::Vertex n : {63u, 64u, 65u, 127u, 130u}) {
    for (std::uint64_t family = 0; family < 4; ++family) {
      battery.push_back(battery_family(n, family, rng));
    }
  }
  cases.push_back(
      {"battery_n63_to_130", graph::CenterMode::kAuto, std::move(battery)});
  // ecc(0) = 64 and 65.
  cases.push_back({"path65_66",
                   graph::CenterMode::kAuto,
                   {graph::path(65), graph::path(66)}});
  cases.push_back(
      {"grid100x100", graph::CenterMode::kAuto, {graph::grid(100, 100)}});
  cases.push_back({"hybrid/regular4096",
                   graph::CenterMode::kHybrid,
                   {graph::random_regular_configuration(4096, 3, rng)}});
  cases.push_back({"hybrid/geometric3000",
                   graph::CenterMode::kHybrid,
                   {graph::random_geometric(3000, 0.035, rng)}});
  return cases;
}

constexpr gossip::Algorithm kAlgorithms[] = {
    gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
    gossip::Algorithm::kConcurrentUpDown, gossip::Algorithm::kTelephone};

/// The hold sets a ConcurrentUpDown run on `g`'s tree leaves behind under
/// seeded 20% drops.
BitMatrix faulty_holds(const graph::Graph& g, std::uint64_t seed) {
  const gossip::Solution sol = gossip::solve_gossip(g);
  fault::FaultPlan plan;
  plan.drop_rate(0.2).seed(seed);
  sim::SimOptions options;
  options.faults = &plan;
  return sim::simulate(sol.instance.tree().as_graph(), sol.schedule,
                       sol.instance.initial(), options)
      .final_holds;
}

/// About 15% of the processors dead, never all of them.
std::vector<char> dead_mask(graph::Vertex n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<char> alive(n, 1);
  for (graph::Vertex v = 0; v < n; ++v) alive[v] = rng.below(100) >= 15;
  alive[rng.below(n)] = 1;
  return alive;
}

/// `message_count` messages, each held by each processor with
/// probability 3/10.
BitMatrix random_holds(graph::Vertex n, std::size_t message_count,
                       std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix holds(n, message_count);
  for (graph::Vertex v = 0; v < n; ++v) {
    for (std::size_t m = 0; m < message_count; ++m) {
      if (rng.below(10) < 3) holds.set(v, m);
    }
  }
  return holds;
}

/// Every case: a name and the digest over the schedules it produces.
std::vector<std::pair<std::string, std::uint64_t>> compute_digests() {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  const auto record = [&](std::string name, const Fingerprint64& fp) {
    out.emplace_back(std::move(name), fp.digest());
  };

  // Folds one algorithm's schedule; ConcurrentUpDown's must also be stored
  // sender-ordered.
  const auto fold_solution = [](Fingerprint64& fp, const graph::Graph& g,
                                gossip::Algorithm algorithm,
                                const std::string& name) {
    const model::Schedule schedule = gossip::solve_gossip(g, algorithm).schedule;
    if (algorithm == gossip::Algorithm::kConcurrentUpDown) {
      expect_sender_ordered(schedule, name);
    }
    fold(fp, schedule);
  };
  for (const auto& named : named_graphs()) {
    for (const gossip::Algorithm algorithm : kAlgorithms) {
      const std::string name =
          std::string(named.name) + "/" + gossip::algorithm_name(algorithm);
      Fingerprint64 fp;
      fold_solution(fp, named.g, algorithm, name);
      record(name, fp);
    }
  }
  for (const gossip::Algorithm algorithm : kAlgorithms) {
    const std::string name = "battery/" + gossip::algorithm_name(algorithm);
    Fingerprint64 fp;
    for (std::uint64_t seed = 0; seed < kBatteryGraphs; ++seed) {
      fold_solution(fp, battery_graph(seed), algorithm, name);
    }
    record(name, fp);
  }

  Fingerprint64 no_lookahead, up, down, online;
  std::vector<Fingerprint64> adapted(model::kModelCount);
  for (const graph::Graph& g : corpus()) {
    const auto instance = gossip::Instance::from_network(g);
    gossip::ConcurrentUpDownOptions options;
    options.lookahead_at_time_zero = false;
    const auto fold_ordered = [](Fingerprint64& fp,
                                 const model::Schedule& schedule,
                                 const std::string& name) {
      expect_sender_ordered(schedule, name);
      fold(fp, schedule);
    };
    fold_ordered(no_lookahead, gossip::concurrent_updown(instance, options),
                 "concurrent_updown/no_lookahead");
    fold_ordered(up, gossip::propagate_up(instance), "propagate_up");
    fold_ordered(down, gossip::propagate_down(instance), "propagate_down");
    fold_ordered(online, gossip::run_online(instance), "run_online");
    const model::Schedule schedule = gossip::concurrent_updown(instance);
    expect_sender_ordered(schedule, "concurrent_updown");
    const graph::Graph tree = instance.tree().as_graph();
    for (std::size_t m = 0; m < model::kModelCount; ++m) {
      fold(adapted[m], model::adapt_schedule(tree, schedule,
                                             *model::all_models()[m])
                           .schedule);
    }
  }
  record("concurrent_updown/no_lookahead", no_lookahead);
  record("propagate_up", up);
  record("propagate_down", down);
  record("run_online", online);
  for (std::size_t m = 0; m < model::kModelCount; ++m) {
    record("adapt/" + model::all_models()[m]->name(), adapted[m]);
  }

  // The digests below were recorded with seeds starting one per test
  // family past 0x9a7c4.
  std::uint64_t seed = 0x9a7c4ULL + test::families().size();

  // The central repair planner on degraded states.
  Fingerprint64 dead;
  for (const auto& family : test::families()) {
    const graph::Graph g = family.make(9);
    const BitMatrix holds = faulty_holds(g, seed++);
    Fingerprint64 fp;
    fold_stored(fp, gossip::partial_completion_schedule(g, holds));
    record("partial/" + family.name, fp);
    fold_stored(dead, gossip::partial_completion_schedule(
                          g, holds, dead_mask(g.vertex_count(), seed++)));
  }
  record("partial/dead", dead);
  {
    // The middle column of a 7x7 grid dead: two survivor components.
    const graph::Graph g = graph::grid(7, 7);
    std::vector<char> alive(g.vertex_count(), 1);
    for (graph::Vertex row = 0; row < 7; ++row) alive[row * 7 + 3] = 0;
    Fingerprint64 fp;
    fold_stored(fp, gossip::partial_completion_schedule(
                        g, faulty_holds(g, seed++), alive));
    record("partial/split_grid", fp);
  }
  {
    // n + 37 messages, so the last hold word is partial.
    Fingerprint64 fp;
    for (std::uint64_t s = 0; s < 8; ++s) {
      const graph::Graph g = battery_graph(s * 5 + 3);
      const graph::Vertex n = g.vertex_count();
      const auto holds = random_holds(n, n + 37, seed++);
      fold_stored(fp, gossip::partial_completion_schedule(g, holds));
      fold_stored(fp, gossip::partial_completion_schedule(
                          g, holds, dead_mask(n, seed++)));
    }
    record("partial/wide", fp);
  }
  {
    // Maximum degree >= 16: at least five counter planes.
    Rng rng(seed++);
    const graph::Graph graphs[] = {
        graph::star(24), graph::complete(20),
        graph::random_connected_gnp(48, 0.45, rng)};
    Fingerprint64 fp;
    for (const graph::Graph& g : graphs) {
      fold_stored(fp, gossip::partial_completion_schedule(
                          g, faulty_holds(g, seed++)));
      fold_stored(fp, gossip::partial_completion_schedule(
                          g, random_holds(g.vertex_count(),
                                          g.vertex_count() + 37, seed++)));
    }
    record("partial/high_degree", fp);
  }

  {
    // Every repair of one self-healing run under drops and a crash.
    Rng rng(seed++);
    const graph::Graph g = graph::random_geometric(40, 0.3, rng);
    fault::FaultPlan plan;
    plan.drop_rate(0.2).seed(seed++).crash(11, 6);
    gossip::RecoveryOptions options;
    options.max_attempts = 12;
    const gossip::RecoveryOutcome outcome =
        gossip::solve_with_recovery(g, plan, options);
    Fingerprint64 fp;
    fp.update(outcome.attempts);
    fp.update(outcome.extra_rounds);
    for (const model::Schedule& repair : outcome.repairs) {
      fold_stored(fp, repair);
    }
    record("solve_with_recovery/repairs", fp);
  }

  {
    // Decentralized recovery: the online rule on a geometric network with
    // the tree root crashed at mid-horizon plus 1% drops.
    Rng rng(seed++);
    const graph::Graph g = graph::random_geometric(64, 0.2, rng);
    const gossip::Instance instance = gossip::Instance::from_network(g);
    const std::size_t horizon = g.vertex_count() + instance.radius();
    fault::FaultPlan plan;
    plan.drop_rate(0.01).seed(seed++).crash(instance.tree().root(),
                                             horizon / 2);
    dist::RuntimeOptions options;
    options.faults = &plan;
    dist::ActorRuntime runtime(instance, g, options);
    runtime.use_online_rule();
    const dist::RunReport run = runtime.run(horizon);
    Fingerprint64 emergent, repair, counts, causal;
    fold_stored(emergent, run.emergent);
    fold_stored(repair, run.repair);
    for (const std::size_t c :
         {run.recovery_rounds, run.messages, run.deliveries,
          run.control_messages, run.causal.size()}) {
      counts.update(c);
    }
    for (const dist::CausalLink& link : run.causal) {
      for (const std::uint64_t word :
           {link.id, link.parent, std::uint64_t{static_cast<std::uint8_t>(
                                      link.kind)},
            std::uint64_t{link.round}, std::uint64_t{link.sender},
            std::uint64_t{link.message}, std::uint64_t{link.fanout}}) {
        causal.update(word);
      }
    }
    record("dist/emergent", emergent);
    record("dist/repair", repair);
    record("dist/counts", counts);
    record("dist/causal", causal);
  }

  {
    // Decentralized recovery under per-edge delays: Simple's timetable on
    // a 7x9 grid, every third edge 1-3 rounds slower, 8% drops and one
    // crash.  Delayed copies share inboxes with fresh ones, so this run
    // exercises the bus's order and the actors' tie rules.
    const graph::Graph g = graph::grid(7, 9);
    const gossip::Solution solution =
        gossip::solve_gossip(g, gossip::Algorithm::kSimple);
    const std::size_t horizon = solution.schedule.round_count();
    fault::FaultPlan plan;
    plan.drop_rate(0.08).seed(seed++).crash(40, horizon / 3);
    const std::vector<graph::Edge> edges = g.edges();
    for (std::size_t e = 0; e < edges.size(); e += 3) {
      plan.delay(edges[e].first, edges[e].second, 1 + (e / 3) % 3);
    }
    dist::RuntimeOptions options;
    options.faults = &plan;
    dist::ActorRuntime runtime(solution.instance, g, options);
    runtime.use_timetable(solution.schedule);
    const dist::RunReport run = runtime.run(horizon);
    Fingerprint64 emergent, repair, counts;
    fold_stored(emergent, run.emergent);
    fold_stored(repair, run.repair);
    for (const std::size_t c :
         {run.recovery_rounds, run.messages, run.deliveries,
          run.control_messages, run.causal.size(), run.injected_drops,
          run.crashed_sends, run.skipped_sends, run.lost_receives}) {
      counts.update(c);
    }
    record("dist/delayed/emergent", emergent);
    record("dist/delayed/repair", repair);
    record("dist/delayed/counts", counts);
  }

  ThreadPool pool(4);
  for (const CenterCase& c : center_cases()) {
    graph::CenterOptions options;
    options.mode = c.mode;
    Fingerprint64 serial, pooled, metrics;
    for (const graph::Graph& g : c.graphs) {
      for (const auto& [fp, on] : {std::pair<Fingerprint64*, ThreadPool*>{
                                       &serial, nullptr},
                                   std::pair<Fingerprint64*, ThreadPool*>{
                                       &pooled, &pool}}) {
        const graph::CenterResult r = graph::find_center(g, on, options);
        for (const std::uint64_t word :
             {std::uint64_t{r.center}, std::uint64_t{r.radius},
              std::uint64_t{r.diameter_lb}, r.bfs_runs, r.pruned}) {
          fp->update(word);
        }
      }
      const graph::Metrics m = graph::compute_metrics(g);
      metrics.update(m.center);
      metrics.update(m.radius);
      metrics.update(m.diameter);
      for (const std::uint32_t e : m.eccentricity) metrics.update(e);
    }
    record("center/" + c.name, serial);
    record("center/" + c.name + "/pool4", pooled);
    record("metrics/" + c.name, metrics);
  }
  for (const auto& named : solve_families()) {
    const std::string name = std::string("solve/") + named.name;
    Fingerprint64 fp;
    fold_solution(fp, named.g, gossip::Algorithm::kConcurrentUpDown, name);
    record(name, fp);
  }
  return out;
}

// Generated on the commit before `model::Schedule` became a flat CSR
// layout, with `MG_GOLDEN_PRINT=1`.
const std::vector<std::pair<std::string, std::uint64_t>> kGolden = {
    {"n1/Simple", 0xb716b93f987464c1ULL},
    {"n1/UpDown", 0x5ad9aec443ea3e44ULL},
    {"n1/ConcurrentUpDown", 0xe59580b268f6dd6bULL},
    {"n1/Telephone", 0x5ad9aec443ea3e44ULL},
    {"petersen/Simple", 0x2ab7495fa159db6cULL},
    {"petersen/UpDown", 0xcedb4d8e1f073f84ULL},
    {"petersen/ConcurrentUpDown", 0x5f7e8597b805e299ULL},
    {"petersen/Telephone", 0xa1c512fc5bde9061ULL},
    {"n3/Simple", 0x5f1fd52e169aae22ULL},
    {"n3/UpDown", 0x7c7cd472d8a92ef6ULL},
    {"n3/ConcurrentUpDown", 0x8c134d16b7de1960ULL},
    {"n3/Telephone", 0xbede5b3b11df20cdULL},
    {"fig4/Simple", 0xe29071b224f44d1eULL},
    {"fig4/UpDown", 0x250dc9a1f20e8189ULL},
    {"fig4/ConcurrentUpDown", 0xba468b8442679ba5ULL},
    {"fig4/Telephone", 0x44dc18bad09cdd32ULL},
    {"fig5/Simple", 0xe29071b224f44d1eULL},
    {"fig5/UpDown", 0x250dc9a1f20e8189ULL},
    {"fig5/ConcurrentUpDown", 0xba468b8442679ba5ULL},
    {"fig5/Telephone", 0x44dc18bad09cdd32ULL},
    {"battery/Simple", 0x37220938b94953e3ULL},
    {"battery/UpDown", 0x2799a4425165859eULL},
    {"battery/ConcurrentUpDown", 0x60680177d49d1dcbULL},
    {"battery/Telephone", 0xc8b7206e9644f377ULL},
    {"concurrent_updown/no_lookahead", 0xf804752340bfafedULL},
    {"propagate_up", 0x574fa6ef99c51631ULL},
    {"propagate_down", 0x957ae9e683d1edc7ULL},
    {"run_online", 0x87c713300a46597cULL},
    {"adapt/multicast", 0x87c713300a46597cULL},
    {"adapt/telephone", 0x07734920062bd27fULL},
    {"adapt/radio", 0x890102f0b1f0f522ULL},
    {"adapt/beep", 0x890102f0b1f0f522ULL},
    {"adapt/direct", 0x87c713300a46597cULL},
    // Generated on the commit before the repair planners became
    // word-parallel, with `MG_GOLDEN_PRINT=1`.
    {"partial/path", 0xc428130eddd3caddULL},
    {"partial/cycle", 0x2df3416b2ba0a989ULL},
    {"partial/star", 0x07eaafc055de3fafULL},
    {"partial/complete", 0xc657e9b5ca41c8b9ULL},
    {"partial/binary_tree", 0xd348f34dca582676ULL},
    {"partial/ternary_tree", 0xa653a4b75a5885afULL},
    {"partial/grid", 0x64918c4604419ca9ULL},
    {"partial/torus", 0x9b4063014a1ca09dULL},
    {"partial/caterpillar", 0x9b6989ca384ebb58ULL},
    {"partial/random_tree", 0x3e7f1b68d257e286ULL},
    {"partial/random_gnp", 0x9f81e859cb4ded2bULL},
    {"partial/random_geometric", 0x5ef648ae1d03d858ULL},
    {"partial/dead", 0x6f3c39cbae2bc8d0ULL},
    {"partial/split_grid", 0xd39f646c6d431fd6ULL},
    {"partial/wide", 0xad7f18e10367d5c9ULL},
    {"partial/high_degree", 0x1017c6b2e902f7d7ULL},
    {"solve_with_recovery/repairs", 0x8a0142779881afd4ULL},
    {"dist/emergent", 0xdbcd599b98c47ce9ULL},
    // The recovery digests (repair, counts, causal, delayed repair and
    // counts) were regenerated with `MG_GOLDEN_PRINT=1` when digests began
    // announcing an offer and senders began serving what most granters
    // lack.
    {"dist/repair", 0xa6b2a596f21b0807ULL},
    {"dist/counts", 0x5446048ddf40569cULL},
    {"dist/causal", 0x108e291b0595a1cbULL},
    {"dist/delayed/emergent", 0xe1ce0505b1623c7dULL},
    {"dist/delayed/repair", 0x3d7d33b3018bc262ULL},
    {"dist/delayed/counts", 0x5cf3b46c370d8732ULL},
    // Generated on the commit before the eccentricity sweep ran 64 sources
    // per BFS, with `MG_GOLDEN_PRINT=1`.
    {"center/solve_families", 0xfb782ac2f54a15c7ULL},
    {"center/solve_families/pool4", 0xfb782ac2f54a15c7ULL},
    {"metrics/solve_families", 0x80c541657ea75449ULL},
    {"center/battery_n63_to_130", 0xa87f9d16555b3643ULL},
    {"center/battery_n63_to_130/pool4", 0xa87f9d16555b3643ULL},
    {"metrics/battery_n63_to_130", 0xd70cfef7b759f1e6ULL},
    {"center/path65_66", 0x01de4012981398eaULL},
    {"center/path65_66/pool4", 0x01de4012981398eaULL},
    {"metrics/path65_66", 0xb11001d3fdca2b01ULL},
    {"center/grid100x100", 0x22332acb2eafddb8ULL},
    {"center/grid100x100/pool4", 0x22332acb2eafddb8ULL},
    {"metrics/grid100x100", 0x2db3e315db6068b6ULL},
    {"center/hybrid/regular4096", 0x63b3182ea878afacULL},
    {"center/hybrid/regular4096/pool4", 0x63b3182ea878afacULL},
    {"metrics/hybrid/regular4096", 0x20eb02cc707bdfbfULL},
    {"center/hybrid/geometric3000", 0x38022befdcbad192ULL},
    {"center/hybrid/geometric3000/pool4", 0x38022befdcbad192ULL},
    {"metrics/hybrid/geometric3000", 0x0369ddfbfd42c2f6ULL},
    {"solve/grid", 0x91e5e5734b49a30aULL},
    {"solve/regular3", 0x7f2cd47b55e70c24ULL},
    {"solve/geometric", 0x02a484bcfe86fe08ULL},
    {"solve/hypercube", 0x896ee818a281ae2bULL},
};

TEST(ScheduleGolden, EveryDigestMatches) {
  const auto digests = compute_digests();
  if (std::getenv("MG_GOLDEN_PRINT") != nullptr) {
    for (const auto& [name, digest] : digests) {
      std::printf("    {\"%s\", 0x%016" PRIx64 "ULL},\n", name.c_str(),
                  digest);
    }
  }
  ASSERT_EQ(digests.size(), kGolden.size());
  for (std::size_t i = 0; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i].first, kGolden[i].first);
    EXPECT_EQ(digests[i].second, kGolden[i].second) << digests[i].first;
  }
}

}  // namespace
}  // namespace mg
