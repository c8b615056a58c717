// Causal tracing tests for the mg::dist actor runtime (ISSUE 10): the
// happens-before record every run captures, the critical path extracted
// from it, and its export as Chrome-trace flow events.
//
// The headline gates are exact, not approximate:
//  * fault-free ConcurrentUpDown: critical_path().length == n + r — the
//    Theorem 1 bound is causally tight (some chain of actual message hops
//    spans the whole run);
//  * under injected drops that force recovery: the length grows by
//    precisely the recovery data rounds executed, n + r + recovery_rounds.
//
// Chain validity, capture completeness (one link per transmission on the
// wire), independence from the bus seed (copies of one message that land
// in one inbox together tie by trace id, not by delivery order), and the
// flow-trace JSON round-trip through the repo's JSON reader are checked
// alongside.  RunReport.causal is always recorded (independent of MG_OBS),
// so every test also gates the -DMG_OBS=OFF build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dist/runtime.h"
#include "fault/fault.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "obs/trace_export.h"
#include "support/json_read.h"
#include "support/rng.h"
#include "test_util.h"

namespace mg::dist {
namespace {

using support::JsonValue;
using support::parse_json;

/// Asserts the structural invariants of a reported critical path: the
/// chain starts at a root (parent 0), every later hop's parent is the
/// previous hop, and send rounds strictly increase along the chain.
void expect_valid_chain(const CriticalPath& path) {
  ASSERT_FALSE(path.hops.empty());
  EXPECT_EQ(path.hops.front().parent, 0u) << "chain must start at a root";
  for (std::size_t i = 1; i < path.hops.size(); ++i) {
    EXPECT_EQ(path.hops[i].parent, path.hops[i - 1].id)
        << "hop " << i << " must be enabled by the previous hop";
    EXPECT_GT(path.hops[i].round, path.hops[i - 1].round)
        << "rounds must strictly increase along the chain";
  }
}

TEST(DistCausal, CriticalPathIsExactlyNPlusRFaultFree) {
  const std::pair<std::string, graph::Graph> graphs[] = {
      {"n1_cycle", graph::n1_cycle()},
      {"petersen", graph::petersen()},
      {"n3_witness", graph::n3_witness()},
      {"fig4", graph::fig4_network()},
  };
  for (const auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    const DistOutcome outcome =
        run_distributed(g, gossip::Algorithm::kConcurrentUpDown);
    ASSERT_TRUE(outcome.run.complete);
    ASSERT_EQ(outcome.run.recovery_rounds, 0u);
    const std::size_t n = outcome.central.instance.vertex_count();
    const std::size_t r = outcome.central.instance.radius();
    const CriticalPath path = critical_path(outcome.run);
    EXPECT_EQ(path.length, n + r) << "Theorem 1 must be causally tight";
    expect_valid_chain(path);
    EXPECT_EQ(path.hops.back().round + 1, path.length)
        << "length is the last data hop's arrival time";
  }
}

TEST(DistCausal, CriticalPathAcrossFamilies) {
  for (const auto& family : test::families()) {
    for (const graph::Vertex knob : {4u, 7u}) {
      SCOPED_TRACE(family.name + " knob=" + std::to_string(knob));
      const graph::Graph g = family.make(knob);
      const DistOutcome outcome =
          run_distributed(g, gossip::Algorithm::kConcurrentUpDown);
      ASSERT_TRUE(outcome.run.complete);
      const std::size_t n = outcome.central.instance.vertex_count();
      const std::size_t r = outcome.central.instance.radius();
      const CriticalPath path = critical_path(outcome.run);
      EXPECT_EQ(path.length, n + r);
      expect_valid_chain(path);
    }
  }
}

TEST(DistCausal, DropsLengthenByExactlyTheRecoveryRounds) {
  // Deterministic early-round drops plus seeded probabilistic plans; any
  // plan that forces recovery must lengthen the causal critical path by
  // precisely the recovery data rounds the run executed.
  struct Case {
    std::string name;
    fault::FaultPlan plan;
  };
  std::vector<Case> cases;
  {
    Case c{"deterministic-drop-r0-s0", {}};
    c.plan.drop(0, 0).drop(1, 0);
    cases.push_back(std::move(c));
  }
  for (const std::uint64_t seed : {7ull, 21ull, 99ull}) {
    Case c{"rate-0.2-seed-" + std::to_string(seed), {}};
    c.plan.drop_rate(0.2).seed(seed);
    cases.push_back(std::move(c));
  }

  std::size_t recovered_runs = 0;
  for (const auto& [name, plan] : cases) {
    SCOPED_TRACE(name);
    RuntimeOptions options;
    options.faults = &plan;
    const DistOutcome outcome = run_distributed(
        graph::petersen(), gossip::Algorithm::kConcurrentUpDown, options);
    ASSERT_TRUE(outcome.run.complete) << "recovery must finish the gossip";
    const std::size_t n = outcome.central.instance.vertex_count();
    const std::size_t r = outcome.central.instance.radius();
    const CriticalPath path = critical_path(outcome.run);
    EXPECT_EQ(path.length, n + r + outcome.run.recovery_rounds);
    expect_valid_chain(path);
    if (outcome.run.recovery_rounds > 0) ++recovered_runs;
  }
  EXPECT_GT(recovered_runs, 0u)
      << "at least one plan must actually force recovery";
}

TEST(DistCausal, EveryWireTransmissionIsCaptured) {
  // One causal link per transmission that hit the wire: data links match
  // the emergent schedule exactly; ids are 1-based, unique, and in capture
  // order; no link dangles (every parent is an earlier captured id).
  const DistOutcome outcome =
      run_distributed(graph::petersen(), gossip::Algorithm::kConcurrentUpDown);
  const std::vector<CausalLink>& causal = outcome.run.causal;
  ASSERT_FALSE(causal.empty());

  std::size_t data_links = 0;
  std::set<std::uint64_t> seen;
  for (const CausalLink& link : causal) {
    EXPECT_GE(link.id, 1u);
    EXPECT_TRUE(seen.insert(link.id).second) << "duplicate trace id";
    if (link.parent != 0) {
      EXPECT_TRUE(seen.count(link.parent) != 0)
          << "parent " << link.parent << " must be captured before "
          << link.id;
    }
    if (link.kind == CausalLink::Kind::kData) ++data_links;
  }
  EXPECT_EQ(data_links, outcome.run.emergent.transmission_count());
  EXPECT_EQ(causal.size(), outcome.run.messages + outcome.run.control_messages);
}

/// Index of the first link where `a` and `b` differ in any field (the
/// shorter size when one is a prefix of the other); SIZE_MAX when equal.
std::size_t first_difference(const std::vector<CausalLink>& a,
                             const std::vector<CausalLink>& b) {
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i].id != b[i].id || a[i].parent != b[i].parent ||
        a[i].kind != b[i].kind || a[i].round != b[i].round ||
        a[i].sender != b[i].sender || a[i].message != b[i].message ||
        a[i].fanout != b[i].fanout) {
      return i;
    }
  }
  return a.size() == b.size() ? SIZE_MAX : std::min(a.size(), b.size());
}

TEST(DistCausal, RecordIsIndependentOfTheBusSeed) {
  // Per-edge delays land copies of one message in one inbox at one flip.
  // They arrived together, so which of them a relay names as its parent,
  // and which arrival a digest names, must not depend on the order the
  // bus's seeded shuffle put them in: the whole record is the same under
  // every bus seed.
  for (graph::Vertex s = 0; s < 12; ++s) {
    const graph::Graph g = graph::grid(5 + s % 3, 6 + s % 2);
    const gossip::Algorithm algorithm = s % 2 == 0
                                            ? gossip::Algorithm::kSimple
                                            : gossip::Algorithm::kUpDown;
    SCOPED_TRACE("sweep " + std::to_string(s) + " " +
                 gossip::algorithm_name(algorithm));
    const gossip::Solution solution = gossip::solve_gossip(g, algorithm);
    const std::size_t horizon = solution.schedule.round_count();
    fault::FaultPlan plan;
    plan.drop_rate(0.05).seed(0xca5eULL + s);
    if (s % 3 == 0) plan.crash(s + 7, horizon / 2);
    Rng rng(0xde1a7ULL + s);
    for (const auto& [u, v] : g.edges()) {
      if (rng.below(3) == 0) plan.delay(u, v, 1 + rng.below(3));
    }
    std::vector<CausalLink> reference;
    for (std::uint64_t bus = 0; bus < 8; ++bus) {
      RuntimeOptions options;
      options.faults = &plan;
      options.seed = bus;
      ActorRuntime runtime(solution.instance, g, options);
      runtime.use_timetable(solution.schedule);
      const RunReport run = runtime.run(horizon);
      if (bus == 0) {
        reference = run.causal;
        continue;
      }
      EXPECT_EQ(first_difference(reference, run.causal), SIZE_MAX)
          << "bus seed " << bus;
    }
  }
}

TEST(DistCausal, FlowTraceRoundTripsThroughParser) {
  // Export the run's happens-before record as Chrome-trace flow events and
  // parse it back: one pid-2 slice per link, one "s"/"f" pair per edge,
  // every flow id resolving to a slice with that id.
  const DistOutcome outcome =
      run_distributed(graph::petersen(), gossip::Algorithm::kConcurrentUpDown);
  const std::vector<obs::FlowEvent> flows = flow_events(outcome.run);
  ASSERT_EQ(flows.size(), outcome.run.causal.size());
  const auto edges = static_cast<std::size_t>(std::count_if(
      outcome.run.causal.begin(), outcome.run.causal.end(),
      [](const CausalLink& link) { return link.parent != 0; }));

  std::ostringstream out;
  obs::write_chrome_trace(out, {}, flows);
  const std::string text = out.str();
  const JsonValue doc = parse_json(text);
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);

  std::set<std::uint64_t> slice_ids;
  std::size_t starts = 0;
  std::size_t finishes = 0;
  for (const JsonValue& e : events.array) {
    const std::string& ph = e.at("ph").string;
    if (ph == "X") {
      EXPECT_EQ(e.at("pid").as_u64(), 2u);
      slice_ids.insert(e.at("args").at("id").as_u64());
    } else if (ph == "s" || ph == "f") {
      const std::uint64_t id = e.at("id").as_u64();
      EXPECT_TRUE(slice_ids.count(id) != 0 ||
                  id <= outcome.run.causal.size())
          << "flow id " << id << " must name a captured transmission";
      (ph == "s" ? starts : finishes) += 1;
    }
  }
  EXPECT_EQ(slice_ids.size(), flows.size());
  EXPECT_EQ(starts, edges);
  EXPECT_EQ(finishes, edges);

  // Every "s"/"f" id must be a rendered slice's id.
  for (const JsonValue& e : events.array) {
    const std::string& ph = e.at("ph").string;
    if (ph == "s" || ph == "f") {
      EXPECT_TRUE(slice_ids.count(e.at("id").as_u64()) != 0);
    }
  }
}

}  // namespace
}  // namespace mg::dist
