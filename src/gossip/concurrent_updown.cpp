#include "gossip/concurrent_updown.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/span.h"
#include "support/contracts.h"

namespace mg::gossip {

namespace {

using model::Message;
using model::Schedule;
using model::ScheduleBuilder;
using tree::Label;
using tree::Vertex;

/// Which halves of the algorithm to synthesize.
struct Phases {
  bool up = true;
  bool down = true;
  bool lookahead = true;  ///< step (U3)
};

/// `skip` of a down send that reaches every child.
constexpr std::uint32_t kAllChildren = 0xffffffffU;

/// Sends of one vertex in rounds t0..t1, message m0 + (t - t0) in round t;
/// a down segment goes to every child but the one at index `skip`.
struct Segment {
  std::int64_t t0;
  std::int64_t t1;
  std::int64_t m0;
  std::uint32_t skip = kAllChildren;
};

/// Calls keep(s, e) for the parts of rounds [first, last] outside [a, b].
template <typename Keep>
void cut(std::int64_t first, std::int64_t last, std::int64_t a, std::int64_t b,
         Keep&& keep) {
  if (b < first || a > last) {
    keep(first, last);
    return;
  }
  if (first < a) keep(first, a - 1);
  if (b < last) keep(b + 1, last);
}

/// One run of a vertex's sends: rounds t0..t1, message m0 + (t - t0) in
/// round t, and one receiver set, `Runs::receivers[first .. first + count)`.
struct Run {
  std::uint32_t t0;
  std::uint32_t t1;
  Message m0;
  std::uint32_t first;
  std::uint32_t count;
};

/// Every send of the schedule as runs, each vertex's in round order, and
/// the totals they add up to.
struct Runs {
  std::vector<Run> runs;
  std::vector<std::uint32_t> begin;  ///< per vertex: its first run
  std::vector<std::uint32_t> end;    ///< per vertex: one past its last run
  std::vector<Vertex> receivers;
  std::uint64_t tuples = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t rounds = 0;
};

/// Derives every vertex's sends as runs, top-down in DFS preorder.  Up and
/// (D3) sends are closed-form in (i, j, k, w).  By (D2) a vertex relays
/// what its parent sent down one round earlier, except its own b-messages
/// and the two arrivals at times i-k and i-k+1, held until j-k+1 and
/// j-k+2.  Inside a segment the message rises by one per round, so each
/// exception cuts a segment at most in two: the state is O(runs), not
/// O(transmissions).  An up and a down send of one vertex in one round are
/// one tuple; by Theorem 1 they carry the same message, and two messages in
/// one send slot fail an invariant.
Runs derive_runs(const Instance& instance, const Phases& phases) {
  const auto& tree = instance.tree();
  const auto& labels = instance.labels();
  const Vertex n = tree.vertex_count();
  MG_EXPECTS_MSG(n < (Vertex{1} << 31), "schedule exceeds 32-bit rounds");
  Runs out;
  out.begin.assign(n, 0);
  out.end.assign(n, 0);
  // The down sends of the current vertex's ancestors as their children
  // hear them: the segments coalesced wherever the message keeps rising,
  // whatever the skip.  Preorder visits a subtree contiguously, so this is
  // a stack along the path from the root.
  std::vector<Segment> heard;
  std::vector<std::uint32_t> heard_begin(n, 0);
  std::vector<std::uint32_t> heard_end(n, 0);
  std::vector<Segment> down;  // the current vertex's down segments
  std::vector<Segment> up;    // and its up segments
  for (Label label = 0; label < n; ++label) {
    const Vertex v = labels.vertex_of(label);
    const std::int64_t i = label;
    const std::int64_t j = labels.subtree_end(v);
    const std::int64_t k = tree.level(v);
    MG_ASSERT(i >= k);  // DFS preorder label is at least the depth
    const auto kids = tree.children(v);
    const bool has_parent = !tree.is_root(v);
    heard.resize(has_parent ? heard_end[tree.parent(v)] : 0);

    down.clear();
    if (phases.down && !kids.empty()) {
      // (D3): message i goes to every child at i - k, or at j - k + 1 when
      // i == k (it would otherwise collide with the first child's lookahead
      // receive at 1).  With two or more children, b-message m goes to all
      // but its owner at m - k.
      const std::int64_t first_down = i == k ? j - k + 1 : i - k;
      down.push_back({first_down, first_down, i});
      for (std::uint32_t c = 0; kids.size() > 1 && c < kids.size(); ++c) {
        const std::int64_t ic = labels.label(kids[c]);
        down.push_back({ic - k, labels.subtree_end(kids[c]) - k, ic, c});
      }
      // (D2): the parent's down sends arrive one round later, in rounds
      // s..e carrying m, m + 1, ...  v's own b-messages are dropped, and the
      // arrivals at i-k and i-k+1 wait until j-k+1 and j-k+2 (the slots
      // i-k..j-k are taken by (D3)).
      const auto relay = [&](std::int64_t s, std::int64_t e, std::int64_t m) {
        cut(s, e, s + i - m, s + j - m, [&](std::int64_t a, std::int64_t b) {
          for (std::int64_t slot = 0; slot < 2; ++slot) {
            const std::int64_t held = i - k + slot;
            const std::int64_t at = j - k + 1 + slot;
            if (a <= held && held <= b) down.push_back({at, at, m + held - s});
          }
          cut(a, b, i - k, i - k + 1, [&](std::int64_t c, std::int64_t d) {
            down.push_back({c, d, m + c - s});
          });
        });
      };
      if (has_parent) {
        const Vertex p = tree.parent(v);
        for (std::uint32_t x = heard_begin[p]; x < heard_end[p]; ++x) {
          relay(heard[x].t0 + 1, heard[x].t1 + 1, heard[x].m0);
        }
      }
      std::sort(down.begin(), down.end(),
                [](const Segment& a, const Segment& b) { return a.t0 < b.t0; });
      heard_begin[v] = static_cast<std::uint32_t>(heard.size());
      heard.push_back({down[0].t0, down[0].t1, down[0].m0});
      for (std::size_t x = 1; x < down.size(); ++x) {
        const Segment& d = down[x];
        MG_ASSERT_MSG(down[x - 1].t1 < d.t0,
                      "up/down schedules send different messages at one time");
        Segment& last = heard.back();
        if (last.t1 + 1 == d.t0 && last.m0 + last.t1 - last.t0 + 1 == d.m0) {
          last.t1 = d.t1;
        } else {
          heard.push_back({d.t0, d.t1, d.m0});
        }
      }
      heard_end[v] = static_cast<std::uint32_t>(heard.size());
    }

    up.clear();
    if (phases.up && has_parent) {
      // (U3)/(U4): the lip-message i leaves for the parent at time 0, and
      // message m at time m - k.
      const std::int64_t w = phases.lookahead ? labels.lip_count(v) : 0;
      if (w == 1) up.push_back({0, 0, i});
      if (i + w <= j) up.push_back({i + w - k, j - k, i + w});
    }

    // Merge the two lists into runs: a run ends where a segment ends or
    // where the other list's next segment starts.
    constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
    out.begin[v] = static_cast<std::uint32_t>(out.runs.size());
    std::int64_t from = 0;  // rounds before `from` are merged
    for (std::size_t a = 0, b = 0; a < up.size() || b < down.size();) {
      const std::int64_t us = a < up.size() ? std::max(up[a].t0, from) : kNever;
      const std::int64_t ds = b < down.size() ? std::max(down[b].t0, from)
                                              : kNever;
      const std::int64_t s = std::min(us, ds);
      const std::int64_t e = std::min(us == s ? up[a].t1 : us - 1,
                                      ds == s ? down[b].t1 : ds - 1);
      const std::int64_t m = ds == s ? down[b].m0 + s - down[b].t0
                                     : up[a].m0 + s - up[a].t0;
      MG_ASSERT_MSG(us != s || m == up[a].m0 + s - up[a].t0,
                    "up/down schedules send different messages at one time");
      // The run's receiver set, built once: the children but the skipped
      // one, and the parent, in order.
      const std::size_t first = out.receivers.size();
      for (std::uint32_t c = 0; ds == s && c < kids.size(); ++c) {
        if (c != down[b].skip) out.receivers.push_back(kids[c]);
      }
      if (us == s) out.receivers.push_back(tree.parent(v));
      std::sort(out.receivers.begin() + static_cast<std::ptrdiff_t>(first),
                out.receivers.end());
      const auto count =
          static_cast<std::uint32_t>(out.receivers.size() - first);
      out.runs.push_back(
          {static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(e),
           static_cast<Message>(m), static_cast<std::uint32_t>(first), count});
      const auto rounds = static_cast<std::uint64_t>(e - s + 1);
      out.tuples += rounds;
      out.deliveries += rounds * count;
      out.rounds = std::max(out.rounds, static_cast<std::uint64_t>(e + 1));
      from = e + 1;
      if (us == s && e == up[a].t1) ++a;
      if (ds == s && e == down[b].t1) ++b;
    }
    out.end[v] = static_cast<std::uint32_t>(out.runs.size());
  }
  return out;
}

/// Hands the runs to the builder: vertices in id order, each one's runs in
/// round order.  Senders never fall, so the builder stores the runs without
/// visiting a tuple; a round's tuples come out sender-ascending.
Schedule synthesize(const Instance& instance, const Phases& phases) {
  const Runs runs = derive_runs(instance, phases);
  ScheduleBuilder builder;
  builder.reserve(runs.runs.size(), runs.receivers.size());
  for (Vertex v = 0; v < instance.tree().vertex_count(); ++v) {
    for (std::uint32_t x = runs.begin[v]; x < runs.end[v]; ++x) {
      const Run& run = runs.runs[x];
      builder.add_run(run.t0, run.t1 - run.t0 + 1, run.m0, v,
                      std::span<const Vertex>(runs.receivers)
                          .subspan(run.first, run.count));
    }
  }
  Schedule schedule = builder.build();
  MG_ENSURES(schedule.transmission_count() == runs.tuples &&
             schedule.delivery_count() == runs.deliveries &&
             schedule.round_count() == runs.rounds);
  return schedule;
}

}  // namespace

Schedule propagate_up(const Instance& instance,
                      const ConcurrentUpDownOptions& options) {
  return synthesize(instance, {true, false, options.lookahead_at_time_zero});
}

Schedule propagate_down(const Instance& instance) {
  return synthesize(instance, {false, true, true});
}

Schedule concurrent_updown(const Instance& instance,
                           const ConcurrentUpDownOptions& options) {
  MG_OBS_SPAN(algo_span, "gossip.concurrent_updown");
  return synthesize(instance, {true, true, options.lookahead_at_time_zero});
}

}  // namespace mg::gossip
