#include "gossip/concurrent_updown.h"

#include <algorithm>
#include <utility>
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

/// `skip` value of a down send that reaches every child.
constexpr std::uint32_t kAllChildren = 0xffffffffU;

/// "No message" in the per-vertex state below.
constexpr Message kNone = 0xffffffffU;

/// What one vertex needs to decide its sends: the paper's i, j, k and w,
/// plus its tree neighborhood.
struct VertexRule {
  Label i = 0;
  Label j = 0;
  std::uint32_t k = 0;
  std::uint32_t w = 0;
  Vertex parent = graph::kNoVertex;
  std::uint32_t children = 0;
  std::size_t first_down = 0;  ///< time of the (D3) send of message i
  bool up = false;             ///< sends to the parent
  bool down = false;           ///< sends to the children
};

/// Enumerates every send of the schedule once, round by round and inside a
/// round by sender id, as emit(t, message, sender, to_parent, to_children,
/// skip): the tuple goes to the parent when `to_parent`, and to every child
/// of the sender except the one at index `skip` (kAllChildren: all of them)
/// when `to_children`.  An up and a down send of one vertex at one time are
/// one call; by Theorem 1 they carry the same message, and two different
/// messages in one send slot fail an invariant.
///
/// Up and (D3) send times are closed-form in (i, j, k).  The (D2) relays
/// replay the parent's down sends of the previous round, as each processor
/// does online (§4), so the state kept is O(n): per vertex its last down
/// send, the two arrivals (D2) holds back, and the (D3) owner cursor.
template <typename Emit>
void for_each_send(const Instance& instance, const Phases& phases,
                   Emit&& emit) {
  const auto& tree = instance.tree();
  const auto& labels = instance.labels();
  const Vertex n = tree.vertex_count();

  std::vector<VertexRule> rules(n);
  std::size_t horizon = 0;  // one past the last closed-form send time
  for (Vertex v = 0; v < n; ++v) {
    VertexRule& r = rules[v];
    r.i = labels.label(v);
    r.j = labels.subtree_end(v);
    r.k = tree.level(v);
    MG_ASSERT(r.i >= r.k);  // DFS preorder label is at least the depth
    r.children = static_cast<std::uint32_t>(tree.children(v).size());
    r.up = phases.up && !tree.is_root(v);
    r.down = phases.down && r.children > 0;
    r.parent = tree.is_root(v) ? graph::kNoVertex : tree.parent(v);
    r.w = r.up && phases.lookahead ? labels.lip_count(v) : 0;
    // (D3) message i goes at i - k, or at j - k + 1 when i == k (it would
    // otherwise collide with the first child's lookahead receive at 1).
    r.first_down = r.i == r.k ? r.j - r.k + 1 : r.i - r.k;
    horizon = std::max<std::size_t>(horizon, r.j - r.k + 3);
  }

  std::vector<Message> sent_down(n, kNone);  // down sends of round t - 1
  std::vector<Message> sending_down(n, kNone);
  std::vector<Message> held_back(2 * static_cast<std::size_t>(n), kNone);
  std::vector<std::uint32_t> owner(n, 0);  // child owning the (D3) message
  bool any_down = true;
  for (std::size_t t = 0; t < horizon || any_down; ++t) {
    any_down = false;
    for (Vertex v = 0; v < n; ++v) {
      const VertexRule& r = rules[v];
      sending_down[v] = kNone;
      if (!r.up && !r.down) continue;
      const std::size_t m_now = t + r.k;  // the subtree message of slot t

      // (U3)/(U4): message m leaves for the parent at time m - k, the
      // lip-message i at time 0.
      Message up = kNone;
      if (r.up) {
        if (r.w == 1 && t == 0) {
          up = r.i;
        } else if (m_now >= r.i + r.w && m_now <= r.j) {
          up = static_cast<Message>(m_now);
        }
      }

      Message down = kNone;
      std::uint32_t skip = kAllChildren;
      const auto send_down = [&](Message m) {
        MG_ASSERT_MSG(down == kNone,
                      "up/down schedules send different messages at one time");
        down = m;
      };
      if (r.down) {
        // (D3): b-message m goes to every child but its owner at m - k.  A
        // vertex with a single child owns no (D3) send but message i's.
        if (t == r.first_down) {
          send_down(r.i);
        } else if (r.children > 1 && m_now > r.i && m_now <= r.j) {
          const auto kids = tree.children(v);
          while (labels.subtree_end(kids[owner[v]]) < m_now) ++owner[v];
          send_down(static_cast<Message>(m_now));
          skip = owner[v];
        }
        // (D2): o-messages are relayed to all children the round they
        // arrive from the parent, except arrivals at times i-k and i-k+1,
        // which wait until j-k+1 and j-k+2 (the send slots i-k..j-k are
        // taken by (D3)).
        if (r.parent != graph::kNoVertex) {
          Message* held = &held_back[2 * static_cast<std::size_t>(v)];
          const Message arrived = sent_down[r.parent];
          if (arrived != kNone && (arrived < r.i || arrived > r.j)) {
            if (t == r.i - r.k) {
              held[0] = arrived;
            } else if (t == r.i - r.k + 1) {
              held[1] = arrived;
            } else {
              send_down(arrived);
            }
          }
          for (std::size_t slot = 0; slot < 2; ++slot) {
            if (t == r.j - r.k + 1 + slot && held[slot] != kNone) {
              send_down(std::exchange(held[slot], kNone));
            }
          }
        }
      }

      if (up != kNone && down != kNone) {
        MG_ASSERT_MSG(up == down,
                      "up/down schedules send different messages at one time");
        emit(t, up, v, true, true, skip);
      } else if (up != kNone) {
        emit(t, up, v, true, false, kAllChildren);
      } else if (down != kNone) {
        emit(t, down, v, false, true, skip);
      }
      if (down != kNone) {
        sending_down[v] = down;
        any_down = true;
      }
    }
    std::swap(sent_down, sending_down);
  }
}

/// Two passes over the sends: count them per round, then write each into
/// its slot of the exact-size arrays, front to back.
Schedule synthesize(const Instance& instance, const Phases& phases) {
  const auto& tree = instance.tree();
  ScheduleBuilder builder;
  for_each_send(instance, phases,
                [&](std::size_t t, Message, Vertex v, bool to_parent,
                    bool to_children, std::uint32_t skip) {
                  std::size_t fanout = to_parent ? 1 : 0;
                  if (to_children) {
                    fanout += tree.children(v).size() -
                              (skip == kAllChildren ? 0 : 1);
                  }
                  builder.count(t, fanout);
                });
  builder.allocate();
  std::vector<Vertex> receivers;
  for_each_send(instance, phases,
                [&](std::size_t t, Message m, Vertex v, bool to_parent,
                    bool to_children, std::uint32_t skip) {
                  if (!to_parent && skip == kAllChildren) {
                    builder.add(t, m, v, tree.children(v));  // (D2), (D3) i
                    return;
                  }
                  receivers.clear();
                  if (to_children) {
                    const auto kids = tree.children(v);
                    for (std::uint32_t c = 0; c < kids.size(); ++c) {
                      if (c != skip) receivers.push_back(kids[c]);
                    }
                  }
                  if (to_parent) {
                    const Vertex parent = tree.parent(v);
                    receivers.insert(std::upper_bound(receivers.begin(),
                                                      receivers.end(), parent),
                                     parent);
                  }
                  builder.add(t, m, v, receivers);
                });
  return builder.build();
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
