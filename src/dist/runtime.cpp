#include "dist/runtime.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <unordered_map>

#include "gossip/online.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "support/contracts.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"

namespace mg::dist {

using graph::Vertex;
using model::Message;

struct ActorRuntime::Impl {
  const gossip::Instance* instance;
  const graph::Graph* network;
  RuntimeOptions options;
  std::vector<ProcessorActor> actors;
  std::unique_ptr<ThreadPool> pool;
  bool ran = false;

  Impl(const gossip::Instance& inst, const graph::Graph& net,
       const RuntimeOptions& opts)
      : instance(&inst), network(&net), options(opts) {
    MG_EXPECTS(net.vertex_count() == inst.vertex_count());
    if (options.threads > 0) {
      pool = std::make_unique<ThreadPool>(options.threads);
    }
  }

  [[nodiscard]] Vertex n() const { return instance->vertex_count(); }

  /// Runs `body(v)` for every actor, over the pool when one exists.
  void for_each_actor(const std::function<void(std::size_t)>& body) {
    if (pool != nullptr) {
      pool->parallel_for(actors.size(), body);
    } else {
      for (std::size_t v = 0; v < actors.size(); ++v) body(v);
    }
  }

  void emit(const obs::TraceEvent& event) {
    if (options.sink != nullptr) options.sink->on_event(event);
  }

  RunReport run(std::size_t horizon);
};

ActorRuntime::ActorRuntime(const gossip::Instance& instance,
                           const graph::Graph& network,
                           const RuntimeOptions& options)
    : impl_(std::make_unique<Impl>(instance, network, options)) {}

ActorRuntime::~ActorRuntime() = default;

namespace {

std::vector<Vertex> network_neighbors(const graph::Graph& g, Vertex v) {
  const auto span = g.neighbors(v);
  return {span.begin(), span.end()};
}

}  // namespace

void ActorRuntime::use_online_rule() {
  Impl& im = *impl_;
  MG_EXPECTS(im.actors.empty());
  const Vertex n = im.n();
  im.actors.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    im.actors.emplace_back(
        v, n, im.instance->labels().label(v),
        network_neighbors(*im.network, v),
        std::make_unique<OnlineRule>(gossip::local_info_for(*im.instance, v)));
  }
}

void ActorRuntime::use_timetable(const model::Schedule& schedule) {
  Impl& im = *impl_;
  MG_EXPECTS(im.actors.empty());
  const Vertex n = im.n();
  std::vector<std::unique_ptr<TimetableRule>> rules =
      TimetableRule::for_all(schedule, n);
  im.actors.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    im.actors.emplace_back(v, n, im.instance->labels().label(v),
                           network_neighbors(*im.network, v),
                           std::move(rules[v]));
  }
}

RunReport ActorRuntime::run(std::size_t horizon) {
  Impl& im = *impl_;
  MG_EXPECTS(!im.actors.empty());  // pick a rule first
  MG_EXPECTS(!im.ran);
  im.ran = true;

  MG_OBS_SPAN(dist_span, "dist.run");
  MG_OBS_SCOPE_HIST(dist_hist, "dist.run_ns");

  const Vertex n = im.n();
  const fault::FaultPlan* plan =
      im.options.faults != nullptr && !im.options.faults->empty()
          ? im.options.faults
          : nullptr;
  const std::size_t max_delay = plan != nullptr ? plan->max_extra_delay() : 0;
  const tree::RootedTree& tree = im.instance->tree();

  MailboxBus bus(n, im.options.seed, max_delay);
  RunReport report;
  report.horizon = horizon;
  // The emergent and repair schedules, captured as transmissions hit the
  // wire.
  model::ScheduleBuilder emergent;
  model::ScheduleBuilder repair;

  std::vector<Outbox> out(n);
  // Trace ids for the happens-before record: one per logical transmission
  // (data multicast, digest fan-out, grant), assigned in the serial
  // capture phases, so ids are deterministic under a fixed seed.
  std::uint64_t next_trace = 0;
  // Round from which each actor is dead (fault::kNever when it never
  // crashes), read from the plan once: capture tests it per envelope.
  std::vector<std::size_t> crash_round(n, fault::kNever);
  if (plan != nullptr) {
    for (Vertex v = 0; v < n; ++v) crash_round[v] = plan->crash_round(v);
  }
  const auto live_at = [&](Vertex v, std::size_t abs_t) {
    return abs_t < crash_round[v];
  };

  // Applies the fabric's verdict to actor v's data transmission at absolute
  // round `abs_t` and, when it survives, captures events/schedule rows and
  // posts the envelopes.  Serial (called in actor-id order).
  auto capture_data = [&](Vertex v, std::size_t abs_t,
                          model::ScheduleBuilder& into, std::size_t local_t,
                          bool main_phase) {
    if (!out[v].data.has_value()) return;
    const model::Transmission& tx = *out[v].data;
    const Vertex first_receiver =
        tx.receivers.empty() ? tx.sender : tx.receivers.front();
    if (!live_at(v, abs_t)) {
      ++report.crashed_sends;
      im.emit({"crash", abs_t, v, tx.message, first_receiver,
                        tx.receivers.size()});
      return;
    }
    if (plan != nullptr && plan->drops(abs_t, v)) {
      ++report.injected_drops;
      im.emit({"drop", abs_t, v, tx.message, first_receiver,
                        tx.receivers.size()});
      return;
    }
    if (out[v].skipped) {
      ++report.skipped_sends;
      im.emit({"skip", abs_t, v, tx.message, first_receiver,
                        tx.receivers.size()});
      return;
    }
    ++report.messages;
    const std::uint64_t id = ++next_trace;
    report.causal.push_back({id, out[v].data_cause,
                             main_phase ? CausalLink::Kind::kData
                                        : CausalLink::Kind::kRepair,
                             abs_t, v, tx.message, tx.receivers.size()});
    im.emit({"send", abs_t, v, tx.message, first_receiver,
             tx.receivers.size(), id, out[v].data_cause});
    into.add(local_t, tx);
    Envelope e;
    e.kind = Envelope::Kind::kData;
    e.sender = v;
    e.message = tx.message;
    e.trace = id;
    for (const Vertex r : tx.receivers) {
      const std::size_t extra =
          plan != nullptr ? plan->extra_delay(v, r) : 0;
      const std::size_t arrival = abs_t + 1 + extra;
      if (!live_at(r, arrival)) {
        ++report.lost_receives;
        im.emit({"lost", arrival, r, tx.message, v, 0});
        continue;
      }
      ++report.deliveries;
      im.emit({"receive", arrival, r, tx.message, v, 0, id, 0});
      // The one bit of link context the §4 online rule distinguishes:
      // whether this delivery rides the o-stream from the tree parent.
      e.from_parent = !tree.is_root(r) && tree.parent(r) == v && main_phase;
      bus.post(r, extra, e);
    }
  };

  // ---- main phase: rounds 0 .. horizon-1 ---------------------------------
  std::size_t barrier = 0;  // bus flips performed (== time unit surfaced)
  for (std::size_t t = 0; t < horizon; ++t) {
    Stopwatch round_watch;
    bus.flip(barrier++);
    im.for_each_actor([&](std::size_t v) {
      // Crashed actors are stepped for accounting only: their planned
      // transmission is captured as a "crash" loss (mirroring the
      // simulator), but they observe nothing — deliveries to them were
      // already voided at routing time.
      out[v] = im.actors[v].step_main(
          t, bus.inbox(static_cast<Vertex>(v)));
    });
    for (Vertex v = 0; v < n; ++v) {
      capture_data(v, t, emergent, t, /*main_phase=*/true);
    }
    MG_OBS_HIST("dist.round_ns", static_cast<std::uint64_t>(round_watch.seconds() * 1e9));
  }
  // Drain: arrivals at times horizon .. horizon + max_delay.
  for (std::size_t a = 0; a <= max_delay; ++a) {
    bus.flip(barrier++);
    im.for_each_actor([&](std::size_t v) {
      im.actors[v].absorb(horizon + a, bus.inbox(static_cast<Vertex>(v)));
    });
  }
  report.emergent = emergent.build();

  // Every actor's own hold row, gathered into one matrix.
  const auto gather_holds = [&] {
    BitMatrix holds(n, n);
    for (Vertex v = 0; v < n; ++v) {
      const auto row = im.actors[v].holds().row(0);
      std::copy(row.begin(), row.end(), holds.row(v).begin());
    }
    return holds;
  };
  report.main_holds = gather_holds();

  // ---- decentralized recovery -------------------------------------------
  auto all_live_complete = [&](std::size_t abs_t) {
    for (Vertex v = 0; v < n; ++v) {
      if (live_at(v, abs_t) && !im.actors[v].complete()) return false;
    }
    return true;
  };

  // Stamps actor v's control batch (one digest fan-out or one grant) with
  // one trace id, records its causal link, and posts the envelope to its
  // live receivers; control envelopes to dead receivers just evaporate.
  // Serial.  True when anything was posted.
  auto capture_control = [&](Vertex v, std::size_t abs_t,
                             CausalLink::Kind kind) {
    const Outbox& o = out[v];
    if (!o.control.has_value() || o.control_to.empty()) return false;
    report.control_messages += o.control_to.size();
    // One id per batch: a multicast is one logical message.
    Envelope e = *o.control;
    e.trace = ++next_trace;
    report.causal.push_back({e.trace, o.control_cause, kind, abs_t, v,
                             e.message, o.control_to.size()});
    bool posted = false;
    for (const Vertex to : o.control_to) {
      if (!live_at(to, abs_t)) continue;
      bus.post(to, 0, e);
      posted = true;
    }
    return posted;
  };

  std::size_t end_abs = horizon;
  if (im.options.recover && !all_live_complete(horizon)) {
    const std::size_t hard_cap =
        4 * static_cast<std::size_t>(n) * static_cast<std::size_t>(n) + 16;
    const std::size_t budget = im.options.extra_round_budget > 0
                                   ? im.options.extra_round_budget
                                   : hard_cap;
    // Digest snapshots: row v holds actor v's hold set as of its latest
    // digest subround, and every digest envelope v sends is a view of that
    // row.  Control envelopes travel with zero delay (MailboxBus::post
    // asserts it), so a digest is read only in the grant subround of its
    // own cycle, before its sender's next digest subround rewrites the
    // row.  The row is a copy: an actor that learns delayed data in its own
    // grant step never changes what its neighbors read.
    BitMatrix snapshots(n, n);
    for (std::size_t q = 0; q < budget; ++q) {
      const std::size_t abs_t = horizon + q;
      end_abs = abs_t;
      Stopwatch cycle_watch;
      // Fold the previous cycle's data arrivals in, then digest.
      bus.flip(barrier++);
      im.for_each_actor([&](std::size_t v) {
        const auto vertex = static_cast<Vertex>(v);
        im.actors[v].learn(bus.inbox(vertex));
        out[v] = live_at(vertex, abs_t)
                     ? im.actors[v].step_digest(snapshots.row(v))
                     : Outbox{};
      });
      if (all_live_complete(abs_t)) break;
      for (Vertex v = 0; v < n; ++v) {
        (void)capture_control(v, abs_t, CausalLink::Kind::kDigest);
      }

      bus.flip(barrier++);
      im.for_each_actor([&](std::size_t v) {
        const auto vertex = static_cast<Vertex>(v);
        out[v] = live_at(vertex, abs_t)
                     ? im.actors[v].step_grant(bus.inbox(vertex))
                     : Outbox{};
      });
      bool any_grant = false;
      for (Vertex v = 0; v < n; ++v) {
        any_grant |= capture_control(v, abs_t, CausalLink::Kind::kGrant);
      }
      if (!any_grant) break;  // quiescence == component closure reached

      bus.flip(barrier++);
      im.for_each_actor([&](std::size_t v) {
        const auto vertex = static_cast<Vertex>(v);
        out[v] = live_at(vertex, abs_t)
                     ? im.actors[v].step_data(bus.inbox(vertex))
                     : Outbox{};
      });
      for (Vertex v = 0; v < n; ++v) {
        capture_data(v, abs_t, repair, q, /*main_phase=*/false);
      }
      ++report.recovery_rounds;
      MG_OBS_HIST("dist.recovery_round_ns",
                  static_cast<std::uint64_t>(cycle_watch.seconds() * 1e9));
    }
    // Absorb the final cycle's in-flight data.
    for (std::size_t a = 0; a <= max_delay; ++a) {
      bus.flip(barrier++);
      im.for_each_actor([&](std::size_t v) {
        im.actors[v].learn(bus.inbox(static_cast<Vertex>(v)));
      });
    }
    report.repair = repair.build();
  }

  // ---- final accounting: the verdict solve_with_recovery gives --------
  report.final_holds = gather_holds();
  static_cast<gossip::HoldVerdict&>(report) = gossip::hold_verdict(
      *im.network, report.final_holds,
      plan != nullptr ? plan->alive_at(end_abs, n) : std::vector<char>(n, 1));

  MG_OBS_ADD("dist.causal_links", report.causal.size());
  MG_OBS_ADD("dist.runs", 1);
  MG_OBS_ADD("dist.rounds", horizon);
  MG_OBS_ADD("dist.recovery.rounds", report.recovery_rounds);
  MG_OBS_ADD("dist.messages", report.messages);
  MG_OBS_ADD("dist.deliveries", report.deliveries);
  MG_OBS_ADD("dist.control_messages", report.control_messages);
  MG_OBS_ADD("dist.injected_drops", report.injected_drops);
  MG_OBS_ADD("dist.crashed_sends", report.crashed_sends);
  MG_OBS_ADD("dist.skipped_sends", report.skipped_sends);
  MG_OBS_ADD("dist.lost_receives", report.lost_receives);
  return report;
}

CriticalPath critical_path(const RunReport& report) {
  CriticalPath path;
  std::unordered_map<std::uint64_t, const CausalLink*> by_id;
  by_id.reserve(report.causal.size());
  for (const CausalLink& link : report.causal) by_id.emplace(link.id, &link);

  // The chain tip: the data hop with the latest arrival (send round + 1).
  // Control hops never extend past their cycle's data round, so only data
  // and repair links compete; ties prefer the later-captured link so a
  // recovery tail, when present, is the chain reported.
  const CausalLink* tip = nullptr;
  for (const CausalLink& link : report.causal) {
    if (link.kind != CausalLink::Kind::kData &&
        link.kind != CausalLink::Kind::kRepair) {
      continue;
    }
    if (tip == nullptr || link.round > tip->round ||
        (link.round == tip->round && link.id > tip->id)) {
      tip = &link;
    }
  }
  if (tip == nullptr) return path;
  path.length = tip->round + 1;

  // Walk parents to the root.  A parent's id is always smaller than its
  // child's (the enabling arrival was captured before the send), so the
  // walk terminates; a parent evicted from the record ends the chain.
  for (const CausalLink* hop = tip; hop != nullptr;) {
    path.hops.push_back(*hop);
    if (hop->parent == 0) break;
    const auto it = by_id.find(hop->parent);
    hop = it == by_id.end() ? nullptr : it->second;
  }
  std::reverse(path.hops.begin(), path.hops.end());
  return path;
}

std::vector<obs::FlowEvent> flow_events(const RunReport& report) {
  std::vector<obs::FlowEvent> flows;
  flows.reserve(report.causal.size());
  for (const CausalLink& link : report.causal) {
    flows.push_back({link.id, link.parent,
                     static_cast<std::uint32_t>(link.kind), link.round,
                     link.sender, link.message, link.fanout});
  }
  return flows;
}

VerifyReport verify_against_schedule(const model::Schedule& central,
                                     const model::Schedule& emergent,
                                     Vertex n, std::uint32_t radius) {
  VerifyReport report;
  report.central_rounds = central.round_count();
  report.emergent_rounds = emergent.round_count();
  report.n_plus_r_ok =
      emergent.round_count() == static_cast<std::size_t>(n) + radius;

  // A schedule past its last round reads as empty rounds.
  const std::size_t rounds =
      std::max(central.round_count(), emergent.round_count());
  model::RoundCursor central_round(central);
  model::RoundCursor emergent_round(emergent);
  for (std::size_t t = 0; t < rounds; ++t) {
    const std::vector<model::Tx> a = model::canonical_round(
        central, central_round.next() ? central_round.txs()
                                      : std::span<const model::Tx>{});
    const std::vector<model::Tx> b = model::canonical_round(
        emergent, emergent_round.next() ? emergent_round.txs()
                                        : std::span<const model::Tx>{});
    bool equal = a.size() == b.size();
    for (std::size_t i = 0; equal && i < a.size(); ++i) {
      const auto ra = central.receivers(a[i]);
      const auto rb = emergent.receivers(b[i]);
      equal = a[i].sender == b[i].sender && a[i].message == b[i].message &&
              std::equal(ra.begin(), ra.end(), rb.begin(), rb.end());
    }
    if (!equal) {
      report.first_mismatch_round = t;
      std::ostringstream detail;
      detail << "round " << t << ": central has " << a.size()
             << " transmissions, emergent has " << b.size();
      for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        const auto render = [](const model::Schedule& schedule,
                               const std::vector<model::Tx>& txs,
                               std::size_t j) -> std::string {
          if (j >= txs.size()) return "(none)";
          std::ostringstream s;
          s << "msg " << txs[j].message << ": " << txs[j].sender << " -> {";
          const auto receivers = schedule.receivers(txs[j]);
          for (std::size_t k = 0; k < receivers.size(); ++k) {
            s << (k > 0 ? ", " : "") << receivers[k];
          }
          s << "}";
          return s.str();
        };
        const std::string ca = render(central, a, i);
        const std::string cb = render(emergent, b, i);
        if (ca != cb) {
          detail << "\n  central:  " << ca << "\n  emergent: " << cb;
        }
      }
      report.detail = detail.str();
      return report;
    }
  }
  report.match = true;
  return report;
}

DistOutcome run_distributed(const graph::Graph& g,
                            gossip::Algorithm algorithm,
                            const RuntimeOptions& options) {
  DistOutcome outcome{gossip::solve_gossip(g, algorithm), {}, {}};
  ActorRuntime runtime(outcome.central.instance, g, options);
  if (algorithm == gossip::Algorithm::kConcurrentUpDown) {
    runtime.use_online_rule();
  } else {
    runtime.use_timetable(outcome.central.schedule);
  }
  outcome.run = runtime.run(outcome.central.schedule.round_count());
  outcome.verify = verify_against_schedule(
      outcome.central.schedule, outcome.run.emergent,
      outcome.central.instance.vertex_count(),
      outcome.central.instance.radius());
  return outcome;
}

}  // namespace mg::dist
