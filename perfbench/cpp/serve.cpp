// `serve`: two closed-loop clients calling Engine::solve (default
// EngineOptions) over a zipf(1.1) stream of ~1000 small networks (n 24-127,
// G(n, p) and geometric).  Three requests in four ask for ConcurrentUpDown,
// the rest for Simple, UpDown or Telephone, so about 2000 keys compete for
// the 1024-entry cache: hits exercise the engine, steady misses the whole
// pipeline at small n, where fixed per-call costs outweigh the n^2 term.
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "gossip/solve.h"
#include "inputs.h"
#include "model/validator.h"
#include "obs/registry.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mg;

constexpr std::size_t kNetworks = 1000;
constexpr std::size_t kStreamLength = std::size_t{1} << 20;  // cyclic
constexpr std::size_t kWarmupRequests = 6000;
constexpr std::size_t kClients = 2;
constexpr double kTailQuantile = 0.99;
constexpr gossip::Algorithm kAlgorithms[] = {
    gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
    gossip::Algorithm::kConcurrentUpDown, gossip::Algorithm::kTelephone};

struct Request {
  std::uint32_t network = 0;
  gossip::Algorithm algorithm = gossip::Algorithm::kConcurrentUpDown;
};

struct Inputs {
  std::vector<Network> nets;
  std::vector<Request> stream;
};

Inputs make_inputs(std::uint64_t seed) {
  Rand rand(derive_seed(seed, "serve"));
  Inputs in;
  for (std::size_t i = 0; i < kNetworks; ++i) {
    const auto n = static_cast<graph::Vertex>(24 + rand.below(104));
    const double log_n = std::log(static_cast<double>(n));
    if (i % 2 == 0) {
      in.nets.push_back({"gnp", random_gnp(n, 2.0 * log_n / n, rand)});
    } else {
      in.nets.push_back(
          {"geometric",
           random_geometric(n, std::sqrt(2.0 * log_n / (3.14159 * n)),
                            rand)});
    }
    in.nets.back().radius = reference_radius(in.nets.back().g);
  }
  const Zipf zipf(kNetworks, 1.1);
  in.stream.resize(kStreamLength);
  for (Request& req : in.stream) {
    req.network = static_cast<std::uint32_t>(zipf.draw(rand));
    const std::uint64_t pick = rand.below(12);
    req.algorithm = pick < 9 ? gossip::Algorithm::kConcurrentUpDown
                             : kAlgorithms[pick == 9 ? 0 : pick == 10 ? 1 : 3];
  }
  return in;
}

/// Every result validated; ConcurrentUpDown meets Theorem 1 (n + r) and
/// Simple Lemma 1 (2n + r - 3), with r the benchmark's own radius.
std::string check(const Network& net, gossip::Algorithm algorithm,
                  bool report_ok, std::size_t total_time) {
  const std::size_t n = net.g.vertex_count();
  if (!report_ok) return "serve: validation report not ok";
  if (algorithm == gossip::Algorithm::kConcurrentUpDown &&
      total_time != n + net.radius) {
    return "serve: ConcurrentUpDown total_time != n + r";
  }
  if (algorithm == gossip::Algorithm::kSimple &&
      total_time > 2 * n + net.radius - 3) {
    return "serve: Simple total_time > 2n + r - 3";
  }
  return {};
}

bool selftest(std::string& note) {
  Network net{"grid", grid(5, 6)};
  net.radius = reference_radius(net.g);
  engine::Engine engine;
  const engine::ResultPtr good = engine.solve(net.g);
  const bool good_ok = check(net, gossip::Algorithm::kConcurrentUpDown,
                             good->report.ok, good->schedule.total_time())
                           .empty();
  // Broken: the same schedule validated from the wrong initial holdings.
  const gossip::Solution sol = gossip::solve_gossip(net.g);
  const model::ValidationReport broken = model::validate_schedule(
      sol.instance.tree().as_graph(), sol.schedule,
      rotated(sol.instance.initial()));
  const bool caught = !check(net, gossip::Algorithm::kConcurrentUpDown,
                             broken.ok, sol.schedule.total_time())
                           .empty();
  note = std::string("serve checker: correct output ") +
         (good_ok ? "passes" : "FAILS") + ", failed validation report " +
         (caught ? "counted" : "MISSED");
  return good_ok && caught;
}

struct Client {
  std::size_t position = 0;  ///< next stream index (advances by kClients)
  std::vector<double> latency_ms;
  double rounds_ratio_sum = 0.0;
  std::vector<std::string> errors;
};

/// One closed-loop client, until `deadline_ns`.
void client_loop(engine::Engine& engine, const Inputs& in, Client& client,
                 std::int64_t deadline_ns, Tracer* tracer, std::size_t lane) {
  try {
    for (std::size_t k = 0; now_ns() < deadline_ns; ++k) {
      const Request& req = in.stream[client.position % in.stream.size()];
      client.position += kClients;
      const Network& net = in.nets[req.network];
      const std::uint64_t op_id = (std::uint64_t{lane} << 40) | k;
      const std::int64_t start = now_ns();
      engine::ResultPtr result;
      {
        Span op(tracer, lane, "op.serve", op_id);
        Span call(tracer, lane, "engine.solve", op_id);
        result = engine.solve(net.g, req.algorithm);
      }
      client.latency_ms.push_back(static_cast<double>(now_ns() - start) *
                                  1e-6);
      const std::size_t total_time = result->schedule.total_time();
      std::string error =
          check(net, req.algorithm, result->report.ok, total_time);
      if (!error.empty()) client.errors.push_back(std::move(error));
      client.rounds_ratio_sum +=
          ratio(static_cast<double>(total_time),
                net.g.vertex_count() + net.radius);
    }
  } catch (const std::exception& e) {
    client.errors.emplace_back(std::string("serve: exception: ") + e.what());
  }
}

/// Runs both clients for `seconds`; each continues the stream where it
/// left off.
Phase run_clients(engine::Engine& engine, const Inputs& in,
                  std::vector<Client>& clients, double seconds,
                  Tracer* tracer, Ledger& ledger) {
  for (Client& c : clients) {
    c.latency_ms.clear();
    c.latency_ms.reserve(std::size_t{1} << 20);
    c.rounds_ratio_sum = 0.0;
    c.errors.clear();
  }
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back(client_loop, std::ref(engine), std::cref(in),
                           std::ref(clients[c]), deadline, tracer, c);
    }
  }
  Phase phase;
  phase.busy_s = static_cast<double>(now_ns() - start) * 1e-9;
  for (const Client& c : clients) {
    phase.latency_ms.insert(phase.latency_ms.end(), c.latency_ms.begin(),
                            c.latency_ms.end());
    phase.rounds_ratio_sum += c.rounds_ratio_sum;
    for (std::size_t k = 0; k < c.latency_ms.size(); ++k) ledger.op({});
    for (const std::string& error : c.errors) ledger.run_check(false, error);
  }
  return phase;
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  report.selftest_ok = selftest(report.selftest_note);

  Inputs in;
  std::unique_ptr<engine::Engine> engine;
  const auto reset = [&] {
    engine.reset();
    in = Inputs{};
  };
  report.metrics["setup_s"] = median_setup_seconds(3, reset, [&] {
    in = make_inputs(args.seed);
    engine = std::make_unique<engine::Engine>();
    std::vector<std::exception_ptr> errors(kClients);
    {
      std::vector<std::jthread> warm;
      for (std::size_t c = 0; c < kClients; ++c) {
        warm.emplace_back([&, c] {
          try {
            for (std::size_t k = c; k < kWarmupRequests; k += kClients) {
              const Request& req = in.stream[k];
              (void)engine->solve(in.nets[req.network].g, req.algorithm);
            }
          } catch (...) {
            errors[c] = std::current_exception();
          }
        });
      }
    }
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  });

  std::vector<Client> clients(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients[c].position = kWarmupRequests + c;
  }
  Ledger& ledger = report.ledger;

  if (!args.trace) {
    const engine::EngineStats before = engine->stats();
    const Phase phase =
        run_clients(*engine, in, clients, args.seconds, nullptr, ledger);
    const engine::EngineStats after = engine->stats();
    summarize(phase, kTailQuantile, report);
    report.notes.push_back(
        "measured hit ratio " +
        std::to_string(ratio(static_cast<double>(after.hits - before.hits),
                             static_cast<double>(after.requests -
                                                 before.requests))));
  } else {
    // Two clients cannot replay the same ops in step, so the traced phase
    // runs as long as the untraced one instead.
    const Phase untraced = run_clients(*engine, in, clients,
                                       args.seconds / 2, nullptr, ledger);
    Tracer tracer(kClients);
    obs::Registry& registry = obs::Registry::global();
    registry.reset();
    const engine::EngineStats before = engine->stats();
    const Phase traced = run_clients(*engine, in, clients, args.seconds / 2,
                                     &tracer, ledger);
    const engine::EngineStats after = engine->stats();
    const obs::Snapshot snap = registry.snapshot();

    const auto requests = static_cast<double>(after.requests - before.requests);
    double tx = 0.0, deliveries = 0.0, solves = 0.0;
    for (const gossip::Algorithm a : kAlgorithms) {
      const std::string name = "gossip." + gossip::algorithm_name(a);
      tx += static_cast<double>(snap.counter(name + ".transmissions"));
      deliveries += static_cast<double>(snap.counter(name + ".deliveries"));
      solves += static_cast<double>(snap.counter(name + ".runs"));
    }
    const double center_ns = timer_ns(snap, "tree.center_scan_ns");
    const double synth_ns = timer_ns(snap, "gossip.phase.run_algorithm_ns");
    const double validate_ns = timer_ns(snap, "gossip.phase.validate_ns");
    auto& m = report.metrics;
    m["graph.center_ms"] = ratio(center_ns * 1e-6, requests);
    m["graph.center_bfs"] = ratio(
        static_cast<double>(snap.counter("tree.center_scan_bfs")), requests);
    m["tree.build_ms"] = ratio(
        (timer_ns(snap, "gossip.phase.build_instance_ns") - center_ns) * 1e-6,
        requests);
    m["gossip.synth_ms"] = ratio(synth_ns * 1e-6, requests);
    m["gossip.synth_ns_per_tx"] = ratio(synth_ns, tx);
    m["gossip.tx"] = ratio(tx, solves);
    m["gossip.deliveries"] = ratio(deliveries, solves);
    m["model.validate_ms"] = ratio(validate_ns * 1e-6, requests);
    m["model.validate_ns_per_delivery"] = ratio(validate_ns, deliveries);
    m["engine.hit_ratio"] =
        ratio(static_cast<double>(after.hits - before.hits), requests);
    m["engine.evictions"] =
        static_cast<double>(after.evictions - before.evictions);
    m["engine.coalesced"] = static_cast<double>(after.inflight_coalesced -
                                                before.inflight_coalesced);

    const std::int64_t start = now_ns();
    for (const Network& net : in.nets) {
      (void)engine::graph_fingerprint(net.g);
    }
    m["engine.fingerprint_us"] =
        static_cast<double>(now_ns() - start) * 1e-3 /
        static_cast<double>(in.nets.size());
    report.notes.push_back(
        "engine split of traced requests: center " +
        std::to_string(center_ns * 1e-6) + " ms, synthesis " +
        std::to_string(synth_ns * 1e-6) + " ms, validation " +
        std::to_string(validate_ns * 1e-6) + " ms, solves " +
        std::to_string(static_cast<std::uint64_t>(solves)));
    finish_trace(tracer, untraced, traced, args.trace_out, report);
  }

  const engine::EngineStats stats = engine->stats();
  ledger.run_check(stats.hits + stats.misses == stats.requests,
                   "serve: engine hits + misses != requests");
  report.notes.push_back(
      "engine: " + std::to_string(stats.requests) + " requests, " +
      std::to_string(stats.hits) + " hits, " + std::to_string(stats.misses) +
      " misses, " + std::to_string(stats.evictions) + " evictions");
}

}  // namespace perfbench
