// Seeded input generation.  Every graph, stream and plan a workload uses is
// drawn here from --seed during set-up and handed to the library as a plain
// value; the generators are the benchmark's own (std::mt19937_64, whose
// output the C++ standard fixes), so a library change cannot alter the
// inputs it is measured on.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

class Rand {
 public:
  explicit Rand(std::uint64_t seed) : engine_(seed) {}
  /// Uniform integer in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) { return engine_() % bound; }
  /// Uniform double in [0, 1).
  double unit() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  std::uint64_t next() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

/// Mixes a workload tag into the run seed so workloads draw independent
/// streams from the same --seed.
std::uint64_t derive_seed(std::uint64_t seed, const char* tag);

struct Network {
  std::string family;
  mg::graph::Graph g;
  std::uint32_t radius = 0;  ///< by `reference_radius`
};

mg::graph::Graph grid(mg::graph::Vertex rows, mg::graph::Vertex cols);
mg::graph::Graph hypercube(unsigned dim);
/// Exactly 3-regular, simple and connected (configuration model, resampled
/// until it is).  n must be even.
mg::graph::Graph random_regular3(mg::graph::Vertex n, Rand& rand);
/// Unit-square geometric graph, resampled until connected.
mg::graph::Graph random_geometric(mg::graph::Vertex n, double radius,
                                  Rand& rand);
/// G(n, p), resampled until connected.
mg::graph::Graph random_gnp(mg::graph::Vertex n, double p, Rand& rand);
/// The same graph under a uniformly random vertex relabeling.
mg::graph::Graph relabel(const mg::graph::Graph& g, Rand& rand);

bool is_connected(const mg::graph::Graph& g);

/// Draws ranks 0..k-1 with P(rank i) proportional to 1 / (i + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t k, double s);
  std::size_t draw(Rand& rand) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
