#include "inputs.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using mg::graph::Edge;
using mg::graph::Graph;
using mg::graph::Vertex;

std::uint64_t derive_seed(std::uint64_t seed, const char* tag) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ seed;  // FNV-1a over the tag
  for (const char* c = tag; *c != '\0'; ++c) {
    h = (h ^ static_cast<unsigned char>(*c)) * 0x100000001b3ULL;
  }
  return h;
}

Graph grid(Vertex rows, Vertex cols) {
  std::vector<Edge> edges;
  for (Vertex r = 0; r < rows; ++r) {
    for (Vertex c = 0; c < cols; ++c) {
      const Vertex v = r * cols + c;
      if (c + 1 < cols) edges.emplace_back(v, v + 1);
      if (r + 1 < rows) edges.emplace_back(v, v + cols);
    }
  }
  return Graph::from_edges(rows * cols, edges);
}

Graph hypercube(unsigned dim) {
  const Vertex n = Vertex{1} << dim;
  std::vector<Edge> edges;
  for (Vertex v = 0; v < n; ++v) {
    for (unsigned b = 0; b < dim; ++b) {
      const Vertex u = v ^ (Vertex{1} << b);
      if (v < u) edges.emplace_back(v, u);
    }
  }
  return Graph::from_edges(n, edges);
}

bool is_connected(const Graph& g) {
  const Vertex n = g.vertex_count();
  if (n == 0) return true;
  std::vector<char> seen(n, 0);
  std::vector<Vertex> stack{0};
  seen[0] = 1;
  Vertex reached = 1;
  while (!stack.empty()) {
    const Vertex u = stack.back();
    stack.pop_back();
    for (const Vertex v : g.neighbors(u)) {
      if (seen[v] == 0) {
        seen[v] = 1;
        ++reached;
        stack.push_back(v);
      }
    }
  }
  return reached == n;
}

Graph random_regular3(Vertex n, Rand& rand) {
  for (;;) {
    std::vector<Vertex> stubs;
    for (Vertex v = 0; v < n; ++v) stubs.insert(stubs.end(), 3, v);
    for (std::size_t i = stubs.size(); i > 1; --i) {
      std::swap(stubs[i - 1], stubs[rand.below(i)]);
    }
    std::vector<Edge> edges;
    bool simple = true;
    for (std::size_t i = 0; i + 1 < stubs.size() && simple; i += 2) {
      Vertex a = stubs[i], b = stubs[i + 1];
      if (a == b) simple = false;
      if (a > b) std::swap(a, b);
      edges.emplace_back(a, b);
    }
    if (!simple) continue;
    std::sort(edges.begin(), edges.end());
    if (std::adjacent_find(edges.begin(), edges.end()) != edges.end()) continue;
    Graph g = Graph::from_edges(n, edges);
    if (is_connected(g)) return g;
  }
}

Graph random_geometric(Vertex n, double radius, Rand& rand) {
  for (;;) {
    std::vector<double> x(n), y(n);
    for (Vertex v = 0; v < n; ++v) {
      x[v] = rand.unit();
      y[v] = rand.unit();
    }
    std::vector<Edge> edges;
    const double r2 = radius * radius;
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = u + 1; v < n; ++v) {
        const double dx = x[u] - x[v], dy = y[u] - y[v];
        if (dx * dx + dy * dy <= r2) edges.emplace_back(u, v);
      }
    }
    Graph g = Graph::from_edges(n, edges);
    if (is_connected(g)) return g;
  }
}

Graph random_gnp(Vertex n, double p, Rand& rand) {
  for (;;) {
    std::vector<Edge> edges;
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = u + 1; v < n; ++v) {
        if (rand.unit() < p) edges.emplace_back(u, v);
      }
    }
    Graph g = Graph::from_edges(n, edges);
    if (is_connected(g)) return g;
  }
}

Graph relabel(const Graph& g, Rand& rand) {
  const Vertex n = g.vertex_count();
  std::vector<Vertex> perm(n);
  for (Vertex v = 0; v < n; ++v) perm[v] = v;
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rand.below(i)]);
  }
  std::vector<Edge> edges = g.edges();
  for (Edge& e : edges) e = {perm[e.first], perm[e.second]};
  return Graph::from_edges(n, edges);
}

Zipf::Zipf(std::size_t k, double s) : cdf_(k) {
  double total = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::draw(Rand& rand) const {
  const double u = rand.unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                  cdf_.size() - 1);
}

}  // namespace perfbench
