#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/csr_build.hpp"

namespace rsets {

Graph Graph::from_edges(VertexId num_vertices, std::span<const Edge> edges) {
  Graph g;
  const std::uint64_t arcs = detail::build_csr(
      num_vertices, [&](const auto& consume) { consume(edges); },
      [num_vertices](const Edge& e) {
        if (e.u == e.v) return false;  // self-loops skip the range check
        if (e.u >= num_vertices || e.v >= num_vertices) {
          throw std::out_of_range("Graph::from_edges: endpoint out of range");
        }
        return true;
      },
      g.offsets_,
      [&](std::uint64_t raw) {
        g.adjacency_.resize(raw);
        return g.adjacency_.data();
      });
  g.adjacency_.resize(arcs);
  g.adjacency_.shrink_to_fit();
  return g;
}

Graph Graph::from_sorted_adjacency(
    const std::vector<std::vector<VertexId>>& adjacency) {
  const VertexId n = static_cast<VertexId>(adjacency.size());
  Graph g;
  g.offsets_.assign(n + 1, 0);
  std::uint64_t arcs = 0;
  for (VertexId v = 0; v < n; ++v) {
    arcs += adjacency[v].size();
    g.offsets_[v + 1] = arcs;
  }
  g.adjacency_.reserve(arcs);
  for (VertexId v = 0; v < n; ++v) {
    VertexId prev = 0;
    bool first = true;
    for (VertexId u : adjacency[v]) {
      if (u >= n) {
        throw std::invalid_argument(
            "Graph::from_sorted_adjacency: neighbor out of range");
      }
      if (u == v) {
        throw std::invalid_argument(
            "Graph::from_sorted_adjacency: self-loop");
      }
      if (!first && u <= prev) {
        throw std::invalid_argument(
            "Graph::from_sorted_adjacency: list not strictly increasing");
      }
      prev = u;
      first = false;
      g.adjacency_.push_back(u);
    }
  }
  return g;
}

std::uint32_t Graph::max_degree() const {
  std::uint32_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) best = std::max(best, degree(v));
  return best;
}

double Graph::average_degree() const {
  if (num_vertices() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         static_cast<double>(num_vertices());
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (VertexId v : neighbors(u)) {
      if (u < v) out.push_back({u, v});
    }
  }
  return out;
}

std::uint64_t Graph::degree_square_sum() const {
  std::uint64_t sum = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    const std::uint64_t d = degree(v);
    sum += d * d;
  }
  return sum;
}

Graph GraphBuilder::build() && {
  return Graph::from_edges(num_vertices_, edges_);
}

}  // namespace rsets
