#include "graph/ops.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

namespace rsets {

Graph power_graph(const Graph& g, int k) {
  if (k < 1) throw std::invalid_argument("power_graph: k must be >= 1");
  const VertexId n = g.num_vertices();
  std::vector<Edge> edges;
  // BFS to depth k from every vertex.
  std::vector<std::uint32_t> dist(n, std::numeric_limits<std::uint32_t>::max());
  std::vector<VertexId> touched;
  std::deque<VertexId> queue;
  for (VertexId s = 0; s < n; ++s) {
    dist[s] = 0;
    touched.push_back(s);
    queue.push_back(s);
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop_front();
      if (dist[u] == static_cast<std::uint32_t>(k)) continue;
      for (VertexId v : g.neighbors(u)) {
        if (dist[v] != std::numeric_limits<std::uint32_t>::max()) continue;
        dist[v] = dist[u] + 1;
        touched.push_back(v);
        queue.push_back(v);
        if (s < v) edges.push_back({s, v});
      }
    }
    for (VertexId t : touched) {
      dist[t] = std::numeric_limits<std::uint32_t>::max();
    }
    touched.clear();
  }
  return Graph::from_edges(n, edges);
}

std::vector<std::uint32_t> bfs_distances(const Graph& g,
                                         std::span<const VertexId> sources) {
  std::vector<std::uint32_t> dist(g.num_vertices(),
                                  std::numeric_limits<std::uint32_t>::max());
  std::deque<VertexId> queue;
  for (VertexId s : sources) {
    if (dist[s] != 0) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    for (VertexId v : g.neighbors(u)) {
      if (dist[v] == std::numeric_limits<std::uint32_t>::max()) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> connected_components(const Graph& g) {
  const VertexId n = g.num_vertices();
  constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> comp(n, kUnseen);
  std::uint32_t next = 0;
  std::deque<VertexId> queue;
  for (VertexId s = 0; s < n; ++s) {
    if (comp[s] != kUnseen) continue;
    comp[s] = next;
    queue.push_back(s);
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop_front();
      for (VertexId v : g.neighbors(u)) {
        if (comp[v] == kUnseen) {
          comp[v] = next;
          queue.push_back(v);
        }
      }
    }
    ++next;
  }
  return comp;
}

DegreeStats degree_stats(const Graph& g) {
  DegreeStats stats;
  const VertexId n = g.num_vertices();
  if (n == 0) return stats;
  stats.min = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t d = g.degree(v);
    stats.min = std::min(stats.min, d);
    stats.max = std::max(stats.max, d);
    total += d;
    if (d == 0) ++stats.isolated;
  }
  stats.mean = static_cast<double>(total) / static_cast<double>(n);
  return stats;
}

std::uint32_t approx_diameter(const Graph& g) {
  const VertexId n = g.num_vertices();
  if (n == 0) return 0;
  // Start from a vertex of the largest component (first vertex of the most
  // frequent component label).
  const auto comp = connected_components(g);
  std::vector<std::uint32_t> counts;
  for (std::uint32_t c : comp) {
    if (c >= counts.size()) counts.resize(c + 1, 0);
    ++counts[c];
  }
  const auto biggest = static_cast<std::uint32_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  VertexId start = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (comp[v] == biggest) {
      start = v;
      break;
    }
  }
  auto farthest = [&](VertexId s) -> std::pair<VertexId, std::uint32_t> {
    const std::vector<VertexId> src = {s};
    const auto dist = bfs_distances(g, src);
    VertexId best = s;
    std::uint32_t best_d = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (dist[v] != std::numeric_limits<std::uint32_t>::max() &&
          dist[v] > best_d) {
        best_d = dist[v];
        best = v;
      }
    }
    return {best, best_d};
  };
  const auto [far1, d1] = farthest(start);
  const auto [far2, d2] = farthest(far1);
  (void)far2;
  return std::max(d1, d2);
}

std::uint32_t degeneracy(const Graph& g) {
  const VertexId n = g.num_vertices();
  if (n == 0) return 0;
  // Matula–Beck bucket peeling.
  std::vector<std::uint32_t> deg(n);
  std::uint32_t max_deg = 0;
  for (VertexId v = 0; v < n; ++v) {
    deg[v] = g.degree(v);
    max_deg = std::max(max_deg, deg[v]);
  }
  std::vector<std::vector<VertexId>> buckets(max_deg + 1);
  for (VertexId v = 0; v < n; ++v) buckets[deg[v]].push_back(v);
  std::vector<bool> removed(n, false);
  std::uint32_t degeneracy_val = 0;
  std::uint32_t cursor = 0;
  for (VertexId iter = 0; iter < n; ++iter) {
    while (cursor <= max_deg && buckets[cursor].empty()) ++cursor;
    // Entries may be stale (vertex moved to a lower bucket); skip them.
    while (cursor <= max_deg) {
      if (buckets[cursor].empty()) {
        ++cursor;
        continue;
      }
      const VertexId v = buckets[cursor].back();
      buckets[cursor].pop_back();
      if (removed[v] || deg[v] != cursor) continue;
      removed[v] = true;
      degeneracy_val = std::max(degeneracy_val, cursor);
      for (VertexId u : g.neighbors(v)) {
        if (!removed[u] && deg[u] > 0) {
          --deg[u];
          buckets[deg[u]].push_back(u);
          if (deg[u] < cursor) cursor = deg[u];
        }
      }
      break;
    }
  }
  return degeneracy_val;
}

}  // namespace rsets
