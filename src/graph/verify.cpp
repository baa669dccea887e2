#include "graph/verify.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <sstream>

#include "graph/ops.hpp"

namespace rsets {

bool is_independent_set(const Graph& g, std::span<const VertexId> set) {
  std::vector<bool> in_set(g.num_vertices(), false);
  for (VertexId v : set) {
    if (v >= g.num_vertices()) return false;
    if (in_set[v]) return false;  // duplicate entries are rejected too
    in_set[v] = true;
  }
  for (VertexId v : set) {
    for (VertexId u : g.neighbors(v)) {
      if (in_set[u]) return false;
    }
  }
  return true;
}

std::uint32_t domination_radius(const Graph& g,
                                std::span<const VertexId> set) {
  if (g.num_vertices() == 0) return 0;
  if (set.empty()) return std::numeric_limits<std::uint32_t>::max();
  const auto dist = bfs_distances(g, set);
  std::uint32_t radius = 0;
  for (std::uint32_t d : dist) {
    radius = std::max(radius, d);  // unreachable propagates UINT32_MAX
  }
  return radius;
}

namespace {

// Radius UINT32_MAX means a vertex no member reaches, which no β allows,
// not even β = UINT32_MAX.
bool within(std::uint32_t radius, std::uint32_t beta) {
  return radius < std::numeric_limits<std::uint32_t>::max() && radius <= beta;
}

}  // namespace

bool is_beta_ruling_set(const Graph& g, std::span<const VertexId> set,
                        std::uint32_t beta) {
  if (!is_independent_set(g, set)) return false;
  if (g.num_vertices() == 0) return true;
  return within(domination_radius(g, set), beta);
}

bool is_maximal_independent_set(const Graph& g,
                                std::span<const VertexId> set) {
  return is_beta_ruling_set(g, set, 1);
}

std::uint32_t min_pairwise_distance(const Graph& g,
                                    std::span<const VertexId> set) {
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  if (set.size() < 2) return kInf;
  // BFS from each member, truncated once another member is met; overall
  // O(|set| * (n + m)) — an oracle, not a fast path.
  std::uint32_t best = kInf;
  std::vector<bool> in_set(g.num_vertices(), false);
  for (VertexId v : set) in_set[v] = true;
  std::vector<std::uint32_t> dist(g.num_vertices(), kInf);
  std::vector<VertexId> touched;
  for (VertexId s : set) {
    std::deque<VertexId> queue;
    dist[s] = 0;
    touched.push_back(s);
    queue.push_back(s);
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop_front();
      if (dist[u] >= best) continue;  // cannot improve
      for (VertexId w : g.neighbors(u)) {
        if (dist[w] != kInf) continue;
        dist[w] = dist[u] + 1;
        touched.push_back(w);
        if (in_set[w] && w != s) best = std::min(best, dist[w]);
        queue.push_back(w);
      }
    }
    for (VertexId t : touched) dist[t] = kInf;
    touched.clear();
  }
  return best;
}

bool is_alpha_beta_ruling_set(const Graph& g, std::span<const VertexId> set,
                              std::uint32_t alpha, std::uint32_t beta) {
  // Reject duplicates/out-of-range via the independence helper's checks.
  std::vector<bool> seen(g.num_vertices(), false);
  for (VertexId v : set) {
    if (v >= g.num_vertices() || seen[v]) return false;
    seen[v] = true;
  }
  if (min_pairwise_distance(g, set) < alpha) return false;
  if (g.num_vertices() == 0) return true;
  return domination_radius(g, set) <= beta;
}

std::string RulingSetReport::to_string() const {
  std::ostringstream os;
  os << (valid ? "VALID" : "INVALID") << " beta<=" << beta_claimed
     << " (independent=" << (independent ? "yes" : "no")
     << ", radius=" << radius << ", size=" << size << ")";
  return os.str();
}

RulingSetReport check_ruling_set(const Graph& g,
                                 std::span<const VertexId> set,
                                 std::uint32_t beta) {
  RulingSetReport report;
  report.beta_claimed = beta;
  report.size = set.size();
  report.independent = is_independent_set(g, set);
  report.radius = g.num_vertices() == 0 ? 0 : domination_radius(g, set);
  report.valid = report.independent && within(report.radius, beta);
  return report;
}

std::string RulingSetCertificate::to_string() const {
  std::ostringstream os;
  os << (valid() ? "CERTIFIED" : "REJECTED") << " beta<=" << beta
     << " (size=" << set_size << ", malformed=" << malformed
     << ", conflict_edges=" << conflict_edges << ", uncovered=" << uncovered
     << ", radius=" << radius << ", rounds=" << rounds << ", levels=[";
  for (std::size_t d = 0; d < level_counts.size(); ++d) {
    if (d != 0) os << ',';
    os << level_counts[d];
  }
  os << "])";
  return os.str();
}

bool cross_validate_certificate(const Graph& g, std::span<const VertexId> set,
                                const RulingSetCertificate& cert) {
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  const VertexId n = g.num_vertices();
  if (cert.set_size != set.size()) return false;
  if (cert.level_counts.size() != static_cast<std::size_t>(cert.beta) + 1) {
    return false;
  }

  // Screen the claimed set the same way the in-model pass does: ids must be
  // in range, entries unique; survivors are the valid members.
  std::uint64_t malformed = 0;
  std::vector<VertexId> valid;
  std::vector<bool> member(n, false);
  for (const VertexId v : set) {
    if (v >= n || member[v]) {
      ++malformed;
      continue;
    }
    member[v] = true;
    valid.push_back(v);
  }
  if (malformed != cert.malformed) return false;

  std::uint64_t conflicts = 0;
  for (const VertexId v : valid) {
    for (const VertexId u : g.neighbors(v)) {
      if (member[u] && v < u) ++conflicts;
    }
  }
  if (conflicts != cert.conflict_edges) return false;

  // Plain multi-source BFS, truncated at beta hops.
  std::vector<std::uint32_t> dist(n, kInf);
  std::deque<VertexId> queue;
  for (const VertexId v : valid) {
    dist[v] = 0;
    queue.push_back(v);
  }
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    if (dist[u] >= cert.beta) continue;
    for (const VertexId w : g.neighbors(u)) {
      if (dist[w] != kInf) continue;
      dist[w] = dist[u] + 1;
      queue.push_back(w);
    }
  }
  std::vector<std::uint64_t> level_counts(cert.beta + 1, 0);
  std::uint64_t uncovered = 0;
  std::uint32_t radius = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (dist[v] == kInf) {
      ++uncovered;
      continue;
    }
    ++level_counts[dist[v]];
    if (dist[v] >= 1) radius = std::max(radius, dist[v]);
  }
  return uncovered == cert.uncovered && radius == cert.radius &&
         level_counts == cert.level_counts;
}

}  // namespace rsets
