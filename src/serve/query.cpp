#include "serve/query.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace rsets::serve {
namespace {

// Per-thread BFS scratch for point queries. seen[x] == stamp marks x as
// reached by the current query; each query takes a fresh stamp, so nothing
// is cleared between queries, and a snapshot of another size only grows
// the array (stale stamps never equal a fresh one).
struct BfsScratch {
  std::vector<std::uint32_t> seen;
  std::uint32_t stamp = 0;
  std::vector<VertexId> level;
  std::vector<VertexId> next;
};

BfsScratch& bfs_scratch(VertexId n) {
  thread_local BfsScratch scratch;
  if (scratch.seen.size() < n) scratch.seen.resize(n, 0);
  if (++scratch.stamp == 0) {  // wrapped: forget every old stamp
    std::fill(scratch.seen.begin(), scratch.seen.end(), 0);
    scratch.stamp = 1;
  }
  return scratch;
}

}  // namespace

QuerySnapshot::QuerySnapshot(std::uint64_t epoch, std::uint32_t beta,
                             Graph graph, std::vector<VertexId> ruling_set)
    : epoch_(epoch),
      beta_(beta),
      graph_(std::move(graph)),
      set_(std::move(ruling_set)) {
  in_set_.assign(graph_.num_vertices(), false);
  for (VertexId v : set_) {
    if (v >= graph_.num_vertices()) {
      throw std::invalid_argument("query snapshot: member " +
                                  std::to_string(v) + " out of range");
    }
    in_set_[v] = true;
  }
}

bool QuerySnapshot::is_member(VertexId v) const {
  if (v >= graph_.num_vertices()) {
    throw std::invalid_argument("query: vertex " + std::to_string(v) +
                                " >= n = " +
                                std::to_string(graph_.num_vertices()));
  }
  return in_set_[v];
}

PointQueryResult QuerySnapshot::nearest_member(VertexId v) const {
  if (v >= graph_.num_vertices()) {
    throw std::invalid_argument("query: vertex " + std::to_string(v) +
                                " >= n = " +
                                std::to_string(graph_.num_vertices()));
  }
  PointQueryResult out;
  if (in_set_[v]) {
    out.covered = true;
    out.member = v;
    out.distance = 0;
    return out;
  }
  // Truncated BFS, one full level at a time: the first level containing
  // members yields the minimum distance, and the smallest member id in
  // that level breaks the tie. Members terminate their branch — nothing
  // beyond one is closer. The visited set is the calling thread's
  // generation-stamped scratch, so a query costs O(ball) and the shared
  // snapshot stays immutable.
  BfsScratch& scratch = bfs_scratch(graph_.num_vertices());
  const std::uint32_t stamp = scratch.stamp;
  std::vector<VertexId>& level = scratch.level;
  std::vector<VertexId>& next = scratch.next;
  level.assign(1, v);
  scratch.seen[v] = stamp;
  for (std::uint32_t d = 1; d <= beta_ && !level.empty(); ++d) {
    next.clear();
    bool found = false;
    VertexId best = 0;
    for (const VertexId x : level) {
      for (const VertexId w : graph_.neighbors(x)) {
        if (scratch.seen[w] == stamp) continue;
        scratch.seen[w] = stamp;
        if (in_set_[w]) {
          if (!found || w < best) best = w;
          found = true;
        } else {
          next.push_back(w);
        }
      }
    }
    if (found) {
      out.covered = true;
      out.member = best;
      out.distance = d;
      return out;
    }
    level.swap(next);
  }
  return out;
}

}  // namespace rsets::serve
