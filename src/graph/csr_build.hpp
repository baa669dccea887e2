// The one counting-sort CSR builder behind Graph::from_edges and
// shard::build_shard_csr.
//
// Three passes over a re-streamable raw edge list, no comparison sort of
// the arcs and no arc-pair scratch:
//   A. count   — every kept edge adds one to both endpoints' raw degree;
//   B. scatter — both arc directions are written at per-vertex cursors
//                into one raw adjacency array (duplicates included);
//   C. compact — each vertex's list is sorted and deduplicated in place,
//                and the offsets are rewritten to the compacted positions.
// The result does not depend on the edge order: symmetric, free of
// self-loops and duplicates, with every neighbor list sorted.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace rsets::detail {

// Eviction hook of a CSR build. In-RAM builds use this no-op; spilled
// builds evict dirty pages of the memory-mapped adjacency on a cadence.
struct NoEvict {
  // Called after each scattered batch of `edges` raw edges.
  void scattered(std::uint64_t /*edges*/) {}
  // Called after each vertex's compaction: `arcs` raw arcs were read, and
  // the first `final_words` adjacency words are final.
  void compacted(std::uint64_t /*arcs*/, std::uint64_t /*final_words*/) {}
};

// Builds the CSR of the edges that `stream` yields. `stream(consume)` must
// call `consume(std::span<const Edge>)` once per batch, and yield the same
// edges each time it is called (it is called twice). `keep(edge)` runs once
// per edge in pass A, before any arc is written: it throws the caller's
// error for an invalid edge and returns false for a self-loop. `allocate(w)`
// returns storage for `w` raw arcs. On return `offsets` (size n + 1) indexes
// the compacted lists; the return value is the compacted arc count, so the
// caller may shrink its storage to it.
template <typename Stream, typename Keep, typename Allocate,
          typename Evict = NoEvict>
std::uint64_t build_csr(VertexId n, const Stream& stream, const Keep& keep,
                        std::vector<std::uint64_t>& offsets,
                        const Allocate& allocate, Evict&& evict = {}) {
  // Pass A: offsets[v] = raw degree of v, then the inclusive prefix sum, so
  // offsets[v] is the end of v's raw range.
  offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  stream([&](std::span<const Edge> batch) {
    for (const Edge& e : batch) {
      if (!keep(e)) continue;
      ++offsets[e.u];
      ++offsets[e.v];
    }
  });
  std::uint64_t raw = 0;
  for (VertexId v = 0; v < n; ++v) {
    raw += offsets[v];
    offsets[v] = raw;
  }
  offsets[n] = raw;

  // Pass B: fill each range from its end; afterwards offsets[v] is the
  // start of v's raw range, with no separate cursor array.
  VertexId* const adj = allocate(raw);
  stream([&](std::span<const Edge> batch) {
    for (const Edge& e : batch) {
      if (e.u == e.v) continue;  // pass A validated everything else
      adj[--offsets[e.u]] = e.v;
      adj[--offsets[e.v]] = e.u;
    }
    evict.scattered(batch.size());
  });

  // Pass C: per-vertex sort + dedup, compacting in place. The write head w
  // never passes the read head (deduped words <= raw words at every
  // prefix), so one sweep suffices. offsets[v + 1] is still v's raw end
  // when v is compacted, because only offsets[v] is rewritten.
  std::uint64_t w = 0;
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t lo = offsets[v];
    const std::uint64_t hi = offsets[v + 1];
    std::sort(adj + lo, adj + hi);
    offsets[v] = w;
    for (std::uint64_t i = lo; i < hi; ++i) {
      if (i == lo || adj[i] != adj[w - 1]) adj[w++] = adj[i];
    }
    evict.compacted(hi - lo, w);
  }
  offsets[n] = w;
  return w;
}

}  // namespace rsets::detail
