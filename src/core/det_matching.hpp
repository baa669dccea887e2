// Deterministic maximal matching in MPC — an extension demonstrating that
// the paper's derandomization machinery is not ruling-set-specific.
//
// Maximal matching is the edge-world sibling of MIS: the same Luby-style
// step (mark edges with probability ~1/(2 * edge-degree), locally minimal
// marked edges join) derandomizes with the same pairwise-independent
// marking family, the same seed-fixing driver (fix_seed) and the same
// scorer as det_luby (detail::luby_scorer), using the estimator
//
//   Psi = sum_e w_e * ( P(M_e) - sum_{f ~ e, f > e} P(M_f AND M_e) )
//
// over edge ids, where f ~ e means sharing an endpoint and the priority
// order is (higher edge degree, then lower edge id). E[Psi] > 0 whenever an
// active edge remains, and realized Psi > 0 guarantees at least one edge
// joins per iteration, so termination is deterministic; empirically the
// iteration count tracks O(log n).
//
// Output invariants (tested): a matching (no two chosen edges share an
// endpoint) that is maximal (every edge has a matched endpoint), produced
// with zero random bits.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/message.hpp"

namespace rsets {

struct DetMatchingOptions {
  int chunk_bits = 4;
};

struct DetMatchingResult {
  std::vector<Edge> matching;  // canonical u < v, sorted
  std::uint64_t iterations = 0;
  std::uint64_t derand_chunks = 0;
  mpc::MpcMetrics metrics;
};

DetMatchingResult det_matching_mpc(const Graph& g, const mpc::MpcConfig& cfg,
                                   const DetMatchingOptions& options = {});

// Independent checkers (shared with tests; no algorithm code reused).
bool is_matching(const Graph& g, const std::vector<Edge>& matching);
bool is_maximal_matching(const Graph& g, const std::vector<Edge>& matching);

}  // namespace rsets
