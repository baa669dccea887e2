// Internal helpers shared by the phase-based MPC algorithms: announcing a
// vertex set, subgraph gather + local MIS, ball removal, the residual step,
// and active-edge counting. Not part of the public API. Every announcement
// goes through mpc::announce (here and in DistGraph::deactivate).
//
// Membership masks are byte-per-vertex (std::vector<std::uint8_t>), not
// std::vector<bool>: drivers fill them from inside round callbacks, and the
// round-parallel simulator requires concurrent writers to touch distinct
// bytes (bit-packed elements share them).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/dist_graph.hpp"
#include "mpc/simulator.hpp"

namespace rsets::detail {

// Total edges of the active subgraph (one u64 allreduce, 2 rounds).
std::uint64_t count_active_edges(mpc::Simulator& sim,
                                 const mpc::DistGraph& dg);

// Gathers the `members`-induced active subgraph onto machine 0 (1 round,
// transient storage charged there), computes a greedy MIS by id order, and
// broadcasts it (1 round). `in_members` must be the indicator of `members`.
std::vector<VertexId> gather_and_mis(mpc::Simulator& sim,
                                     const mpc::DistGraph& dg,
                                     const std::vector<VertexId>& members,
                                     const std::vector<std::uint8_t>& in_members);

// Owners announce the vertices of `in_marked` they own (mpc::announce, 1
// round, ascending per owner), making the set cluster-replicated knowledge.
void announce_marked(mpc::Simulator& sim, const mpc::DistGraph& dg,
                     const std::vector<std::uint8_t>& in_marked,
                     std::uint32_t tag);

// Deactivates every active vertex within `radius` hops of the set indicated
// by `in_marked`. Hop 1 is evaluated locally by owners (marked membership is
// cluster-replicated knowledge in every caller: seed-evaluable in
// det_ruling, announced by announce_marked in the others); hops 2..radius
// cost one all-to-all each; plus one deactivation round. Returns removals.
std::uint64_t remove_ball(mpc::Simulator& sim, mpc::DistGraph& dg,
                          const std::vector<std::uint8_t>& in_marked,
                          std::uint32_t radius);

// Ends a sample-and-gather loop once nothing is left to sample from: with
// no active edge (`m_active` == 0) every active vertex joins `out`; when
// the active subgraph fits `budget` (2 words per edge and per vertex) its
// gathered MIS does. Then deactivates every active vertex and returns true;
// returns false, spending nothing, otherwise.
bool solve_residual(mpc::Simulator& sim, mpc::DistGraph& dg,
                    std::uint64_t m_active, std::uint64_t budget,
                    std::vector<VertexId>& out);

}  // namespace rsets::detail
