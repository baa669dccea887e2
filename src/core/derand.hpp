// The deterministic sampling step: distributed method of conditional
// expectations over a pairwise-independent marking family.
//
// Given an active graph, a candidate set C (potential marks) and a target
// set T (vertices that must end up with a marked closed neighbor), this step
// deterministically fixes a seed such that the marked set M = {v in C :
// mark(v)} satisfies, unconditionally:
//
//   (1) at least |T|/8 targets have a marked vertex in their (truncated)
//       closed neighborhood, and
//   (2) the number of edges inside M is below the gather budget.
//
// Pessimistic estimator (all terms exact conditional expectations, see
// hash_family.hpp):
//
//   Phi = sum_{v in T} Z_v  -  lambda * X / budget
//   Z_v = sum_{u in T_v} P(mark u)  -  sum_{u<w in T_v} P(mark u AND mark w)
//   X   = sum_{(u,w) in E, u,w in C} P(mark u AND mark w)
//
// where T_v is a truncation of N[v] ∩ C to 2^k vertices (so that
// p*|T_v| <= 1, keeping the Bonferroni bound Z_v <= 1[some T_v member
// marked] tight), p = 2^-k is the marking probability, and lambda = 8|T|.
// With p*|T_v| in (1/2, 1] and E[X] <= budget/32 these give E[Phi] >= |T|/8,
// and fix_seed (util/cond_expect.hpp) turns that expectation into a
// certainty. See DESIGN.md §3.1 for the derivation.
//
// Distribution: every machine holds estimator shards for the targets and
// candidate edges it owns; one chunk of seed bits costs one width-2^c
// allreduce (2 MPC rounds) in which all 2^c candidate assignments are
// evaluated at once. The chosen seed is known everywhere, so marks are
// locally evaluable with zero further communication — the property the
// whole deterministic algorithm leans on.
//
// Host cost of one chunk on one shard (detail::chunk_partials): every
// probability above depends only on a vertex's free-coefficient class after
// the chunk and on its fixed part y_a, which is affine in the assignment a.
// So each term reduces to integer counts, and one pass fills all 2^c
// partials in O(sum_v |T_v| + |E_m| + (|T_m| + g*c) * 2^c) word operations,
// g the number of target groups whose count depends on a (same-class free
// members, or the non-free members). The partials are bit-identical to
// summing prob_one / prob_both_one under each assignment in turn; DESIGN.md
// §3.1 gives the argument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/dist_graph.hpp"
#include "util/cond_expect.hpp"
#include "util/hash_family.hpp"

namespace rsets {

struct DerandMarkOptions {
  int chunk_bits = 4;
  // Levels k of the marking family, i.e. marking probability 2^-k.
  int levels = 1;
  // Cap on E[edges within M] enforcement; see header comment.
  std::uint64_t edge_budget = 1;
};

struct DerandMarkResult {
  std::vector<VertexId> marked;  // M, sorted
  double initial_estimate = 0.0;
  double final_estimate = 0.0;
  std::uint64_t covered_targets = 0;  // targets with a marked T_v member
  std::uint64_t marked_edges = 0;     // edges inside M (exact)
  int seed_bits = 0;
  int chunks = 0;          // allreduce super-steps spent
  std::uint64_t rounds = 0;  // MPC rounds consumed (2 per chunk)
};

// Runs the derandomized marking over `dg`'s active subgraph inside `sim`.
// `candidates_mask[v]` marks candidate vertices, `targets` lists the
// vertices that need coverage (must be active candidates' neighbors or
// candidates themselves). Charges 2 MPC rounds per chunk via real
// allreduce traffic.
DerandMarkResult derand_mark(mpc::Simulator& sim, const mpc::DistGraph& dg,
                             const std::vector<bool>& candidates_mask,
                             const std::vector<VertexId>& targets,
                             const DerandMarkOptions& options);

namespace detail {

// Estimator shard held by one machine: the targets it owns, each with its
// truncated candidate neighbourhood T_v, flattened to one CSR, and the
// candidate edges it owns. Lists shrink to level survivors as seed levels
// are finalized (keep_survivors).
struct EstimatorShard {
  // Target t's list is members[target_begin[t], target_begin[t + 1]).
  std::vector<std::size_t> target_begin{0};
  std::vector<VertexId> members;
  std::vector<Edge> edges;

  std::size_t num_targets() const { return target_begin.size() - 1; }
  std::span<const VertexId> target(std::size_t t) const {
    return std::span<const VertexId>(members).subspan(
        target_begin[t], target_begin[t + 1] - target_begin[t]);
  }
  // Closes the target list made of the members pushed since the last call.
  void end_target() { target_begin.push_back(members.size()); }
};

// Factors applied to not-yet-reached levels (> current): each contributes
// 1/2 to a marginal and 1/4 to a pairwise joint.
struct FutureFactors {
  double single;
  double pair;
};

// Partial estimator sums of `shard` for every assignment of the seed bits
// `chunk` (distinct, unfixed indices of `level`, as PairwiseBitLevel::fix_bit
// numbers them; may be empty). Levels below `level` are already folded into
// the shard's survivor lists, levels above contribute `f`. Returns 2 * 2^c
// doubles: [2a] is the cover sum and [2a + 1] the edge mass under the
// assignment that gives chunk[b] the value of bit b of a. Each is
// bit-identical to fixing those bits on a copy of `level` and summing
// prob_one / prob_both_one over the shard, target by target.
std::vector<double> chunk_partials(const EstimatorShard& shard,
                                   const PairwiseBitLevel& level,
                                   std::span<const int> chunk,
                                   const FutureFactors& f);

// Drops every list member and edge endpoint whose bit is 0 under the fully
// fixed `level`.
void keep_survivors(EstimatorShard& shard, const PairwiseBitLevel& level);

// One machine's terms of a Luby-style estimator over ids with per-id
// truncation depths (det_luby over vertices, det_matching over edges):
//
//   Psi = sum_singles w * P(M_id)  -  sum_pairs w * P(M_u AND M_v)
//
// with M_x the mark of x at its own depth. Ids are vertex or edge ids.
struct LubyShard {
  struct Singleton {
    std::uint32_t id;
    double w;
    int depth;
  };
  struct Pair {
    std::uint32_t v;
    std::uint32_t u;
    double w;
    int dv;
    int du;
  };
  std::vector<Singleton> singles;
  std::vector<Pair> pairs;
};

// fix_seed scorer of Psi over `family`, shards[m] held by machine m: one
// width-2^c allreduce (2 MPC rounds) of per-machine partials, each the terms
// in shard order (singles added, then pairs subtracted) under every
// assignment in turn. Keeps references to all three arguments.
ChunkScorer luby_scorer(mpc::Simulator& sim, const MarkingFamily& family,
                        const std::vector<LubyShard>& shards);

}  // namespace detail
}  // namespace rsets
