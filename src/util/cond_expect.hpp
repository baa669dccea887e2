// The method of conditional expectations over MarkingFamily seeds: the one
// chunk loop every derandomized step in the library fixes its seed with.
//
// Given a pessimistic estimator Phi whose conditional expectation under a
// partially fixed seed is exactly computable (see hash_family.hpp for why it
// is), `fix_seed` deterministically chooses every seed bit so that the final
// (fully determined) value of Phi is at least E[Phi] under a uniform seed.
//
// Bits are fixed in chunks of `chunk_bits` at a time. For each chunk the
// caller's scorer returns the conditional expectation of Phi under all 2^c
// assignments of the chunk at once, and the driver keeps the best. This
// mirrors the distributed implementation, where one chunk costs O(1) MPC
// aggregation rounds because the 2^c candidate partial sums fit in a
// machine's bandwidth budget: a distributed scorer is one width-2^c
// allreduce. The policy, which callers' outputs depend on bit for bit:
//   * levels are fixed in order, and a chunk never straddles two levels, so
//     scorers can keep per-level survivor structures;
//   * a chunk is the lowest unfixed bits of its level (index bits() — the
//     constant c — comes last);
//   * ties break toward the smallest assignment word.
//
// The driver evaluates Phi only through the scorer, once per chunk, so
// E[Phi] before the first chunk (the guarantee's reference value) is the
// caller's to compute.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "util/hash_family.hpp"

namespace rsets {

// Scores of every assignment of one chunk. `level` is the index of the level
// being fixed, `state` its current partial assignment (the family's own
// level, unchanged during the call) and `chunk` the distinct unfixed indices
// of `state` being decided, as PairwiseBitLevel::fix_bit numbers them. Must
// return exactly 2^|chunk| values: [a] is E[Phi | chunk[b] fixed to bit b of
// a, for every b]. Must be exact: the greedy guarantee (final >= initial
// expectation) rests on it.
using ChunkScorer = std::function<std::vector<double>(
    int level, const PairwiseBitLevel& state, std::span<const int> chunk)>;

// Notification that level `j` has just become fully and permanently fixed;
// scorers typically shrink their survivor sets here.
using LevelFixed = std::function<void(int j)>;

struct FixReport {
  int chunks = 0;  // enumeration steps (-> MPC aggregations)
  int bits = 0;    // total seed bits fixed
  // Best score of each permanently applied chunk; by the supermartingale
  // property this sequence is non-decreasing, and its last entry is Phi
  // under the chosen seed.
  std::vector<double> trajectory;
};

// Greedily fixes all remaining seed bits of `family`, `chunk_bits` (1..16)
// at a time, to MAXIMIZE the estimator `score` evaluates. Throws
// std::invalid_argument on a bad chunk width or a scorer that returns the
// wrong number of scores.
FixReport fix_seed(MarkingFamily& family, int chunk_bits,
                   const ChunkScorer& score,
                   const LevelFixed& on_level_fixed = {});

}  // namespace rsets
