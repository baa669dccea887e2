#include "util/cond_expect.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace rsets {
namespace {

// Estimator: expected number of marked ids in `targets` (full depth).
double count_marked(const MarkingFamily& family,
                    const std::vector<std::uint64_t>& targets) {
  double total = 0.0;
  for (std::uint64_t v : targets) {
    total += family.prob_mark(v, family.levels());
  }
  return total;
}

// Scores count_marked under each assignment of the chunk in turn, fixing it
// on a copy of the family.
ChunkScorer count_marked_scorer(const MarkingFamily& family,
                                std::vector<std::uint64_t> targets) {
  return [&family, targets = std::move(targets)](
             int j, const PairwiseBitLevel& state,
             std::span<const int> chunk) {
    MarkingFamily local = family;
    std::vector<double> scores;
    for (std::uint32_t a = 0; a < (1u << chunk.size()); ++a) {
      local.level(j) = state;
      for (std::size_t b = 0; b < chunk.size(); ++b) {
        local.level(j).fix_bit(chunk[b], static_cast<int>((a >> b) & 1u));
      }
      scores.push_back(count_marked(local, targets));
    }
    return scores;
  };
}

TEST(FixSeed, FinalValueAtLeastInitialExpectation) {
  MarkingFamily family(32, 2);
  const std::vector<std::uint64_t> targets = {1, 5, 9, 14, 27, 31};
  const double initial = count_marked(family, targets);
  fix_seed(family, 3, count_marked_scorer(family, targets));
  EXPECT_TRUE(family.fully_fixed());
  EXPECT_NEAR(initial, 6.0 * 0.25, 1e-12);
  EXPECT_GE(count_marked(family, targets), initial - 1e-12);
}

TEST(FixSeed, TrajectoryIsNonDecreasing) {
  MarkingFamily family(64, 3);
  const std::vector<std::uint64_t> targets = {0, 7, 21, 33, 40, 41, 63};
  double prev = count_marked(family, targets);
  const FixReport report =
      fix_seed(family, 2, count_marked_scorer(family, targets));
  for (double v : report.trajectory) {
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(report.trajectory.back(), count_marked(family, targets));
}

TEST(FixSeed, FinalValueEqualsRealizedCount) {
  // After all bits are fixed, the estimator value must be the actual number
  // of marked targets — conditional expectation of a constant.
  MarkingFamily family(16, 2);
  const std::vector<std::uint64_t> targets = {2, 3, 8, 12};
  fix_seed(family, 4, count_marked_scorer(family, targets));
  int marked = 0;
  for (std::uint64_t v : targets) marked += family.mark(v) ? 1 : 0;
  EXPECT_DOUBLE_EQ(count_marked(family, targets),
                   static_cast<double>(marked));
  EXPECT_GE(marked, 1);  // E = 4/4 = 1, so at least one target is marked
}

TEST(FixSeed, ChunkAndBitAccounting) {
  MarkingFamily family(16, 2);  // id_bits = 4, per-level seed = 5 bits
  const FixReport report =
      fix_seed(family, 4, count_marked_scorer(family, {1}));
  EXPECT_EQ(report.bits, family.total_seed_bits());
  // Per level: ceil(5/4) = 2 chunks; 2 levels -> 4 chunks.
  EXPECT_EQ(report.chunks, 4);
}

TEST(FixSeed, DeterministicAcrossRuns) {
  std::vector<std::uint8_t> first_seed;
  for (int run = 0; run < 3; ++run) {
    MarkingFamily family(32, 2);
    fix_seed(family, 3, count_marked_scorer(family, {3, 17, 22}));
    const auto seed = family.seed();
    if (run == 0) {
      first_seed = seed;
    } else {
      EXPECT_EQ(seed, first_seed);
    }
  }
}

TEST(FixSeed, ChunkSizeDoesNotBreakGuarantee) {
  const std::vector<std::uint64_t> targets = {1, 2, 4, 8, 16, 31};
  for (int chunk = 1; chunk <= 6; ++chunk) {
    MarkingFamily family(32, 2);
    const double initial = count_marked(family, targets);
    fix_seed(family, chunk, count_marked_scorer(family, targets));
    EXPECT_GE(count_marked(family, targets), initial - 1e-12)
        << "chunk_bits " << chunk;
  }
}

TEST(FixSeed, RejectsBadChunkBits) {
  MarkingFamily family(8, 1);
  const ChunkScorer score = count_marked_scorer(family, {1});
  EXPECT_THROW(fix_seed(family, 0, score), std::invalid_argument);
  EXPECT_THROW(fix_seed(family, 17, score), std::invalid_argument);
}

TEST(FixSeed, LevelCallbacksFireInOrder) {
  MarkingFamily family(16, 3);
  std::vector<int> levels_seen;
  fix_seed(family, 2, count_marked_scorer(family, {1, 2}),
           [&](int j) { levels_seen.push_back(j); });
  EXPECT_EQ(levels_seen, (std::vector<int>{0, 1, 2}));
}

// A constant scorer ties every assignment, so the tie-break fixes every bit
// to 0. The chunks it sees are the lowest unfixed bits of one level, in
// order, and never straddle two levels.
TEST(FixSeed, ConstantScorerFixesEveryBitToZero) {
  MarkingFamily family(64, 3);  // id_bits = 6, per-level seed = 7 bits
  std::vector<std::vector<int>> chunks;
  std::vector<int> chunk_levels;
  const FixReport report = fix_seed(
      family, 3,
      [&](int j, const PairwiseBitLevel&, std::span<const int> chunk) {
        chunks.emplace_back(chunk.begin(), chunk.end());
        chunk_levels.push_back(j);
        return std::vector<double>(std::size_t{1} << chunk.size(), 1.0);
      });
  EXPECT_TRUE(family.fully_fixed());
  for (std::uint8_t bit : family.seed()) EXPECT_EQ(bit, 0);
  const std::vector<std::vector<int>> per_level = {{0, 1, 2}, {3, 4, 5}, {6}};
  std::vector<std::vector<int>> expected;
  for (int j = 0; j < 3; ++j) {
    expected.insert(expected.end(), per_level.begin(), per_level.end());
  }
  EXPECT_EQ(chunks, expected);
  EXPECT_EQ(chunk_levels, (std::vector<int>{0, 0, 0, 1, 1, 1, 2, 2, 2}));
  EXPECT_EQ(report.chunks, 9);
  EXPECT_EQ(report.trajectory, std::vector<double>(9, 1.0));
}

TEST(FixSeed, RejectsScorerOfWrongWidth) {
  for (const int delta : {-1, 1}) {
    MarkingFamily family(16, 1);
    auto wrong = [&](int, const PairwiseBitLevel&, std::span<const int> c) {
      return std::vector<double>((std::size_t{1} << c.size()) + delta, 0.0);
    };
    EXPECT_THROW(fix_seed(family, 2, wrong), std::invalid_argument)
        << "2^c " << (delta < 0 ? "- 1" : "+ 1") << " scores";
  }
}

}  // namespace
}  // namespace rsets
