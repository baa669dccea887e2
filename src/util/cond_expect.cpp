#include "util/cond_expect.hpp"

#include <stdexcept>

namespace rsets {

FixReport fix_seed(MarkingFamily& family, int chunk_bits,
                   const ChunkScorer& score,
                   const LevelFixed& on_level_fixed) {
  if (chunk_bits < 1 || chunk_bits > 16) {
    throw std::invalid_argument("fix_seed: chunk_bits must be in [1, 16]");
  }
  FixReport report;
  std::vector<int> chunk;
  for (int j = 0; j < family.levels(); ++j) {
    PairwiseBitLevel& level = family.level(j);
    while (!level.fully_fixed()) {
      chunk.clear();
      for (int i = 0; i <= level.bits() &&
                      static_cast<int>(chunk.size()) < chunk_bits;
           ++i) {
        if (!level.bit_fixed(i)) chunk.push_back(i);
      }
      const std::vector<double> scores = score(j, level, chunk);
      if (scores.size() != std::size_t{1} << chunk.size()) {
        throw std::invalid_argument(
            "fix_seed: the scorer must return 2^c scores for a c-bit chunk");
      }
      // First strict improvement wins, so ties break toward the smallest
      // assignment word.
      std::size_t best = 0;
      for (std::size_t a = 1; a < scores.size(); ++a) {
        if (scores[a] > scores[best]) best = a;
      }
      for (std::size_t b = 0; b < chunk.size(); ++b) {
        level.fix_bit(chunk[b], static_cast<int>((best >> b) & 1u));
      }
      ++report.chunks;
      report.bits += static_cast<int>(chunk.size());
      report.trajectory.push_back(scores[best]);
    }
    if (on_level_fixed) on_level_fixed(j);
  }
  return report;
}

}  // namespace rsets
