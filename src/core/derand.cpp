#include "core/derand.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mpc/primitives.hpp"
#include "util/bits.hpp"
#include "util/logging.hpp"

namespace rsets {
namespace detail {
namespace {

// In-place unnormalized Walsh–Hadamard transform over a power-of-two
// length: afterwards h[a] = sum_p h_in[p] * (-1)^parity(p & a).
void walsh_hadamard(std::vector<std::int64_t>& h) {
  for (std::size_t len = 1; len < h.size(); len <<= 1) {
    for (std::size_t i = 0; i < h.size(); i += 2 * len) {
      for (std::size_t j = i; j < i + len; ++j) {
        const std::int64_t x = h[j];
        const std::int64_t y = h[j + len];
        h[j] = x + y;
        h[j + len] = x - y;
      }
    }
  }
}

// What a level says about one vertex once the chunk's bits are fixed to an
// assignment a. The vertex's fixed part is then y_a = base XOR
// parity(p & a), the same affine function of a for every a, so its sign
// chi_a = (-1)^y_a = sign * (-1)^parity(p & a).
struct VertexState {
  std::uint64_t cls;  // free coefficient bits left after the chunk
  std::uint32_t p;    // coefficient on each chunk bit (1 on the constant c)
  std::int64_t sign;  // (-1)^base, base = fixed part before the chunk
  bool free;          // depends on a seed bit the chunk leaves unfixed
};

class ChunkView {
 public:
  ChunkView(const PairwiseBitLevel& level, std::span<const int> chunk) {
    const int bits = level.bits();
    if (chunk.size() >= 32) {
      throw std::invalid_argument("chunk_partials: chunk too wide");
    }
    id_mask_ = (std::uint64_t{1} << bits) - 1;
    fixed_vals_ = level.fixed_values();
    c_fixed_after_ = level.bit_fixed(bits);
    c_before_ = c_fixed_after_ ? level.seed_bit(bits) : 0;
    std::uint64_t fixed_after = level.fixed_mask();
    for (std::size_t b = 0; b < chunk.size(); ++b) {
      const int index = chunk[b];
      const bool taken = index < 0 || index > bits ||
                         (index == bits ? c_fixed_after_
                                        : ((fixed_after >> index) & 1) != 0);
      if (taken) {
        throw std::invalid_argument(
            "chunk_partials: chunk bits must be distinct unfixed seed bits");
      }
      if (index == bits) {
        c_fixed_after_ = true;
        p_c_ = std::uint32_t{1} << b;
      } else {
        fixed_after |= std::uint64_t{1} << index;
        r_bits_.push_back({index, static_cast<int>(b)});
      }
    }
    free_after_ = id_mask_ & ~fixed_after;
  }

  VertexState at(VertexId v) const {
    const std::uint64_t x = v & id_mask_;
    VertexState s;
    s.cls = x & free_after_;
    s.free = !c_fixed_after_ || s.cls != 0;
    s.p = p_c_;
    for (const RBit& r : r_bits_) {
      s.p |= static_cast<std::uint32_t>((x >> r.index) & 1) << r.slot;
    }
    s.sign = (parity64(x & fixed_vals_) ^ c_before_) ? -1 : 1;
    return s;
  }

 private:
  struct RBit {
    int index;  // coefficient r_index
    int slot;   // its bit in the assignment
  };
  std::uint64_t id_mask_;
  std::uint64_t fixed_vals_;
  std::uint64_t free_after_;
  bool c_fixed_after_;
  int c_before_;
  std::uint32_t p_c_ = 0;
  std::vector<RBit> r_bits_;
};

}  // namespace

// Every probability is a count in halves (prob_one: free 1, non-free 2*y_a)
// or quarters (prob_both_one):
//   both free, different classes     1
//   both free, same class            2 * [y_a(u) == y_a(v)] = 1 + chi(u)chi(v)
//   one non-free endpoint w          2 * y_a(w)            = 1 - chi(w)
//   both non-free                    4 * y_a(u) * y_a(v)
//                                    = 1 - chi(u) - chi(v) + chi(u)chi(v)
// with chi(u)chi(v) the sign of the key (p_u ^ p_v, base_u ^ base_v). A
// target's a-dependent counts come from one Walsh–Hadamard transform per
// group (the non-free members, each same-class run of free members); the
// edge mass from one transform of a signed histogram over the whole shard.
// Counts are exact integers, and a sum of {0, 1/2, 1} (or of quarters
// times a power of two) is exact in a double, so the doubles built from them
// equal the sums of prob_one / prob_both_one bit for bit. The per-target
// fold and its order are the ones those sums fed.
std::vector<double> chunk_partials(const EstimatorShard& shard,
                                   const PairwiseBitLevel& level,
                                   std::span<const int> chunk,
                                   const FutureFactors& f) {
  const ChunkView view(level, chunk);
  const std::size_t assignments = std::size_t{1} << chunk.size();
  std::vector<double> partials(2 * assignments, 0.0);

  std::vector<std::int64_t> non_free_chi(assignments);
  std::vector<std::int64_t> group_chi(assignments);
  std::vector<std::int64_t> same_class_sq(assignments);
  std::vector<VertexState> free_members;
  for (std::size_t t = 0; t < shard.num_targets(); ++t) {
    std::int64_t non_free = 0;
    free_members.clear();
    for (VertexId u : shard.target(t)) {
      const VertexState s = view.at(u);
      if (s.free) {
        free_members.push_back(s);
        continue;
      }
      // Scratch arrays are cleared only when used: most targets of an
      // early chunk have neither non-free members nor same-class runs.
      if (non_free++ == 0) std::ranges::fill(non_free_chi, 0);
      non_free_chi[s.p] += s.sign;
    }
    if (non_free > 0) walsh_hadamard(non_free_chi);

    // A class of s free members, S = sum of their chi, holds
    // C(s,2) - (s^2 - S^2)/4 pairs with equal fixed parts.
    if (!std::ranges::is_sorted(free_members, {}, &VertexState::cls)) {
      std::ranges::sort(free_members, {}, &VertexState::cls);
    }
    std::int64_t same_pairs = 0;
    std::int64_t same_sq_sizes = 0;
    for (std::size_t i = 0, j = 0; i < free_members.size(); i = j) {
      while (j < free_members.size() &&
             free_members[j].cls == free_members[i].cls) {
        ++j;
      }
      const auto size = static_cast<std::int64_t>(j - i);
      if (size < 2) continue;
      std::ranges::fill(group_chi, 0);
      for (std::size_t m = i; m < j; ++m) {
        group_chi[free_members[m].p] += free_members[m].sign;
      }
      walsh_hadamard(group_chi);
      if (same_pairs == 0) std::ranges::fill(same_class_sq, 0);
      for (std::size_t a = 0; a < assignments; ++a) {
        same_class_sq[a] += group_chi[a] * group_chi[a];
      }
      same_pairs += size * (size - 1) / 2;
      same_sq_sizes += size * size;
    }

    const auto n_free = static_cast<std::int64_t>(free_members.size());
    const std::int64_t cross_pairs = n_free * (n_free - 1) / 2 - same_pairs;
    for (std::size_t a = 0; a < assignments; ++a) {
      // Non-free members with y_a = 1.
      const std::int64_t ones =
          non_free == 0 ? 0 : (non_free - non_free_chi[a]) / 2;
      const std::int64_t equal_pairs =
          same_pairs == 0 ? 0
                          : same_pairs - (same_sq_sizes - same_class_sq[a]) / 4;
      const std::int64_t halves = n_free + 2 * ones;
      const std::int64_t quarters = cross_pairs + 2 * equal_pairs +
                                    2 * n_free * ones + 2 * ones * (ones - 1);
      const double singles = static_cast<double>(halves) * 0.5;
      const double pairs = static_cast<double>(quarters) * 0.25;
      partials[2 * a] += singles * f.single - pairs * f.pair;
    }
  }

  // Edge quarters: |E| plus the transform of the signed key histogram.
  std::vector<std::int64_t>& edge_chi = group_chi;
  std::ranges::fill(edge_chi, 0);
  for (const Edge& e : shard.edges) {
    const VertexState u = view.at(e.u);
    const VertexState v = view.at(e.v);
    if (u.free && v.free) {
      if (u.cls == v.cls) edge_chi[u.p ^ v.p] += u.sign * v.sign;
      continue;
    }
    if (!u.free) edge_chi[u.p] -= u.sign;
    if (!v.free) edge_chi[v.p] -= v.sign;
    if (!u.free && !v.free) edge_chi[u.p ^ v.p] += u.sign * v.sign;
  }
  walsh_hadamard(edge_chi);
  const auto edges = static_cast<std::int64_t>(shard.edges.size());
  const double quarter = 0.25 * f.pair;
  for (std::size_t a = 0; a < assignments; ++a) {
    partials[2 * a + 1] = static_cast<double>(edges + edge_chi[a]) * quarter;
  }
  return partials;
}

void keep_survivors(EstimatorShard& shard, const PairwiseBitLevel& level) {
  std::size_t kept = 0;
  std::size_t begin = shard.target_begin[0];
  for (std::size_t t = 0; t < shard.num_targets(); ++t) {
    const std::size_t end = shard.target_begin[t + 1];
    shard.target_begin[t] = kept;
    for (std::size_t i = begin; i < end; ++i) {
      if (level.eval(shard.members[i]) != 0) {
        shard.members[kept++] = shard.members[i];
      }
    }
    begin = end;
  }
  shard.target_begin.back() = kept;
  shard.members.resize(kept);
  std::erase_if(shard.edges, [&](const Edge& e) {
    return level.eval(e.u) == 0 || level.eval(e.v) == 0;
  });
}

ChunkScorer luby_scorer(mpc::Simulator& sim, const MarkingFamily& family,
                        const std::vector<LubyShard>& shards) {
  return [&sim, &family, &shards](int j, const PairwiseBitLevel&,
                                  std::span<const int> chunk) {
    const std::size_t assignments = std::size_t{1} << chunk.size();
    // Each machine evaluates its shard for every assignment inside the
    // gather round's callback (parallel across machines when the simulator
    // runs threaded), fixing the chunk on a private copy of the family; the
    // shared `family` is only read.
    return mpc::allreduce_sum_compute(
        sim, assignments, [&](mpc::MachineId m) {
          const LubyShard& shard = shards[m];
          MarkingFamily local = family;
          PairwiseBitLevel& level = local.level(j);
          const PairwiseBitLevel saved = level;
          std::vector<double> partials(assignments, 0.0);
          for (std::size_t a = 0; a < assignments; ++a) {
            for (std::size_t b = 0; b < chunk.size(); ++b) {
              level.fix_bit(chunk[b], static_cast<int>((a >> b) & 1u));
            }
            double psi = 0.0;
            for (const LubyShard::Singleton& s : shard.singles) {
              psi += s.w * local.prob_mark(s.id, s.depth);
            }
            for (const LubyShard::Pair& t : shard.pairs) {
              psi -= t.w * local.prob_mark_both(t.u, t.du, t.v, t.dv);
            }
            partials[a] = psi;
            level = saved;
          }
          return partials;
        });
  };
}

}  // namespace detail

using mpc::MachineId;

DerandMarkResult derand_mark(mpc::Simulator& sim, const mpc::DistGraph& dg,
                             const std::vector<bool>& candidates_mask,
                             const std::vector<VertexId>& targets,
                             const DerandMarkOptions& options) {
  if (options.levels < 1) {
    throw std::invalid_argument("derand_mark: levels must be >= 1");
  }
  if (options.chunk_bits < 1 || options.chunk_bits > 12) {
    throw std::invalid_argument("derand_mark: chunk_bits must be in [1, 12]");
  }
  if (options.edge_budget == 0) {
    throw std::invalid_argument("derand_mark: edge_budget must be positive");
  }
  const VertexId n = dg.num_vertices();
  const int k = options.levels;
  const std::size_t trunc = std::size_t{1} << std::min(k, 20);
  const MachineId m_count = sim.num_machines();

  auto is_candidate = [&](VertexId v) {
    return v < candidates_mask.size() && candidates_mask[v] && dg.active(v);
  };

  // --- build shards (local work at each owner) -----------------------------
  std::vector<detail::EstimatorShard> shards(m_count);
  for (VertexId v : targets) {
    detail::EstimatorShard& shard = shards[dg.owner(v)];
    const std::size_t begin = shard.members.size();
    if (is_candidate(v)) shard.members.push_back(v);
    for (VertexId u : dg.neighbors(v)) {
      if (shard.members.size() - begin >= trunc) break;
      if (is_candidate(u)) shard.members.push_back(u);
    }
    // Id order puts each class in one run in every chunk: chunks fix the
    // lowest unfixed bits, so a class is an id range.
    std::sort(shard.members.begin() + static_cast<std::ptrdiff_t>(begin),
              shard.members.end());
    shard.end_target();
  }
  for (MachineId m = 0; m < m_count; ++m) {
    for (VertexId u : dg.owned(m)) {
      if (!is_candidate(u)) continue;
      for (VertexId w : dg.neighbors(u)) {
        if (u < w && is_candidate(w)) shards[m].edges.push_back({u, w});
      }
    }
  }

  const double lambda =
      8.0 * std::max<double>(1.0, static_cast<double>(targets.size()));
  const double budget = static_cast<double>(options.edge_budget);

  MarkingFamily family(std::max<std::uint64_t>(n, 2), k);
  DerandMarkResult result;
  result.seed_bits = family.total_seed_bits();

  const std::uint64_t rounds_before = sim.metrics().rounds;

  auto future_factors = [&](int level_idx) {
    const int remaining = k - 1 - level_idx;
    return detail::FutureFactors{std::exp2(-remaining),
                                 std::exp2(-2 * remaining)};
  };

  {
    // The empty chunk: its single "assignment" is the unfixed seed.
    double cover = 0.0;
    double edge_mass = 0.0;
    for (MachineId m = 0; m < m_count; ++m) {
      const std::vector<double> p =
          detail::chunk_partials(shards[m], family.level(0), {},
                                 future_factors(0));
      cover += p[0];
      edge_mass += p[1];
    }
    result.initial_estimate = cover - lambda * edge_mass / budget;
  }

  // --- chunked conditional expectations ------------------------------------
  // Each machine evaluates its shard for every assignment, in one counting
  // pass, inside the gather round's callback (parallel across machines when
  // the simulator runs threaded); the partials are summed with one
  // width-2*2^c allreduce (2 real MPC rounds). `level` and the shards are
  // only read here.
  auto score = [&](int j, const PairwiseBitLevel& level,
                   std::span<const int> chunk) {
    const detail::FutureFactors f = future_factors(j);
    const std::size_t assignments = std::size_t{1} << chunk.size();
    const std::vector<double> totals = mpc::allreduce_sum_compute(
        sim, 2 * assignments, [&](MachineId m) {
          return detail::chunk_partials(shards[m], level, chunk, f);
        });
    std::vector<double> phi(assignments);
    for (std::size_t a = 0; a < assignments; ++a) {
      phi[a] = totals[2 * a] - lambda * totals[2 * a + 1] / budget;
    }
    return phi;
  };
  // Level finalized: every machine filters its shard locally (free).
  auto keep_survivors = [&](int j) {
    for (detail::EstimatorShard& shard : shards) {
      detail::keep_survivors(shard, family.level(j));
    }
  };
  result.chunks = fix_seed(family, options.chunk_bits, score, keep_survivors)
                      .chunks;

  // --- realized outcome (all quantities now deterministic) -----------------
  {
    double cover = 0.0;
    std::uint64_t covered = 0;
    std::uint64_t edges = 0;
    for (const detail::EstimatorShard& shard : shards) {
      for (std::size_t t = 0; t < shard.num_targets(); ++t) {
        const std::size_t size = shard.target(t).size();
        const double y = static_cast<double>(size);
        cover += y - y * (y - 1) / 2.0;
        if (size != 0) ++covered;
      }
      edges += shard.edges.size();
    }
    result.covered_targets = covered;
    result.marked_edges = edges;
    result.final_estimate =
        cover - lambda * static_cast<double>(edges) / budget;
  }

  for (VertexId v = 0; v < n; ++v) {
    if (is_candidate(v) && family.mark(v)) result.marked.push_back(v);
  }

  result.rounds = sim.metrics().rounds - rounds_before;
  RSETS_DEBUG << "derand_mark: |T|=" << targets.size() << " k=" << k
              << " covered=" << result.covered_targets
              << " |M|=" << result.marked.size()
              << " edges(M)=" << result.marked_edges << "/"
              << options.edge_budget << " Phi " << result.initial_estimate
              << " -> " << result.final_estimate;
  return result;
}

}  // namespace rsets
