// Collective communication primitives over the MPC simulator.
//
// Every primitive spends real simulated rounds and words; nothing is free.
// Round costs (with M = #machines, assuming M and payloads fit the per-round
// bandwidth budget S, which the simulator enforces):
//   broadcast       1 round   (root sends to all M machines)
//   gather_to       1 round   (all machines send to root)
//   allreduce_*     2 rounds  (gather + broadcast)
//   all_to_all      1 round
//   announce        1 round   (every machine sends its list to all others)
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mpc/simulator.hpp"

namespace rsets::mpc {

// Root sends `payload` to every machine (including itself, free locally).
// Returns the payload as received by each machine.
std::vector<std::vector<Word>> broadcast(Simulator& sim, MachineId root,
                                         const std::vector<Word>& payload,
                                         std::uint32_t tag = 0xB0);

// Every machine sends its contribution to root; returns, indexed by source
// machine, what root received.
std::vector<std::vector<Word>> gather_to(
    Simulator& sim, MachineId root,
    const std::vector<std::vector<Word>>& contributions,
    std::uint32_t tag = 0xA0);

// Element-wise sum of per-machine double vectors, result known to all
// machines. All contributions must have equal length. Doubles are carried
// bit-exactly through word payloads.
std::vector<double> allreduce_sum(Simulator& sim,
                                  const std::vector<std::vector<double>>&
                                      contributions,
                                  std::uint32_t tag = 0xC0);

// Like allreduce_sum, but each machine's contribution is produced by
// `compute(machine_id)` from *inside* the gather round's callback, so the
// per-machine work runs on the simulator's worker pool when
// MpcConfig::num_threads != 1. `compute` must return exactly `width`
// doubles, touch only machine-local state, and be safe to invoke
// concurrently for distinct machine ids. Rounds, message sizes, and the
// floating-point summation order are identical to allreduce_sum, so the
// result and MpcMetrics are bit-identical at any thread count.
std::vector<double> allreduce_sum_compute(
    Simulator& sim, std::size_t width,
    const std::function<std::vector<double>(MachineId)>& compute,
    std::uint32_t tag = 0xC0);

// Max of one uint64 per machine, known to all machines.
std::uint64_t allreduce_max(Simulator& sim,
                            const std::vector<std::uint64_t>& values,
                            std::uint32_t tag = 0xD0);

// Sum of one uint64 per machine, known to all machines.
std::uint64_t allreduce_sum_u64(Simulator& sim,
                                const std::vector<std::uint64_t>& values,
                                std::uint32_t tag = 0xD1);

// Machine m sends its list `per_machine_lists[m]`, when non-empty, to every
// other machine in ascending order; receivers read nothing. This is how a
// machine makes what it owns cluster-replicated knowledge (joiners, samples,
// winners, deactivations): every machine applies the announced lists to its
// replica of the state outside the round.
void announce(Simulator& sim,
              const std::vector<std::vector<Word>>& per_machine_lists,
              std::uint32_t tag);

// out[i][j] = words machine i sends machine j; returns in[j][i].
std::vector<std::vector<std::vector<Word>>> all_to_all(
    Simulator& sim,
    const std::vector<std::vector<std::vector<Word>>>& out,
    std::uint32_t tag = 0xE0);

}  // namespace rsets::mpc
