#include "mpc/primitives.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace rsets::mpc {

std::vector<std::vector<Word>> broadcast(Simulator& sim, MachineId root,
                                         const std::vector<Word>& payload,
                                         std::uint32_t tag) {
  const MachineId m_count = sim.num_machines();
  std::vector<std::vector<Word>> received(m_count);
  sim.round([&](Machine& machine, const Inbox& inbox) {
    if (machine.id() == root) {
      received[root] = payload;  // local copy, no message
      for (MachineId dst = 0; dst < m_count; ++dst) {
        if (dst != root) machine.send(dst, tag, payload);
      }
    }
    (void)inbox;  // messages land next round
  });
  sim.drain([&](Machine& machine, const Inbox& inbox) {
    for (const MessageView& msg : inbox.with_tag(tag)) {
      received[machine.id()].assign(msg.payload.begin(), msg.payload.end());
    }
  });
  return received;
}

std::vector<std::vector<Word>> gather_to(
    Simulator& sim, MachineId root,
    const std::vector<std::vector<Word>>& contributions, std::uint32_t tag) {
  if (contributions.size() != sim.num_machines()) {
    throw std::invalid_argument("gather_to: need one contribution/machine");
  }
  std::vector<std::vector<Word>> received(sim.num_machines());
  sim.round([&](Machine& machine, const Inbox&) {
    if (machine.id() == root) {
      received[root] = contributions[root];
    } else {
      machine.send(root, tag, contributions[machine.id()]);
    }
  });
  sim.drain([&](Machine& machine, const Inbox& inbox) {
    if (machine.id() != root) return;
    for (const MessageView& msg : inbox.with_tag(tag)) {
      received[msg.src].assign(msg.payload.begin(), msg.payload.end());
    }
  });
  return received;
}

std::vector<double> allreduce_sum(
    Simulator& sim, const std::vector<std::vector<double>>& contributions,
    std::uint32_t tag) {
  if (contributions.size() != sim.num_machines()) {
    throw std::invalid_argument("allreduce_sum: need one vector per machine");
  }
  const std::size_t width = contributions.empty() ? 0 : contributions[0].size();
  std::vector<std::vector<Word>> packed(sim.num_machines());
  for (MachineId m = 0; m < sim.num_machines(); ++m) {
    if (contributions[m].size() != width) {
      throw std::invalid_argument("allreduce_sum: ragged contributions");
    }
    packed[m].reserve(width);
    for (double x : contributions[m]) {
      packed[m].push_back(std::bit_cast<Word>(x));
    }
  }
  const auto at_root = gather_to(sim, 0, packed, tag);
  std::vector<double> total(width, 0.0);
  for (const auto& vec : at_root) {
    for (std::size_t i = 0; i < width; ++i) {
      total[i] += std::bit_cast<double>(vec[i]);
    }
  }
  std::vector<Word> packed_total;
  packed_total.reserve(width);
  for (double x : total) packed_total.push_back(std::bit_cast<Word>(x));
  broadcast(sim, 0, packed_total, tag + 1);
  return total;
}

std::vector<double> allreduce_sum_compute(
    Simulator& sim, std::size_t width,
    const std::function<std::vector<double>(MachineId)>& compute,
    std::uint32_t tag) {
  const MachineId m_count = sim.num_machines();
  // Indexed by source machine; machine i's callback writes only slot i
  // (root's local copy) or sends — distinct elements, parallel-safe.
  std::vector<std::vector<Word>> received(m_count);
  sim.round([&](Machine& machine, const Inbox&) {
    const MachineId m = machine.id();
    const std::vector<double> local = compute(m);
    if (local.size() != width) {
      throw std::invalid_argument(
          "allreduce_sum_compute: compute returned wrong width");
    }
    std::vector<Word> packed;
    packed.reserve(width);
    for (double x : local) packed.push_back(std::bit_cast<Word>(x));
    if (m == 0) {
      received[0] = std::move(packed);
    } else {
      machine.send(0, tag, std::span<const Word>(packed));
    }
  });
  sim.drain([&](Machine& machine, const Inbox& inbox) {
    if (machine.id() != 0) return;
    for (const MessageView& msg : inbox.with_tag(tag)) {
      received[msg.src].assign(msg.payload.begin(), msg.payload.end());
    }
  });
  // Same summation order as allreduce_sum: machines ascending, then index.
  std::vector<double> total(width, 0.0);
  for (const auto& vec : received) {
    for (std::size_t i = 0; i < width; ++i) {
      total[i] += std::bit_cast<double>(vec.at(i));
    }
  }
  std::vector<Word> packed_total;
  packed_total.reserve(width);
  for (double x : total) packed_total.push_back(std::bit_cast<Word>(x));
  broadcast(sim, 0, packed_total, tag + 1);
  return total;
}

std::uint64_t allreduce_max(Simulator& sim,
                            const std::vector<std::uint64_t>& values,
                            std::uint32_t tag) {
  std::vector<std::vector<Word>> contributions(sim.num_machines());
  for (MachineId m = 0; m < sim.num_machines(); ++m) {
    contributions[m] = {values.at(m)};
  }
  const auto at_root = gather_to(sim, 0, contributions, tag);
  std::uint64_t best = 0;
  for (const auto& vec : at_root) best = std::max(best, vec.at(0));
  broadcast(sim, 0, {best}, tag + 1);
  return best;
}

std::uint64_t allreduce_sum_u64(Simulator& sim,
                                const std::vector<std::uint64_t>& values,
                                std::uint32_t tag) {
  std::vector<std::vector<Word>> contributions(sim.num_machines());
  for (MachineId m = 0; m < sim.num_machines(); ++m) {
    contributions[m] = {values.at(m)};
  }
  const auto at_root = gather_to(sim, 0, contributions, tag);
  std::uint64_t total = 0;
  for (const auto& vec : at_root) total += vec.at(0);
  broadcast(sim, 0, {total}, tag + 1);
  return total;
}

void announce(Simulator& sim,
              const std::vector<std::vector<Word>>& per_machine_lists,
              std::uint32_t tag) {
  const MachineId m_count = sim.num_machines();
  if (per_machine_lists.size() != m_count) {
    throw std::invalid_argument("announce: need one list per machine");
  }
  sim.round([&](Machine& machine, const Inbox&) {
    const MachineId src = machine.id();
    if (per_machine_lists[src].empty()) return;
    for (MachineId dst = 0; dst < m_count; ++dst) {
      if (dst != src) machine.send(dst, tag, per_machine_lists[src]);
    }
  });
  sim.drain([](Machine&, const Inbox&) {});
}

std::vector<std::vector<std::vector<Word>>> all_to_all(
    Simulator& sim, const std::vector<std::vector<std::vector<Word>>>& out,
    std::uint32_t tag) {
  const MachineId m_count = sim.num_machines();
  if (out.size() != m_count) {
    throw std::invalid_argument("all_to_all: need one row per machine");
  }
  std::vector<std::vector<std::vector<Word>>> in(
      m_count, std::vector<std::vector<Word>>(m_count));
  sim.round([&](Machine& machine, const Inbox&) {
    const MachineId src = machine.id();
    for (MachineId dst = 0; dst < m_count; ++dst) {
      if (dst == src) {
        in[src][src] = out[src][src];
      } else if (!out[src][dst].empty()) {
        machine.send(dst, tag, out[src][dst]);
      }
    }
  });
  sim.drain([&](Machine& machine, const Inbox& inbox) {
    for (const MessageView& msg : inbox.with_tag(tag)) {
      in[machine.id()][msg.src].assign(msg.payload.begin(), msg.payload.end());
    }
  });
  return in;
}

}  // namespace rsets::mpc
