#include "core/phase_common.hpp"

#include <algorithm>
#include <span>

#include "mpc/primitives.hpp"

namespace rsets::detail {

using mpc::MachineId;
using mpc::Simulator;
using mpc::Word;

// Total active edges (2 rounds: one u64 allreduce).
std::uint64_t count_active_edges(Simulator& sim, const mpc::DistGraph& dg) {
  std::vector<std::uint64_t> local(sim.num_machines(), 0);
  for (MachineId m = 0; m < sim.num_machines(); ++m) {
    for (VertexId v : dg.owned(m)) {
      if (dg.active(v)) local[m] += dg.active_degree(v);
    }
  }
  return allreduce_sum_u64(sim, local) / 2;
}

// Gathers the active induced subgraph restricted to `members` onto machine
// 0 (1 round), computes a greedy MIS there, and broadcasts it (1 round).
// `in_members` must be consistent with `members`.
//
// Each owner ships one record per member v: `v, deg, u_1..u_deg`, listing
// v's lower-id member neighbours — every edge once, by its higher endpoint.
// So greedy MIS by id order needs no subgraph at all: v joins iff none of
// its listed neighbours joined. Machine 0 decodes the records where they
// lie (the inbox payloads and its own contribution) through a dense
// per-vertex record index, which also makes the order of `members`
// irrelevant.
std::vector<VertexId> gather_and_mis(Simulator& sim,
                                     const mpc::DistGraph& dg,
                                     const std::vector<VertexId>& members,
                                     const std::vector<std::uint8_t>& in_members) {
  constexpr std::uint32_t kGatherTag = 0xF1;
  const MachineId m_count = sim.num_machines();
  std::vector<std::vector<VertexId>> by_owner(m_count);
  for (VertexId v : members) by_owner[dg.owner(v)].push_back(v);

  // Machine m's records, in `members` order. Neighbour lists are sorted,
  // so the lower-id neighbours are a prefix.
  const auto serialize = [&](MachineId m) {
    std::vector<Word> records;
    for (VertexId v : by_owner[m]) {
      records.push_back(v);
      const std::size_t deg_slot = records.size();
      records.push_back(0);
      for (VertexId u : dg.neighbors(v)) {
        if (u >= v) break;
        if (in_members[u]) records.push_back(u);
      }
      records[deg_slot] = records.size() - deg_slot - 1;
    }
    return records;
  };
  std::vector<Word> own;  // machine 0's records, kept local
  sim.round([&](mpc::Machine& machine, const mpc::Inbox&) {
    if (machine.id() == 0) {
      own = serialize(0);
    } else {
      machine.send(0, kGatherTag, serialize(machine.id()));
    }
  });

  std::size_t gathered_words = 0;
  std::vector<VertexId> mis;
  sim.drain([&](mpc::Machine& machine, const mpc::Inbox& inbox) {
    if (machine.id() != 0) return;
    // record[v] points at v's `deg` word; null for non-members.
    std::vector<const Word*> record(dg.num_vertices(), nullptr);
    const auto index = [&](std::span<const Word> payload) {
      gathered_words += payload.size();
      for (std::size_t i = 0; i < payload.size(); i += 2 + payload[i + 1]) {
        record[payload[i]] = &payload[i + 1];
      }
    };
    index(own);
    for (const mpc::MessageView& msg : inbox.with_tag(kGatherTag)) {
      index(msg.payload);
    }
    std::vector<std::uint8_t> joined(dg.num_vertices(), 0);
    for (VertexId v = 0; v < dg.num_vertices(); ++v) {
      const Word* rec = record[v];
      if (rec == nullptr) continue;
      const std::span<const Word> listed(rec + 1, rec[0]);
      if (std::none_of(listed.begin(), listed.end(),
                       [&](Word u) { return joined[u] != 0; })) {
        joined[v] = 1;
        mis.push_back(v);
      }
    }
  });
  // The gathered records are machine 0's transient storage.
  sim.machine(0).charge_storage(gathered_words);
  sim.machine(0).release_storage(gathered_words);

  // Broadcast the MIS (1 round).
  std::vector<Word> packed(mis.begin(), mis.end());
  broadcast(sim, 0, packed, 0xF2);
  return mis;
}

// Deactivates every active vertex within `radius` hops of the marked set
// `in_marked` (hop 1 is locally decidable because marks are replicated,
// seed-evaluable or announced; further hops cost one notification round
// each) and then one deactivation round. Returns the number of removals.
std::uint64_t remove_ball(Simulator& sim, mpc::DistGraph& dg,
                          const std::vector<std::uint8_t>& in_marked,
                          std::uint32_t radius) {
  const MachineId m_count = sim.num_machines();
  const VertexId n = dg.num_vertices();
  std::vector<std::uint8_t> removed(n, 0);
  std::vector<VertexId> frontier;
  // Hop 0 and 1: local evaluation at each owner.
  for (MachineId m = 0; m < m_count; ++m) {
    for (VertexId v : dg.owned(m)) {
      if (!dg.active(v)) continue;
      bool hit = in_marked[v];
      if (!hit) {
        for (VertexId u : dg.neighbors(v)) {
          if (dg.active(u) && in_marked[u]) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        removed[v] = true;
        frontier.push_back(v);
      }
    }
  }
  // Hops 2..radius: frontier owners notify neighbors' owners (1 round/hop).
  for (std::uint32_t hop = 2; hop <= radius; ++hop) {
    std::vector<std::vector<std::vector<Word>>> out(
        m_count, std::vector<std::vector<Word>>(m_count));
    for (VertexId v : frontier) {
      for (VertexId u : dg.neighbors(v)) {
        if (dg.active(u) && !removed[u]) {
          out[dg.owner(v)][dg.owner(u)].push_back(u);
        }
      }
    }
    const auto in = all_to_all(sim, out, 0xF3);
    std::vector<VertexId> next;
    for (MachineId m = 0; m < m_count; ++m) {
      for (const auto& payload : in[m]) {
        for (Word w : payload) {
          const auto u = static_cast<VertexId>(w);
          if (!removed[u]) {
            removed[u] = true;
            next.push_back(u);
          }
        }
      }
    }
    frontier = std::move(next);
  }
  // One deactivation round.
  std::vector<VertexId> removals;
  for (VertexId v = 0; v < n; ++v) {
    if (removed[v]) removals.push_back(v);
  }
  dg.deactivate(sim, removals);
  return removals.size();
}

void announce_marked(Simulator& sim, const mpc::DistGraph& dg,
                     const std::vector<std::uint8_t>& in_marked,
                     std::uint32_t tag) {
  std::vector<std::vector<Word>> lists(sim.num_machines());
  for (MachineId m = 0; m < sim.num_machines(); ++m) {
    for (VertexId v : dg.owned(m)) {
      if (in_marked[v]) lists[m].push_back(v);
    }
  }
  mpc::announce(sim, lists, tag);
}

bool solve_residual(Simulator& sim, mpc::DistGraph& dg,
                    std::uint64_t m_active, std::uint64_t budget,
                    std::vector<VertexId>& out) {
  if (m_active != 0 && 2 * m_active + 2 * dg.active_count() > budget) {
    return false;
  }
  const std::vector<VertexId> members = dg.active_vertices();
  if (m_active == 0) {
    out.insert(out.end(), members.begin(), members.end());
  } else {
    std::vector<std::uint8_t> mask(dg.num_vertices(), 0);
    for (VertexId v : members) mask[v] = 1;
    const auto mis = gather_and_mis(sim, dg, members, mask);
    out.insert(out.end(), mis.begin(), mis.end());
  }
  dg.deactivate(sim, members);
  return true;
}

}  // namespace rsets::detail
