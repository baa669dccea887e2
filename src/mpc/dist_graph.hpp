// Vertex-partitioned distributed graph storage for the MPC simulator.
//
// Each vertex is owned by machine mix_hash(v, salt) % M; the owner stores the
// vertex's full adjacency list. This is the standard input layout for
// vertex-centric MPC graph algorithms: loading charges one round for the
// initial shuffle and counts its words, and per-machine storage is charged
// against the memory budget S (so an undersized configuration fails loudly).
//
// An *activity* bitset over all vertices is replicated on every machine
// (n bits each = n/64 words; this is the near-linear-memory regime the
// paper's main algorithm lives in). Deactivations are announced by their
// owners to every other machine, one round per batch; total announcement
// traffic over a whole run is O(n * M) words since each vertex deactivates
// once.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/shard/shard_csr.hpp"
#include "graph/shard/sharded_source.hpp"
#include "mpc/primitives.hpp"
#include "mpc/simulator.hpp"

namespace rsets::mpc {

class DistGraph : public Snapshotable {
 public:
  // Loads `g` into `sim`, charging storage and the distribution round.
  DistGraph(Simulator& sim, const Graph& g, std::uint64_t partition_salt = 0);

  // Sharded ingestion: each machine generates its own shard of `src` and
  // the union is assembled into an out-of-core CSR (see shard/shard_csr.hpp)
  // without ever building a global Graph. The CSR is bit-identical to what
  // the materialized constructor stores, so storage charges, round counts,
  // and the whole metrics ledger match the global path exactly.
  DistGraph(Simulator& sim, const shard::ShardedSource& src,
            const shard::IngestOptions& ingest = {},
            std::uint64_t partition_salt = 0);

  VertexId num_vertices() const { return num_vertices_; }
  std::uint64_t num_edges() const { return num_edges_; }

  // Stateless ownership function — every machine can evaluate it locally.
  MachineId owner(VertexId v) const;

  // Vertices owned by machine m (sorted).
  std::span<const VertexId> owned(MachineId m) const {
    return owned_[m];
  }

  // Adjacency of an owned vertex; caller must be (conceptually) machine
  // owner(v).
  std::span<const VertexId> neighbors(VertexId v) const {
    return graph_ != nullptr ? graph_->neighbors(v) : csr_.neighbors(v);
  }
  std::uint32_t degree(VertexId v) const {
    return graph_ != nullptr ? graph_->degree(v) : csr_.degree(v);
  }

  // True when this graph was ingested from a ShardedSource.
  bool sharded() const { return graph_ == nullptr; }

  // --- replicated activity ------------------------------------------------
  bool active(VertexId v) const { return active_[v]; }
  std::uint64_t active_count() const { return active_count_; }

  // Current max degree *within the active subgraph* — computed with one
  // allreduce (2 rounds): owners scan their active vertices' active
  // neighbors locally.
  std::uint32_t active_max_degree(Simulator& sim) const;

  // Active degree of an owned vertex (local scan).
  std::uint32_t active_degree(VertexId v) const;

  // Deactivates `vertices` cluster-wide: each owner announces its share
  // (mpc::announce, tag 0xDE), in ascending order. Costs one round. Words
  // sent by machine m: |owned share| * (M-1) + headers. Throws
  // std::logic_error unless `vertices` is strictly ascending and in range.
  void deactivate(Simulator& sim, std::span<const VertexId> vertices);

  // All currently active vertices (driver-side convenience; owners know
  // their own, and the replicated bitset makes this consistent).
  std::vector<VertexId> active_vertices() const;

  // --- Snapshotable --------------------------------------------------------
  // The mutable state is the replicated activity bitset; the graph itself,
  // ownership map, and storage charges are immutable after construction and
  // reconstructible from the input, so they stay out of checkpoints.
  void save(SnapshotWriter& w) const override;
  void restore(SnapshotReader& r) override;

 private:
  // Charges per-machine storage (bitset + owned adjacency) and the
  // distribution round; shared by both constructors.
  void finish_load(Simulator& sim);

  const Graph* graph_;  // simulation backing store; per-machine slices are
                        // what is *charged*, access discipline is by owner
  shard::ShardCsr csr_;  // backing store for sharded ingestion (graph_ null)
  VertexId num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  MachineId num_machines_ = 1;
  std::uint64_t salt_ = 0;
  std::vector<std::vector<VertexId>> owned_;
  std::vector<bool> active_;  // replicated (identical on all machines)
  std::uint64_t active_count_ = 0;
  std::vector<std::size_t> charged_words_;  // per machine, for release
};

}  // namespace rsets::mpc
