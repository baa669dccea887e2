// A simulated MPC machine: storage accounting, per-destination aggregation
// buffers, and a private deterministic RNG stream.
//
// Thread discipline: when the simulator runs rounds in parallel
// (MpcConfig::num_threads != 1), each Machine is touched by exactly one
// worker during the callback pass — its own. During the destination-sharded
// merge pass a machine's per-destination arena slots are each touched by
// exactly one worker (the one owning that destination); distinct vector
// elements are distinct objects, so this too is race-free without locks.
// Everything here (storage counters, outbox arenas, RNG) is therefore
// unsynchronized by design; cross-machine state must live in messages or in
// driver arrays indexed so that machine i's callback writes only slice i
// (and never through a bit-packed container such as std::vector<bool>,
// whose neighboring elements share bytes).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mpc/message.hpp"
#include "util/rng.hpp"

namespace rsets::mpc {

class Simulator;

class Machine {
 public:
  Machine(MachineId id, const MpcConfig& config);

  MachineId id() const { return id_; }

  // --- persistent storage accounting -------------------------------------
  // Algorithms charge the words they keep across rounds (adjacency lists,
  // replicated bitsets, gathered subgraphs, ...). Violations of the memory
  // budget surface according to MpcConfig::budget_policy.
  void charge_storage(std::size_t words);
  void release_storage(std::size_t words);
  std::size_t storage_words() const { return storage_words_; }

  // --- sending ------------------------------------------------------------
  // The batch send API: one logical message whose payload is copied (once)
  // into the per-destination aggregation arena. Accepts anything
  // span-convertible — a std::vector<Word> lvalue binds directly, so the
  // common `send(dst, tag, bucket)` call sites need no conversion. Charges
  // the send budget before returning, so an over-budget message raises
  // MpcViolation (BudgetPolicy::kStrict) at the call site.
  void send(MachineId dst, std::uint32_t tag, std::span<const Word> payload) {
    check_dst(dst);
    const std::size_t len_at = open_record(dst, tag);
    std::vector<Word>& arena = out_arenas_[dst];
    arena.insert(arena.end(), payload.begin(), payload.end());
    arena[len_at] = payload.size();
    charge_send(payload.size() + kHeaderWords);
  }

  // --- randomness ---------------------------------------------------------
  // Per-machine stream; the simulator aggregates draw counts into metrics
  // so determinism claims are checkable.
  Rng& rng() { return rng_; }

 private:
  friend class Simulator;

  // Opens a framed record in the dst arena and returns the index of its
  // payload-length word.
  std::size_t open_record(MachineId dst, std::uint32_t tag) {
    std::vector<Word>& arena = out_arenas_[dst];
    arena.push_back(tag);
    arena.push_back(0);  // payload length, patched when the record closes
    ++out_counts_[dst];
    return arena.size() - 1;
  }
  // Charges `words` against this round's send budget, enforcing
  // MpcConfig::budget_policy. The over-budget tail is out of line so the
  // per-message fast path stays a compare-and-add.
  void charge_send(std::size_t words) {
    sent_words_this_round_ += words;
    if (sent_words_this_round_ > config_->memory_words) send_budget_overflow();
  }
  void send_budget_overflow();
  void check_dst(MachineId dst) const {
    if (dst >= config_->num_machines) bad_dst();
  }
  [[noreturn]] static void bad_dst();

  MachineId id_;
  const MpcConfig* config_;
  std::size_t storage_words_ = 0;
  std::size_t peak_storage_words_ = 0;
  std::uint64_t sent_words_this_round_ = 0;
  std::uint64_t violations_ = 0;
  // One framed-record arena and message count per destination. Arenas are
  // std::moved into AggBuffers at outbox merge and replaced from the
  // simulator's recycle pool, so steady-state rounds allocate nothing on
  // the send path.
  std::vector<std::vector<Word>> out_arenas_;
  std::vector<std::uint32_t> out_counts_;
  Rng rng_;
};

// Everything delivered to one machine in one phase: whole per-(src, dst)
// aggregation buffers plus a flat index of per-message views sorted by
// (tag, src) for deterministic iteration. Views alias the buffers' arenas —
// building an Inbox copies no payload words.
class Inbox {
 public:
  // An empty inbox ready for build(); the simulator keeps one per machine
  // and rebuilds it each phase so the index vector's capacity is reused.
  Inbox() = default;

  // `buffers` must outlive the Inbox (the simulator owns them for the whole
  // phase and recycles the arenas only after every callback returned).
  explicit Inbox(std::span<const AggBuffer> buffers) { build(buffers); }

  // Rebuilds the index over a new phase's buffers, retaining capacity.
  // Throws MpcViolation on malformed framing.
  void build(std::span<const AggBuffer> buffers);

  std::span<const MessageView> all() const { return index_; }
  bool empty() const { return index_.empty(); }
  std::size_t size() const { return index_.size(); }

  // All messages with the given tag (contiguous thanks to sorting).
  std::span<const MessageView> with_tag(std::uint32_t tag) const;

  std::uint64_t total_words() const { return total_words_; }

 private:
  std::vector<MessageView> index_;
  std::uint64_t total_words_ = 0;
};

}  // namespace rsets::mpc
