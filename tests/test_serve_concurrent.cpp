// Tests for the concurrent multi-producer serving front: deterministic
// generation merge under arbitrary interleavings, bounded-queue
// backpressure, per-producer quarantine/backoff/ejection with journaled
// tombstones, producer-tagged routing, epoch-pinned point queries, the
// liveness watchdog (escalation + fail-stop + operator recover), and the
// journal's tombstone durability across crashes and .prev fallback.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/chaos.hpp"
#include "core/replay.hpp"
#include "graph/ops.hpp"
#include "serve/ingest.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "serve/updates.hpp"

namespace rsets::serve {
namespace {

struct SimulatedCrash {};

Graph make_graph(std::uint64_t n, double avg_deg, std::uint64_t seed,
                 const std::string& gen = "gnp") {
  RunSpec spec;
  spec.gen = gen;
  spec.n = n;
  spec.avg_deg = avg_deg;
  spec.seed = seed;
  return build_graph(spec);
}

// The protocol lines of one producer's stream: `batches` deterministic
// churn batches, each closed by a commit.
std::vector<std::string> script_lines(std::uint64_t seed, std::uint32_t p,
                                      std::uint64_t batches, std::uint64_t n,
                                      std::uint64_t per_batch) {
  std::vector<std::string> lines;
  for (std::uint64_t b = 0; b < batches; ++b) {
    const UpdateBatch batch = chaos_churn_batch(seed, p, b, n, per_batch);
    for (const EdgeUpdate& u : batch.updates) lines.push_back(to_line(u));
    lines.push_back("commit");
  }
  return lines;
}

// Drives every producer's line list through `ingest` in the interleaving
// chosen by `next` (a function of the step index), resubmitting lines that
// bounce (kWouldBlock / kBackoff) and draining generations whenever a
// producer is blocked. Returns the taken generations in order.
template <typename Next>
std::vector<UpdateBatch> drive(MultiProducerIngest& ingest,
                               const std::vector<std::vector<std::string>>& all,
                               Next next) {
  std::vector<std::size_t> cursor(all.size(), 0);
  std::vector<bool> blocked(all.size(), false);
  std::vector<UpdateBatch> taken;
  auto drain = [&] {
    bool any = false;
    while (std::optional<UpdateBatch> g = ingest.take_generation()) {
      taken.push_back(std::move(*g));
      any = true;
    }
    if (any) blocked.assign(all.size(), false);
    return any;
  };
  std::uint64_t step = 0;
  for (;;) {
    // Skip producers parked at the queue cap: if no generation freed them
    // last time, only the producers that can still make progress run (they
    // must exist — if every live producer had a queued batch, a generation
    // would be ready and drain() would have unparked everyone).
    std::vector<std::uint32_t> active;
    for (std::uint32_t p = 0; p < all.size(); ++p) {
      if (cursor[p] < all[p].size() && !blocked[p]) active.push_back(p);
    }
    if (active.empty()) {
      bool done = true;
      for (std::uint32_t p = 0; p < all.size(); ++p) {
        done = done && cursor[p] >= all[p].size();
      }
      if (done) break;
      if (!drain()) {
        ADD_FAILURE() << "all producers parked with nothing ready";
        return taken;
      }
      continue;
    }
    const std::uint32_t p = active[next(step++) % active.size()];
    const PushStatus status = ingest.offer_line(p, all[p][cursor[p]]);
    if (status == PushStatus::kWouldBlock) {
      if (!drain()) blocked[p] = true;
    } else if (status != PushStatus::kBackoff) {
      ++cursor[p];
    }
  }
  ingest.close_all();
  drain();
  return taken;
}

// ------------------------------------------------------------ merge order --

TEST(ServeConcurrentIngest, GenerationMergeIsScheduleIndependent) {
  constexpr std::uint32_t kProducers = 3;
  std::vector<std::vector<std::string>> all;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    all.push_back(script_lines(11, p, 4, 80, 6));
  }
  IngestConfig cfg;
  cfg.num_producers = kProducers;
  cfg.queue_cap = 2;

  // Three very different interleavings: round-robin, producer-0-greedy,
  // and a mixed stride. The taken generations must be byte-identical.
  std::vector<std::vector<UpdateBatch>> runs;
  const std::vector<std::uint64_t (*)(std::uint64_t)> schedules = {
      [](std::uint64_t s) { return s; },
      [](std::uint64_t) { return std::uint64_t{0}; },
      [](std::uint64_t s) { return s * 7 + s / 3; }};
  for (const auto& schedule : schedules) {
    MultiProducerIngest ingest(cfg);
    runs.push_back(drive(ingest, all, schedule));
    EXPECT_TRUE(ingest.drained());
  }
  ASSERT_EQ(runs[0].size(), 4u);  // one generation per aligned batch row
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t g = 0; g < runs[0].size(); ++g) {
      EXPECT_EQ(runs[r][g].updates, runs[0][g].updates)
          << "schedule " << r << " generation " << g;
    }
  }

  // Each generation is each producer's g-th batch concatenated in
  // producer-id order.
  for (std::size_t g = 0; g < runs[0].size(); ++g) {
    UpdateBatch want;
    for (std::uint32_t p = 0; p < kProducers; ++p) {
      const UpdateBatch batch = chaos_churn_batch(11, p, g, 80, 6);
      want.updates.insert(want.updates.end(), batch.updates.begin(),
                          batch.updates.end());
    }
    EXPECT_EQ(runs[0][g].updates, want.updates) << "generation " << g;
  }
}

TEST(ServeConcurrentIngest, GenerationWaitsForEveryLiveProducer) {
  IngestConfig cfg;
  cfg.num_producers = 2;
  MultiProducerIngest ingest(cfg);
  EXPECT_EQ(ingest.offer_line(0, "+ 0 1"), PushStatus::kAccepted);
  EXPECT_EQ(ingest.offer_line(0, "commit"), PushStatus::kCommitted);
  // Producer 1 is live but has nothing queued: generation 0 is not aligned.
  EXPECT_FALSE(ingest.generation_ready());
  EXPECT_FALSE(ingest.take_generation().has_value());
  // Closing producer 1 removes it from the alignment requirement.
  ingest.close(1);
  ASSERT_TRUE(ingest.generation_ready());
  const std::optional<UpdateBatch> gen = ingest.take_generation();
  ASSERT_TRUE(gen.has_value());
  EXPECT_EQ(gen->updates.size(), 1u);
  EXPECT_TRUE(ingest.take_tombstones().empty());
}

// ----------------------------------------------------------- backpressure --

TEST(ServeConcurrentIngest, OfferBouncesAtQueueCapWithoutConsuming) {
  IngestConfig cfg;
  cfg.num_producers = 1;
  cfg.queue_cap = 1;
  MultiProducerIngest ingest(cfg);
  EXPECT_EQ(ingest.offer_line(0, "+ 0 1"), PushStatus::kAccepted);
  EXPECT_EQ(ingest.offer_line(0, "commit"), PushStatus::kCommitted);
  EXPECT_EQ(ingest.offer_line(0, "+ 2 3"), PushStatus::kAccepted);
  // The queue holds one committed batch: this commit must bounce, and the
  // bounced line is NOT consumed (resubmitting after a drain succeeds and
  // the stream loses nothing).
  EXPECT_EQ(ingest.offer_line(0, "commit"), PushStatus::kWouldBlock);
  EXPECT_EQ(ingest.offer_line(0, "commit"), PushStatus::kWouldBlock);
  EXPECT_GE(ingest.metrics().backpressure, 2u);
  ASSERT_TRUE(ingest.take_generation().has_value());
  EXPECT_EQ(ingest.offer_line(0, "commit"), PushStatus::kCommitted);
  ingest.close_all();
  const std::optional<UpdateBatch> gen = ingest.take_generation();
  ASSERT_TRUE(gen.has_value());
  EXPECT_EQ(gen->updates[0], (EdgeUpdate{EdgeUpdate::Op::kInsert, 2, 3}));
}

TEST(ServeConcurrentIngest, OversizedBatchAlwaysCommitsAndCloseWaivesCap) {
  IngestConfig cfg;
  cfg.num_producers = 1;
  cfg.queue_cap = 1;
  MultiProducerIngest ingest(cfg);
  // The cap bounds batches, not updates: a batch larger than any queue
  // bound still commits (no self-deadlock).
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ingest.offer_line(0, "+ " + std::to_string(i) + " " +
                                       std::to_string(i + 1)),
              PushStatus::kAccepted);
  }
  EXPECT_EQ(ingest.offer_line(0, "commit"), PushStatus::kCommitted);
  // close() commits a trailing open batch even though the queue is full.
  EXPECT_EQ(ingest.offer_line(0, "+ 90 91"), PushStatus::kAccepted);
  ingest.close(0);
  EXPECT_TRUE(ingest.closed(0));
  EXPECT_EQ(ingest.offer_line(0, "+ 1 2"), PushStatus::kClosed);
  ASSERT_TRUE(ingest.take_generation().has_value());
  const std::optional<UpdateBatch> tail = ingest.take_generation();
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->updates.size(), 1u);
  EXPECT_TRUE(ingest.drained());
}

// --------------------------------------------- quarantine, backoff, eject --

TEST(ServeConcurrentIngest, StrikeDiscardsOpenBatchAndBacksOffExponentially) {
  IngestConfig cfg;
  cfg.num_producers = 2;
  MultiProducerIngest ingest(cfg);
  EXPECT_EQ(ingest.offer_line(0, "+ 0 1"), PushStatus::kAccepted);
  // Self-loop: malformed, one strike, the open batch (including the good
  // line above) is discarded back to the last commit.
  EXPECT_EQ(ingest.offer_line(0, "+ 5 5"), PushStatus::kRejected);
  EXPECT_TRUE(ingest.quarantined(0));
  // Cooldown is 2^1 = 2 bounced attempts, deterministic in attempts.
  EXPECT_EQ(ingest.offer_line(0, "+ 2 3"), PushStatus::kBackoff);
  EXPECT_EQ(ingest.offer_line(0, "+ 2 3"), PushStatus::kBackoff);
  EXPECT_FALSE(ingest.quarantined(0));
  EXPECT_EQ(ingest.offer_line(0, "+ 2 3"), PushStatus::kAccepted);
  EXPECT_EQ(ingest.offer_line(0, "commit"), PushStatus::kCommitted);
  // The other producer never noticed.
  EXPECT_EQ(ingest.offer_line(1, "+ 7 8"), PushStatus::kAccepted);
  EXPECT_EQ(ingest.offer_line(1, "commit"), PushStatus::kCommitted);
  const std::optional<UpdateBatch> gen = ingest.take_generation();
  ASSERT_TRUE(gen.has_value());
  // The discarded "+ 0 1" is gone; the healed batch and p1's batch merge.
  ASSERT_EQ(gen->updates.size(), 2u);
  EXPECT_EQ(gen->updates[0], (EdgeUpdate{EdgeUpdate::Op::kInsert, 2, 3}));
  EXPECT_EQ(gen->updates[1], (EdgeUpdate{EdgeUpdate::Op::kInsert, 7, 8}));
  EXPECT_EQ(ingest.metrics().strikes, 1u);
  EXPECT_EQ(ingest.metrics().backoff_rejections, 2u);
}

TEST(ServeConcurrentIngest, ChecksumMismatchIsAStrikeVerifiedPasses) {
  IngestConfig cfg;
  cfg.num_producers = 1;
  MultiProducerIngest ingest(cfg);
  EXPECT_EQ(ingest.offer_line(0, "+ 0 1"), PushStatus::kAccepted);
  EXPECT_EQ(ingest.offer_line(0, "checksum deadbeef"), PushStatus::kRejected);
  EXPECT_EQ(ingest.metrics().strikes, 1u);
  // Burn the cooldown, then push the batch again with the true digest.
  while (ingest.quarantined(0)) (void)ingest.offer_line(0, "");
  UpdateBatch good;
  good.updates.push_back({EdgeUpdate::Op::kInsert, 0, 1});
  char digest[32];
  std::snprintf(digest, sizeof(digest), "checksum %llx",
                static_cast<unsigned long long>(
                    batch_checksum(good.updates)));
  EXPECT_EQ(ingest.offer_line(0, "+ 0 1"), PushStatus::kAccepted);
  EXPECT_EQ(ingest.offer_line(0, digest), PushStatus::kAccepted);
  EXPECT_EQ(ingest.offer_line(0, "commit"), PushStatus::kCommitted);
}

TEST(ServeConcurrentIngest, RepeatedStrikesEjectWithTombstone) {
  IngestConfig cfg;
  cfg.num_producers = 2;
  cfg.max_strikes = 2;
  MultiProducerIngest ingest(cfg);
  // Commit one good batch first: validated batches survive the ejection.
  EXPECT_EQ(ingest.offer_line(1, "+ 3 4"), PushStatus::kAccepted);
  EXPECT_EQ(ingest.offer_line(1, "commit"), PushStatus::kCommitted);

  auto strike = [&] {
    while (ingest.quarantined(1)) (void)ingest.offer_line(1, "");
    return ingest.offer_line(1, "+ 9 9");
  };
  EXPECT_EQ(strike(), PushStatus::kRejected);  // strike 1
  EXPECT_EQ(strike(), PushStatus::kRejected);  // strike 2 == max_strikes
  EXPECT_EQ(strike(), PushStatus::kEjected);   // strike 3 ejects
  EXPECT_TRUE(ingest.ejected(1));
  EXPECT_EQ(ingest.offer_line(1, "+ 1 2"), PushStatus::kEjected);
  const std::vector<ProducerTombstone> tombstones = ingest.take_tombstones();
  ASSERT_EQ(tombstones.size(), 1u);
  EXPECT_EQ(tombstones[0].producer, 1u);
  EXPECT_EQ(tombstones[0].strikes, 3u);
  EXPECT_NE(tombstones[0].reason.find("self-loop"), std::string::npos);
  EXPECT_TRUE(ingest.take_tombstones().empty());  // drained exactly once

  // The dead producer no longer gates generations, and its pre-ejection
  // commit still merges.
  EXPECT_EQ(ingest.offer_line(0, "+ 0 1"), PushStatus::kAccepted);
  EXPECT_EQ(ingest.offer_line(0, "commit"), PushStatus::kCommitted);
  const std::optional<UpdateBatch> gen = ingest.take_generation();
  ASSERT_TRUE(gen.has_value());
  ASSERT_EQ(gen->updates.size(), 2u);
  EXPECT_EQ(gen->updates[1], (EdgeUpdate{EdgeUpdate::Op::kInsert, 3, 4}));
}

TEST(ServeConcurrentIngest, DuplicateCommitIsAStrikeNotAnEmptyBatch) {
  IngestConfig cfg;
  cfg.num_producers = 1;
  MultiProducerIngest ingest(cfg);
  EXPECT_EQ(ingest.offer_line(0, "+ 0 1"), PushStatus::kAccepted);
  EXPECT_EQ(ingest.offer_line(0, "commit"), PushStatus::kCommitted);
  EXPECT_EQ(ingest.offer_line(0, "commit"), PushStatus::kRejected);
  EXPECT_EQ(ingest.metrics().strikes, 1u);
  EXPECT_EQ(ingest.metrics().batches_committed, 1u);
}

// ----------------------------------------------------------- tagged lines --

TEST(ServeConcurrentIngest, TaggedLinesRouteAndBadTagsAreDiagnosed) {
  IngestConfig cfg;
  cfg.num_producers = 3;
  MultiProducerIngest ingest(cfg);
  std::uint32_t who = 99;
  EXPECT_EQ(ingest.offer_tagged_line("p2 + 0 1", &who),
            PushStatus::kAccepted);
  EXPECT_EQ(who, 2u);
  EXPECT_EQ(ingest.offer_tagged_line("+ 4 5", &who), PushStatus::kAccepted);
  EXPECT_EQ(who, 0u);  // untagged lines belong to producer 0
  EXPECT_EQ(ingest.offer_tagged_line("p1 commit", &who),
            PushStatus::kRejected);  // p1's batch is empty: duplicate commit
  EXPECT_EQ(who, 1u);
  // Out-of-range and unparseable tags are kBadTag, not a strike.
  EXPECT_EQ(ingest.offer_tagged_line("p7 + 0 1"), PushStatus::kBadTag);
  EXPECT_EQ(ingest.offer_tagged_line("p1234567890123 + 0 1"),
            PushStatus::kBadTag);
  EXPECT_EQ(ingest.metrics().bad_tags, 2u);
  // A line that merely starts with 'p' but has no digit tag is payload for
  // producer 0 (and malformed payload strikes producer 0, not the tag).
  EXPECT_EQ(ingest.offer_tagged_line("ping", &who), PushStatus::kRejected);
  EXPECT_EQ(who, 0u);
}

// -------------------------------------------------------------- threading --

TEST(ServeConcurrentThreads, ProducerThreadsBlockOnCapAndMergeCanonically) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kBatches = 6;
  IngestConfig cfg;
  cfg.num_producers = kProducers;
  cfg.queue_cap = 1;  // every producer feels real blocking backpressure
  MultiProducerIngest ingest(cfg);

  std::vector<std::thread> threads;
  threads.reserve(kProducers);
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ingest, p] {
      for (const std::string& line :
           script_lines(23, p, kBatches, 60, 5)) {
        while (ingest.push_line(p, line) == PushStatus::kBackoff) {
        }
      }
      ingest.close(p);
    });
  }

  // Refuse to drain until someone actually blocked: with queue_cap=1 and
  // no consumer progress, every producer must eventually stall trying to
  // queue its second batch, so this wait terminates and the backpressure
  // assertion below is deterministic.
  while (ingest.metrics().backpressure == 0) std::this_thread::yield();

  std::vector<UpdateBatch> taken;
  while (!ingest.drained()) {
    if (std::optional<UpdateBatch> gen = ingest.take_generation()) {
      taken.push_back(std::move(*gen));
    } else {
      std::this_thread::yield();
    }
  }
  for (std::thread& t : threads) t.join();
  while (std::optional<UpdateBatch> gen = ingest.take_generation()) {
    taken.push_back(std::move(*gen));
  }

  ASSERT_EQ(taken.size(), kBatches);
  for (std::uint64_t g = 0; g < kBatches; ++g) {
    UpdateBatch want;
    for (std::uint32_t p = 0; p < kProducers; ++p) {
      const UpdateBatch batch = chaos_churn_batch(23, p, g, 60, 5);
      want.updates.insert(want.updates.end(), batch.updates.begin(),
                          batch.updates.end());
    }
    EXPECT_EQ(taken[g].updates, want.updates) << "generation " << g;
  }
  EXPECT_GT(ingest.metrics().backpressure, 0u);
}

TEST(ServeConcurrentThreads, QueriesAreSafeWhileTheOwnerCommits) {
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kGreedySequential;
  cfg.options.beta = 2;
  RulingSetService service(make_graph(80, 4.0, 31), cfg);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::thread reader([&] {
    while (!stop.load()) {
      const QueryHandle snap = service.query();
      // Within one handle every answer is from one epoch: members stay
      // members, and coverage never regresses mid-read.
      for (VertexId v = 0; v < 80; ++v) {
        const PointQueryResult r = snap->nearest_member(v);
        ASSERT_TRUE(r.covered);
        ASSERT_TRUE(snap->is_member(r.member));
        ASSERT_LE(r.distance, snap->beta());
      }
      answered.fetch_add(1);
    }
  });
  for (std::uint64_t b = 0; b < 8; ++b) {
    service.apply(chaos_churn_batch(37, 0, b, 80, 12));
  }
  // Don't stop the reader until it has finished at least one full sweep —
  // the assertion below must not race the thread's startup.
  while (answered.load() == 0) std::this_thread::yield();
  stop.store(true);
  reader.join();
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(service.query()->epoch(), service.epoch());
}

// ---------------------------------------------------------------- queries --

TEST(ServeQuery, NearestMemberMatchesBruteForceAndValidates) {
  // Path 0-1-2-3-4: set {0, 4}, beta 2.
  std::vector<std::vector<VertexId>> adj = {{1}, {0, 2}, {1, 3}, {2, 4}, {3}};
  const Graph g = Graph::from_sorted_adjacency(adj);
  const QuerySnapshot snap(7, 2, g, {0, 4});
  EXPECT_EQ(snap.epoch(), 7u);
  EXPECT_TRUE(snap.is_member(0));
  EXPECT_FALSE(snap.is_member(1));
  EXPECT_THROW(snap.is_member(5), std::invalid_argument);
  EXPECT_THROW(snap.nearest_member(99), std::invalid_argument);
  EXPECT_THROW(QuerySnapshot(0, 2, g, {9}), std::invalid_argument);

  const PointQueryResult r0 = snap.nearest_member(0);
  EXPECT_TRUE(r0.covered);
  EXPECT_EQ(r0.member, 0u);
  EXPECT_EQ(r0.distance, 0u);
  const PointQueryResult r1 = snap.nearest_member(1);
  EXPECT_EQ(r1.member, 0u);
  EXPECT_EQ(r1.distance, 1u);
  // Vertex 2 is 2 hops from both members: ties break to the smaller id.
  const PointQueryResult r2 = snap.nearest_member(2);
  EXPECT_TRUE(r2.covered);
  EXPECT_EQ(r2.member, 0u);
  EXPECT_EQ(r2.distance, 2u);

  // A beta-1 snapshot of the same set leaves vertex 2 uncovered — the
  // truncation really stops at beta hops.
  const QuerySnapshot tight(7, 1, g, {0, 4});
  EXPECT_FALSE(tight.nearest_member(2).covered);
  EXPECT_FALSE(tight.covered(2));
  EXPECT_TRUE(tight.covered(1));
}

// The definition nearest_member must meet: full BFS distances, then the
// smallest id among the members at the least distance <= beta.
PointQueryResult brute_force_nearest(const Graph& g,
                                     const std::vector<VertexId>& set,
                                     std::uint32_t beta, VertexId v) {
  const std::vector<VertexId> source = {v};
  const std::vector<std::uint32_t> dist = bfs_distances(g, source);
  PointQueryResult best;
  for (VertexId m : set) {
    if (dist[m] > beta) continue;
    if (!best.covered || dist[m] < best.distance ||
        (dist[m] == best.distance && m < best.member)) {
      best = {true, m, dist[m]};
    }
  }
  return best;
}

void expect_same_answer(const PointQueryResult& got,
                        const PointQueryResult& want,
                        const std::string& label) {
  EXPECT_EQ(got.covered, want.covered) << label;
  if (!want.covered) return;
  EXPECT_EQ(got.member, want.member) << label;
  EXPECT_EQ(got.distance, want.distance) << label;
}

// A sparse random subset, so some vertices stay uncovered.
std::vector<VertexId> random_members(VertexId n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<VertexId> set;
  for (VertexId v = 0; v < n; ++v) {
    if (rng() % 16 == 0) set.push_back(v);
  }
  return set;
}

TEST(ServeQuery, NearestMemberMatchesFullBfsForEveryBeta) {
  const Graph g = make_graph(300, 3.0, 17);
  const std::vector<VertexId> set = random_members(g.num_vertices(), 5);
  for (const std::uint32_t beta : {1u, 2u, 3u}) {
    const QuerySnapshot snap(1, beta, g, set);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      expect_same_answer(snap.nearest_member(v),
                         brute_force_nearest(g, set, beta, v),
                         "beta=" + std::to_string(beta) +
                             " v=" + std::to_string(v));
    }
  }
}

TEST(ServeQuery, NearestMemberScratchIsFreshAcrossSnapshots) {
  // Two snapshots of different sizes queried alternately on one thread:
  // per-thread query scratch must never leak a visit from one query (or
  // one snapshot) into the next.
  const Graph small = make_graph(40, 4.0, 3);
  const Graph large = make_graph(500, 4.0, 4);
  const std::vector<VertexId> small_set = random_members(40, 6);
  const std::vector<VertexId> large_set = random_members(500, 7);
  const QuerySnapshot a(1, 2, small, small_set);
  const QuerySnapshot b(1, 3, large, large_set);
  for (VertexId i = 0; i < 500; ++i) {
    const VertexId u = i % 40;
    const VertexId v = 499 - i;
    expect_same_answer(a.nearest_member(u),
                       brute_force_nearest(small, small_set, 2, u),
                       "small v=" + std::to_string(u));
    expect_same_answer(b.nearest_member(v),
                       brute_force_nearest(large, large_set, 3, v),
                       "large v=" + std::to_string(v));
  }
}

TEST(ServeQuery, HandlesPinTheirEpochAcrossCommits) {
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kGreedySequential;
  cfg.options.beta = 2;
  RulingSetService service(make_graph(60, 4.0, 41), cfg);

  const QueryHandle pinned = service.query();
  ASSERT_EQ(pinned->epoch(), 0u);
  std::vector<PointQueryResult> before;
  for (VertexId v = 0; v < 60; ++v) before.push_back(pinned->nearest_member(v));

  std::uint64_t mutated_epoch = 0;
  for (std::uint64_t b = 0; b < 6 && mutated_epoch == 0; ++b) {
    service.apply(chaos_churn_batch(43, 1, b, 60, 16));
    if (service.ruling_set() != pinned->ruling_set()) {
      mutated_epoch = service.epoch();
    }
  }
  ASSERT_GT(mutated_epoch, 0u) << "churn never changed the set; test is vacuous";

  // The pinned handle still answers from epoch 0, bit-for-bit.
  EXPECT_EQ(pinned->epoch(), 0u);
  for (VertexId v = 0; v < 60; ++v) {
    const PointQueryResult now = pinned->nearest_member(v);
    EXPECT_EQ(now.covered, before[v].covered);
    EXPECT_EQ(now.member, before[v].member);
    EXPECT_EQ(now.distance, before[v].distance);
  }
  // A fresh handle reflects the last committed epoch exactly.
  const QueryHandle fresh = service.query();
  EXPECT_EQ(fresh->epoch(), service.epoch());
  EXPECT_EQ(fresh->ruling_set(), service.ruling_set());
}

// --------------------------------------------------------------- watchdog --

TEST(ServeWatchdog, StuckCascadeEscalatesToFullAndKeepsParity) {
  // Low churn fraction (20 updates vs ~1000 edges) keeps the epoch on the
  // frontier tier, so the cascade runs — and any real cascade blows a
  // 1-pop deadline, forcing the tier-1 escalation.
  const Graph g = make_graph(400, 5.0, 47);
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kGreedySequential;
  cfg.options.beta = 2;
  cfg.watchdog_deadline = 1;
  RulingSetService service(g, cfg);

  ServiceConfig free_cfg = cfg;
  free_cfg.watchdog_deadline = 0;
  RulingSetService twin(g, free_cfg);

  const UpdateBatch batch = chaos_churn_batch(51, 0, 0, 400, 20);
  const BatchReport report = service.apply(batch);
  twin.apply(batch);
  EXPECT_TRUE(report.certified);
  EXPECT_GT(service.metrics().watchdog_escalations, 0u);
  // The greedy full-tier rerun reports zero simulator rounds, so tier 2
  // (fail-stop) can never trip on the cascade backend.
  EXPECT_EQ(service.metrics().watchdog_failstops, 0u);
  EXPECT_GT(service.metrics().repairs_full, twin.metrics().repairs_full);
  // Escalation is a certification/ledger decision, never an output change.
  EXPECT_EQ(service.ruling_set(), twin.ruling_set());
  EXPECT_EQ(service.epoch(), twin.epoch());
}

TEST(ServeWatchdog, FullTierBudgetExhaustionFailStopsSealedAndRecovers) {
  const std::string journal = ::testing::TempDir() + "serve_watchdog.rsj";
  const Graph g = make_graph(64, 4.0, 53);
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kDetRulingMpc;
  cfg.options.beta = 2;
  cfg.options.mpc.num_machines = 4;
  cfg.journal_path = journal;
  RulingSetService service(g, cfg);
  // Learn the deterministic work measure of one epoch, then re-arm a twin
  // whose full-tier budget (4 * deadline) the same repair must exhaust.
  // 8 updates on ~128 edges keeps the epoch on the frontier tier, so the
  // run exercises escalation AND fail-stop in one epoch.
  const UpdateBatch batch = chaos_churn_batch(57, 0, 0, 64, 8);
  service.apply(batch);
  const std::uint64_t rounds = service.last_repair_result().metrics.rounds;
  ASSERT_GT(rounds, kWatchdogFullFactor);

  ServiceConfig armed = cfg;
  armed.watchdog_deadline = 1;
  armed.journal_path = ::testing::TempDir() + "serve_failstop.rsj";
  RulingSetService sentinel(g, armed);
  const std::uint64_t epoch_before = sentinel.epoch();
  try {
    sentinel.apply(batch);
    FAIL() << "expected a watchdog fail-stop";
  } catch (const ServiceError& e) {
    EXPECT_NE(std::string(e.what()).find("fail-stop"), std::string::npos);
  }
  // The epoch still committed (it was already certified) and the journal
  // sealed; the service refuses further work until an operator recovers.
  EXPECT_TRUE(sentinel.sealed());
  EXPECT_EQ(sentinel.epoch(), epoch_before + 1);
  EXPECT_EQ(sentinel.metrics().watchdog_escalations, 1u);
  EXPECT_EQ(sentinel.metrics().watchdog_failstops, 1u);
  EXPECT_THROW(sentinel.apply(batch), ServiceError);
  EXPECT_THROW(sentinel.drain(), ServiceError);

  // recover() is the operator un-seal: the restored service surfaces the
  // fail-stop, resumes at the committed epoch, and (with the deadline
  // relaxed) serves again — on the same bits as the unarmed service.
  ServiceConfig relaxed = armed;
  relaxed.watchdog_deadline = 0;
  RulingSetService recovered = RulingSetService::recover(relaxed);
  EXPECT_FALSE(recovered.sealed());
  EXPECT_EQ(recovered.metrics().watchdog_failstops, 1u);
  EXPECT_EQ(recovered.epoch(), epoch_before + 1);
  EXPECT_EQ(recovered.ruling_set(), service.ruling_set());
  EXPECT_EQ(recovered.metrics().heartbeats, service.metrics().heartbeats);
  const UpdateBatch next = chaos_churn_batch(57, 0, 1, 64, 8);
  recovered.apply(next);
  service.apply(next);
  EXPECT_EQ(recovered.ruling_set(), service.ruling_set());
}

// ---------------------------------------------------- tombstone durability --

TEST(ServeJournalTombstones, PumpJournalsTombstonesBeforeGenerations) {
  const std::string journal = ::testing::TempDir() + "serve_pump.rsj";
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kGreedySequential;
  cfg.options.beta = 2;
  cfg.journal_path = journal;
  RulingSetService service(make_graph(40, 3.0, 59), cfg);

  IngestConfig icfg;
  icfg.num_producers = 2;
  icfg.max_strikes = 0;  // first strike ejects
  MultiProducerIngest ingest(icfg);
  EXPECT_EQ(ingest.offer_line(0, "+ 0 1"), PushStatus::kAccepted);
  EXPECT_EQ(ingest.offer_line(0, "commit"), PushStatus::kCommitted);
  EXPECT_EQ(ingest.offer_line(1, "+ 9 9"), PushStatus::kEjected);

  const PumpReport report = pump_ready(ingest, service);
  EXPECT_EQ(report.tombstones, 1u);
  EXPECT_EQ(report.generations, 1u);
  EXPECT_TRUE(report.certified);
  ASSERT_EQ(service.tombstones().size(), 1u);
  EXPECT_EQ(service.tombstones()[0].producer, 1u);
  EXPECT_EQ(service.metrics().tombstones, 1u);

  // The tombstone is durable: a recovered service still names the dead
  // stream (so it can mark_ejected it instead of resurrecting it).
  RulingSetService recovered = RulingSetService::recover(cfg);
  ASSERT_EQ(recovered.tombstones().size(), 1u);
  EXPECT_EQ(recovered.tombstones()[0], service.tombstones()[0]);
  IngestConfig fresh_cfg;
  fresh_cfg.num_producers = 2;
  MultiProducerIngest fresh(fresh_cfg);
  fresh.mark_ejected(recovered.tombstones()[0].producer, "journal tombstone");
  EXPECT_TRUE(fresh.ejected(1));
}

TEST(ServeJournalTombstones, CrashBetweenTombstoneWriteAndSealRecovers) {
  const std::string journal = ::testing::TempDir() + "serve_ts_crash.rsj";
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kGreedySequential;
  cfg.options.beta = 2;
  cfg.journal_path = journal;
  RulingSetService service(make_graph(40, 3.0, 61), cfg);
  service.apply(chaos_churn_batch(63, 0, 0, 40, 8));
  const std::uint64_t committed = service.epoch();

  // Crash AFTER the tombstone's journal write but before control returns
  // (between the tombstone write and the next epoch seal): the tombstone
  // must already be durable.
  service.crash_hook = [](std::string_view stage) {
    if (stage == "tombstone-recorded") throw SimulatedCrash{};
  };
  const ProducerTombstone tombstone{3, 17, 4, "checksum_mismatch: line 17"};
  EXPECT_THROW(service.record_tombstone(tombstone), SimulatedCrash);

  RulingSetService recovered = RulingSetService::recover(cfg);
  EXPECT_EQ(recovered.epoch(), committed);
  ASSERT_EQ(recovered.tombstones().size(), 1u);
  EXPECT_EQ(recovered.tombstones()[0], tombstone);

  // A crash BEFORE the write leaves the previous durable state: no
  // tombstone, same epoch.
  recovered.crash_hook = [](std::string_view stage) {
    if (stage == "pre-tombstone") throw SimulatedCrash{};
  };
  EXPECT_THROW(recovered.record_tombstone({1, 2, 3, "x"}), SimulatedCrash);
  RulingSetService again = RulingSetService::recover(cfg);
  EXPECT_EQ(again.epoch(), committed);
  ASSERT_EQ(again.tombstones().size(), 1u);  // only the first tombstone
  EXPECT_EQ(again.tombstones()[0], tombstone);
}

TEST(ServeJournalTombstones, PrevFallbackWhenTombstoneWriteIsTornApart) {
  const std::string journal = ::testing::TempDir() + "serve_ts_prev.rsj";
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kGreedySequential;
  cfg.options.beta = 2;
  cfg.journal_path = journal;
  RulingSetService service(make_graph(40, 3.0, 67), cfg);
  service.apply(chaos_churn_batch(69, 0, 0, 40, 8));
  const std::uint64_t committed = service.epoch();
  service.record_tombstone({2, 5, 4, "self_loop: line 5"});

  // Tear the primary journal (the generation holding the tombstone): the
  // .prev rotation is the epoch-commit image, so recovery lands on the
  // same committed epoch minus the torn tombstone write.
  {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out << "torn tombstone write";
  }
  RulingSetService recovered = RulingSetService::recover(cfg);
  EXPECT_EQ(recovered.epoch(), committed);
  EXPECT_EQ(recovered.ruling_set(), service.ruling_set());
  EXPECT_TRUE(recovered.tombstones().empty());
  // The lost tombstone re-records cleanly on the recovered lineage.
  recovered.record_tombstone({2, 5, 4, "self_loop: line 5"});
  EXPECT_EQ(recovered.tombstones().size(), 1u);
}

// ------------------------------------------------------------- soak smoke --

TEST(ServeConcurrentSoak, MultiProducerSmokeWithCrashEjectAndHealFlavors) {
  ChurnOptions options;
  options.schedules = 4;  // covers crash (s=0,3), eject (s=1), heal (s=3)
  options.base_seed = 7;
  options.n = 60;
  options.avg_deg = 4.0;
  options.machines = 4;
  options.batches = 4;
  options.batch_updates = 12;
  options.certify = true;
  options.journal_dir = ::testing::TempDir();
  options.producers = 3;
  options.queue_cap = 2;
  const ChurnReport report = run_churn_soak(options);
  for (const auto& f : report.failures) {
    ADD_FAILURE() << "schedule " << f.schedule << " [" << f.algorithm
                  << "]: " << f.what;
  }
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.schedules_run, 4u);
  EXPECT_GT(report.generations, 0u);
  EXPECT_GT(report.query_checks, 0u);
  EXPECT_GT(report.heartbeats, 0u);
  // Schedule 1 poisons one producer to ejection; schedule 3 heals after a
  // strike (strikes in both, tombstones only in the eject flavor).
  EXPECT_GT(report.producer_ejections, 0u);
  EXPECT_GT(report.producer_strikes, report.producer_ejections);
  EXPECT_GT(report.crashes_injected, 0u);
  EXPECT_EQ(report.recoveries, report.crashes_injected);
  EXPECT_EQ(report.certified, report.runs);
}

}  // namespace
}  // namespace rsets::serve
