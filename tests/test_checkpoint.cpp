// Checkpoint/restore: byte-stream primitives, FieldsSnapshot driver hooks,
// full Simulator snapshots (take mid-run, restore, rerun the tail
// bit-identically), disk round trips, and decode validation.
#include "mpc/fault/checkpoint.hpp"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mpc/simulator.hpp"

namespace rsets::mpc {
namespace {

TEST(SnapshotStream, RoundTripsEveryPrimitive) {
  std::vector<std::uint8_t> buf;
  SnapshotWriter w(buf);
  w.u64(0);
  w.u64(0xFFFFFFFFFFFFFFFFull);
  w.str("");
  w.str("hello snapshot");
  w.vec(std::vector<std::uint64_t>{1, 2, 3});
  w.vec(std::vector<std::uint32_t>{});
  w.vec(std::vector<bool>{true, false, true, true});

  SnapshotReader r(buf.data(), buf.size());
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.u64(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello snapshot");
  std::vector<std::uint64_t> v64;
  r.vec(v64);
  EXPECT_EQ(v64, (std::vector<std::uint64_t>{1, 2, 3}));
  std::vector<std::uint32_t> v32{9};
  r.vec(v32);
  EXPECT_TRUE(v32.empty());
  std::vector<bool> vb;
  r.vec(vb);
  EXPECT_EQ(vb, (std::vector<bool>{true, false, true, true}));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotStream, TruncationThrows) {
  std::vector<std::uint8_t> buf;
  SnapshotWriter w(buf);
  w.u64(7);
  SnapshotReader r(buf.data(), buf.size() - 1);
  EXPECT_THROW(r.u64(), CheckpointError);
}

TEST(SnapshotStream, ImpossibleLengthPrefixThrows) {
  // A length prefix claiming more elements than bytes remain must be
  // rejected before any allocation.
  std::vector<std::uint8_t> buf;
  SnapshotWriter w(buf);
  w.u64(0xFFFFFFFFFFFFFFF0ull);
  SnapshotReader r(buf.data(), buf.size());
  std::vector<std::uint64_t> v;
  EXPECT_THROW(r.vec(v), CheckpointError);

  SnapshotReader r2(buf.data(), buf.size());
  EXPECT_THROW(r2.str(), CheckpointError);
}

TEST(FieldsSnapshot, SaveThenRestoreUndoesMutation) {
  std::uint64_t counter = 41;
  std::uint32_t small = 7;
  std::vector<std::uint64_t> ids = {3, 1, 4};
  std::vector<bool> mask = {true, false, true};
  auto snap = snapshot_of(counter, small, ids, mask);

  std::vector<std::uint8_t> buf;
  SnapshotWriter w(buf);
  snap.save(w);

  counter = 0;
  small = 0;
  ids.clear();
  mask.assign(5, true);

  SnapshotReader r(buf.data(), buf.size());
  snap.restore(r);
  EXPECT_EQ(counter, 41u);
  EXPECT_EQ(small, 7u);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{3, 1, 4}));
  EXPECT_EQ(mask, (std::vector<bool>{true, false, true}));
  EXPECT_EQ(r.remaining(), 0u);
}

// --- full simulator snapshots ----------------------------------------------

MpcConfig small_config(MachineId machines = 4) {
  MpcConfig cfg;
  cfg.num_machines = machines;
  cfg.memory_words = 1 << 16;
  cfg.seed = 7;
  return cfg;
}

// A toy driver: every machine keeps a running sum of everything it
// received and ships its RNG-perturbed id around a ring each round.
struct RingDriver {
  explicit RingDriver(MachineId machines) : sums(machines, 0) {}

  void step(Simulator& sim) {
    sim.round([this](Machine& m, const Inbox& inbox) {
      for (const auto& msg : inbox.all()) {
        sums[m.id()] += msg.payload[0];
      }
      const MachineId next = (m.id() + 1) % static_cast<MachineId>(sums.size());
      m.send(next, 1, std::vector<Word>{m.id() + (m.rng().next() & 0xFF)});
    });
  }

  std::vector<std::uint64_t> sums;
};

TEST(SimulatorCheckpoint, RestoreReplaysTailBitIdentically) {
  const MachineId machines = 4;

  Simulator sim(small_config(machines));
  RingDriver driver(machines);
  auto snap = snapshot_of(driver.sums);
  sim.register_snapshotable("ring", &snap);

  for (int i = 0; i < 5; ++i) driver.step(sim);
  const Checkpoint mid = sim.make_checkpoint();
  EXPECT_EQ(mid.round, sim.metrics().rounds);
  EXPECT_FALSE(mid.empty());

  for (int i = 0; i < 5; ++i) driver.step(sim);
  const auto final_sums = driver.sums;
  const auto final_metrics = sim.metrics();

  // Wreck everything, restore the mid-run snapshot, rerun the tail.
  driver.sums.assign(machines, 0xDEAD);
  sim.restore_checkpoint(mid);
  EXPECT_EQ(sim.metrics().rounds, mid.round);
  for (int i = 0; i < 5; ++i) driver.step(sim);

  EXPECT_EQ(driver.sums, final_sums);
  EXPECT_EQ(sim.metrics().rounds, final_metrics.rounds);
  EXPECT_EQ(sim.metrics().messages, final_metrics.messages);
  EXPECT_EQ(sim.metrics().total_words, final_metrics.total_words);
  EXPECT_EQ(sim.metrics().random_words, final_metrics.random_words);
}

TEST(SimulatorCheckpoint, CapturesInFlightMessages) {
  Simulator sim(small_config(2));
  sim.round([](Machine& m, const Inbox&) {
    if (m.id() == 0) m.send(1, 5, std::vector<Word>{77});
  });
  // The 0->1 message is in flight at this barrier; the snapshot must carry
  // it so the restored run still delivers it.
  const Checkpoint at_barrier = sim.make_checkpoint();

  std::uint64_t got = 0;
  sim.round([&](Machine& m, const Inbox& inbox) {
    if (m.id() == 1 && !inbox.empty()) got = inbox.all()[0].payload[0];
  });
  ASSERT_EQ(got, 77u);

  got = 0;
  sim.restore_checkpoint(at_barrier);
  sim.round([&](Machine& m, const Inbox& inbox) {
    if (m.id() == 1 && !inbox.empty()) got = inbox.all()[0].payload[0];
  });
  EXPECT_EQ(got, 77u);
}

TEST(SimulatorCheckpoint, FramedInFlightSectionSurvivesTheParallelBarrier) {
  // The v4 in-flight section serializes (src, dst, messages, arena) framed
  // buffers — exactly what the destination-sharded merge now produces in
  // parallel. The format did not move with the barrier rework: a snapshot
  // taken under any thread width must stay version 4 and restore with the
  // in-flight frames intact on any other width.
  EXPECT_EQ(kCheckpointVersion, 4u);
  Checkpoint taken_at[2];
  for (const unsigned threads : {1u, 4u}) {
    MpcConfig cfg = small_config(2);
    cfg.num_threads = threads;
    Simulator sim(cfg);
    sim.round([](Machine& m, const Inbox&) {
      if (m.id() == 0) m.send(1, 5, std::vector<Word>{77, 78});
    });
    taken_at[threads == 1 ? 0 : 1] = sim.make_checkpoint();

    std::vector<std::uint64_t> got;
    sim.restore_checkpoint(taken_at[threads == 1 ? 0 : 1]);
    sim.round([&](Machine& m, const Inbox& inbox) {
      if (m.id() == 1 && !inbox.empty()) {
        got.assign(inbox.all()[0].payload.begin(),
                   inbox.all()[0].payload.end());
      }
    });
    EXPECT_EQ(got, (std::vector<std::uint64_t>{77, 78}))
        << "threads=" << threads;
  }
  // The encoded image itself is thread-invariant, frames and all.
  EXPECT_EQ(taken_at[0].bytes, taken_at[1].bytes);
}

TEST(SimulatorCheckpoint, RegisterSnapshotableValidates) {
  Simulator sim(small_config(2));
  std::uint64_t x = 0;
  auto snap = snapshot_of(x);
  EXPECT_THROW(sim.register_snapshotable("", &snap), std::invalid_argument);
  EXPECT_THROW(sim.register_snapshotable("x", nullptr), std::invalid_argument);
  sim.register_snapshotable("x", &snap);
  EXPECT_THROW(sim.register_snapshotable("x", &snap), std::invalid_argument);
}

TEST(SimulatorCheckpoint, RestoreValidatesShape) {
  Simulator sim(small_config(2));
  std::uint64_t x = 3;
  auto snap = snapshot_of(x);
  sim.register_snapshotable("state", &snap);
  const Checkpoint good = sim.make_checkpoint();

  // Wrong machine count.
  Simulator other(small_config(3));
  std::uint64_t y = 0;
  auto other_snap = snapshot_of(y);
  other.register_snapshotable("state", &other_snap);
  EXPECT_THROW(other.restore_checkpoint(good), CheckpointError);

  // Section name mismatch.
  Simulator renamed(small_config(2));
  std::uint64_t z = 0;
  auto renamed_snap = snapshot_of(z);
  renamed.register_snapshotable("other_name", &renamed_snap);
  EXPECT_THROW(renamed.restore_checkpoint(good), CheckpointError);

  // Bad magic.
  Checkpoint corrupt = good;
  corrupt.bytes[0] ^= 0xFF;
  EXPECT_THROW(sim.restore_checkpoint(corrupt), CheckpointError);

  // Truncated payload.
  Checkpoint truncated = good;
  truncated.bytes.resize(truncated.bytes.size() - 1);
  EXPECT_THROW(sim.restore_checkpoint(truncated), CheckpointError);

  // The pristine snapshot still restores after all the failed attempts.
  x = 99;
  sim.restore_checkpoint(good);
  EXPECT_EQ(x, 3u);
}

TEST(CheckpointImage, SealThenVerifyRoundTrips) {
  std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5};
  seal_checkpoint(bytes);
  EXPECT_EQ(bytes.size(), 5u + sizeof(std::uint64_t));
  EXPECT_NO_THROW(verify_checkpoint_image(bytes, "test"));

  // Every single-bit flip anywhere in the sealed image is detected —
  // including flips inside the stored digest itself.
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    std::vector<std::uint8_t> rotted = bytes;
    rotted[byte] ^= 0x10;
    EXPECT_THROW(verify_checkpoint_image(rotted, "test"), CheckpointError)
        << "flip at byte " << byte << " escaped the digest";
  }

  // Too short to carry a digest at all.
  const std::vector<std::uint8_t> stub = {9, 9, 9};
  EXPECT_THROW(verify_checkpoint_image(stub, "test"), CheckpointError);
}

TEST(SimulatorCheckpoint, RestoreRejectsInteriorBitRot) {
  Simulator sim(small_config(2));
  RingDriver driver(2);
  auto snap = snapshot_of(driver.sums);
  sim.register_snapshotable("ring", &snap);
  for (int i = 0; i < 3; ++i) driver.step(sim);
  const Checkpoint good = sim.make_checkpoint();

  // A flip past the header would have decoded under v2 (only magic/version
  // were validated) and restored silently wrong state; the v3 whole-image
  // digest fails it loudly instead.
  Checkpoint rotted = good;
  rotted.bytes[rotted.bytes.size() / 2] ^= 0x04;
  EXPECT_THROW(sim.restore_checkpoint(rotted), CheckpointError);

  // The pristine image still restores afterwards.
  sim.restore_checkpoint(good);
  EXPECT_EQ(sim.metrics().rounds, good.round);
}

TEST(SimulatorCheckpoint, DiskRoundTrip) {
  Simulator sim(small_config(2));
  RingDriver driver(2);
  auto snap = snapshot_of(driver.sums);
  sim.register_snapshotable("ring", &snap);
  for (int i = 0; i < 3; ++i) driver.step(sim);

  const Checkpoint mid = sim.make_checkpoint();
  const std::string path =
      ::testing::TempDir() + "rsets_checkpoint_roundtrip.ckpt";
  write_checkpoint_file(mid, path);
  const Checkpoint loaded = read_checkpoint_file(path);
  EXPECT_EQ(loaded.round, mid.round);
  EXPECT_EQ(loaded.bytes, mid.bytes);

  // A file that fails header validation is rejected on read.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "not a checkpoint";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_THROW(read_checkpoint_file(path), CheckpointError);
  std::remove(path.c_str());

  EXPECT_THROW(write_checkpoint_file(Checkpoint{}, path), CheckpointError);
  EXPECT_THROW(read_checkpoint_file("/nonexistent/dir/x.ckpt"),
               CheckpointError);
}

TEST(SimulatorCheckpoint, AtomicWriteLeavesNoTempFile) {
  Simulator sim(small_config(2));
  const Checkpoint ckpt = sim.make_checkpoint();
  const std::string path = ::testing::TempDir() + "rsets_checkpoint_atomic.ckpt";
  write_checkpoint_file(ckpt, path);
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp) std::fclose(tmp);
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
}

TEST(SimulatorCheckpoint, CorruptPrimaryFallsBackToPrev) {
  Simulator sim(small_config(2));
  RingDriver driver(2);
  auto snap = snapshot_of(driver.sums);
  sim.register_snapshotable("ring", &snap);

  const std::string path =
      ::testing::TempDir() + "rsets_checkpoint_fallback.ckpt";
  for (int i = 0; i < 2; ++i) driver.step(sim);
  const Checkpoint older = sim.make_checkpoint();
  write_checkpoint_file(older, path);

  for (int i = 0; i < 2; ++i) driver.step(sim);
  const Checkpoint newer = sim.make_checkpoint();
  // The second write rotates the first checkpoint to "<path>.prev".
  write_checkpoint_file(newer, path);
  EXPECT_EQ(read_checkpoint_file(path).round, newer.round);

  // Corrupt the primary in place; the read must recover the rotated copy.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "scrambled checkpoint bytes";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  const Checkpoint recovered = read_checkpoint_file(path);
  EXPECT_EQ(recovered.round, older.round);
  EXPECT_EQ(recovered.bytes, older.bytes);

  // The recovered checkpoint actually restores.
  sim.restore_checkpoint(recovered);
  EXPECT_EQ(sim.metrics().rounds, older.round);

  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
}

TEST(SimulatorCheckpoint, BitRottedPrimaryFallsBackToPrev) {
  Simulator sim(small_config(2));
  RingDriver driver(2);
  auto snap = snapshot_of(driver.sums);
  sim.register_snapshotable("ring", &snap);

  const std::string path =
      ::testing::TempDir() + "rsets_checkpoint_bitrot.ckpt";
  for (int i = 0; i < 2; ++i) driver.step(sim);
  const Checkpoint older = sim.make_checkpoint();
  write_checkpoint_file(older, path);
  for (int i = 0; i < 2; ++i) driver.step(sim);
  const Checkpoint newer = sim.make_checkpoint();
  write_checkpoint_file(newer, path);

  // Flip ONE interior bit of the primary, leaving the magic/version header
  // pristine: under the v2 header-only validation this torn image read back
  // "successfully"; the v3 whole-image digest rejects it and the read
  // recovers the rotated previous generation instead.
  std::vector<std::uint8_t> torn = newer.bytes;
  torn[torn.size() / 2] ^= 0x01;
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(torn.data(), 1, torn.size(), f);
    std::fclose(f);
  }
  const Checkpoint recovered = read_checkpoint_file(path);
  EXPECT_EQ(recovered.round, older.round);
  EXPECT_EQ(recovered.bytes, older.bytes);

  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
}

}  // namespace
}  // namespace rsets::mpc
