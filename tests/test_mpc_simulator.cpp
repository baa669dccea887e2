#include "mpc/simulator.hpp"

#include <gtest/gtest.h>

#include "mpc/primitives.hpp"

namespace rsets::mpc {
namespace {

MpcConfig small_config(MachineId machines = 4,
                       std::size_t memory = 1 << 16) {
  MpcConfig cfg;
  cfg.num_machines = machines;
  cfg.memory_words = memory;
  cfg.seed = 7;
  return cfg;
}

TEST(Simulator, RoundsAreCounted) {
  Simulator sim(small_config());
  EXPECT_EQ(sim.metrics().rounds, 0u);
  sim.round([](Machine&, const Inbox&) {});
  sim.round([](Machine&, const Inbox&) {});
  EXPECT_EQ(sim.metrics().rounds, 2u);
}

TEST(Simulator, MessagesDeliverNextRound) {
  Simulator sim(small_config(2));
  bool got = false;
  sim.round([](Machine& m, const Inbox&) {
    if (m.id() == 0) m.send(1, 5, std::vector<Word>{42});
  });
  sim.round([&](Machine& m, const Inbox& inbox) {
    if (m.id() == 1) {
      const auto msgs = inbox.with_tag(5);
      ASSERT_EQ(msgs.size(), 1u);
      EXPECT_EQ(msgs[0].payload[0], 42u);
      EXPECT_EQ(msgs[0].src, 0u);
      got = true;
    }
  });
  EXPECT_TRUE(got);
}

TEST(Simulator, DrainDeliversWithoutSpendingARound) {
  Simulator sim(small_config(2));
  sim.round([](Machine& m, const Inbox&) {
    if (m.id() == 0) m.send(1, 1, std::vector<Word>{9});
  });
  const auto before = sim.metrics().rounds;
  bool got = false;
  sim.drain([&](Machine& m, const Inbox& inbox) {
    if (m.id() == 1 && !inbox.empty()) got = true;
  });
  EXPECT_TRUE(got);
  EXPECT_EQ(sim.metrics().rounds, before);
}

TEST(Simulator, InboxSortedByTagThenSource) {
  Simulator sim(small_config(3));
  sim.round([](Machine& m, const Inbox&) {
    if (m.id() == 2) m.send(0, 7, std::vector<Word>{1});
    if (m.id() == 1) m.send(0, 3, std::vector<Word>{2});
  });
  sim.round([](Machine& m, const Inbox& inbox) {
    if (m.id() != 0) return;
    ASSERT_EQ(inbox.size(), 2u);
    EXPECT_EQ(inbox.all()[0].tag, 3u);
    EXPECT_EQ(inbox.all()[1].tag, 7u);
  });
}

TEST(Simulator, SendBandwidthEnforced) {
  MpcConfig cfg = small_config(2, /*memory=*/16);
  Simulator sim(cfg);
  EXPECT_THROW(sim.round([](Machine& m, const Inbox&) {
    if (m.id() == 0) {
      const std::vector<Word> big(32, 0);
      m.send(1, 1, big);  // 32 + header > 16
    }
  }),
               MpcViolation);
}

TEST(Simulator, ReceiveBandwidthEnforced) {
  // 4 senders * (6 payload + 2 header) = 32 > 24 budget on receive,
  // while each sender individually stays under its send cap.
  MpcConfig cfg = small_config(5, /*memory=*/24);
  Simulator sim(cfg);
  sim.round([](Machine& m, const Inbox&) {
    if (m.id() != 0) {
      const std::vector<Word> chunk(6, 1);
      m.send(0, 1, chunk);
    }
  });
  EXPECT_THROW(sim.round([](Machine&, const Inbox&) {}), MpcViolation);
}

TEST(Simulator, StorageEnforced) {
  MpcConfig cfg = small_config(1, /*memory=*/100);
  Simulator sim(cfg);
  sim.machine(0).charge_storage(60);
  EXPECT_THROW(sim.machine(0).charge_storage(50), MpcViolation);
}

TEST(Simulator, ViolationsCountedWhenNotEnforcing) {
  MpcConfig cfg = small_config(1, /*memory=*/10);
  cfg.budget_policy = BudgetPolicy::kTrace;
  Simulator sim(cfg);
  sim.machine(0).charge_storage(100);
  sim.sync_metrics();
  EXPECT_EQ(sim.metrics().violations, 1u);
  EXPECT_EQ(sim.metrics().max_storage_words, 100u);
}

TEST(Simulator, StorageReleaseUnderflowThrows) {
  Simulator sim(small_config());
  sim.machine(0).charge_storage(5);
  EXPECT_THROW(sim.machine(0).release_storage(6), std::logic_error);
  sim.machine(0).release_storage(5);
  EXPECT_EQ(sim.machine(0).storage_words(), 0u);
}

TEST(Simulator, RandomDrawsTracked) {
  Simulator sim(small_config(2));
  sim.round([](Machine& m, const Inbox&) {
    if (m.id() == 0) m.rng().next();
  });
  EXPECT_EQ(sim.metrics().random_words, 1u);
  sim.round([](Machine& m, const Inbox&) { m.rng().next(); });
  EXPECT_EQ(sim.metrics().random_words, 3u);
}

TEST(Simulator, PerMachineRngStreamsDiffer) {
  Simulator sim(small_config(2));
  std::uint64_t draws[2];
  sim.round([&](Machine& m, const Inbox&) { draws[m.id()] = m.rng().next(); });
  EXPECT_NE(draws[0], draws[1]);
}

TEST(Simulator, BadDestinationThrows) {
  Simulator sim(small_config(2));
  EXPECT_THROW(
      sim.round([](Machine& m, const Inbox&) {
        m.send(9, 0, std::vector<Word>{0});
      }),
      std::out_of_range);
}

TEST(Simulator, ZeroMachinesRejected) {
  MpcConfig cfg;
  cfg.num_machines = 0;
  EXPECT_THROW(Simulator sim(cfg), std::invalid_argument);
}

TEST(Simulator, WordAccountingIncludesHeaders) {
  Simulator sim(small_config(2));
  sim.round([](Machine& m, const Inbox&) {
    if (m.id() == 0) {
      const std::vector<Word> payload(3, 0);
      m.send(1, 1, payload);
    }
  });
  EXPECT_EQ(sim.metrics().total_words, 3 + kHeaderWords);
  EXPECT_EQ(sim.metrics().messages, 1u);
  EXPECT_EQ(sim.metrics().max_send_words, 3 + kHeaderWords);
}

TEST(Primitives, Broadcast) {
  Simulator sim(small_config(4));
  const std::vector<Word> payload = {1, 2, 3};
  const auto received = broadcast(sim, 2, payload);
  for (MachineId m = 0; m < 4; ++m) EXPECT_EQ(received[m], payload);
  EXPECT_EQ(sim.metrics().rounds, 1u);
}

TEST(Primitives, GatherTo) {
  Simulator sim(small_config(3));
  std::vector<std::vector<Word>> contributions = {{10}, {20, 21}, {30}};
  const auto received = gather_to(sim, 0, contributions);
  EXPECT_EQ(received[0], (std::vector<Word>{10}));
  EXPECT_EQ(received[1], (std::vector<Word>{20, 21}));
  EXPECT_EQ(received[2], (std::vector<Word>{30}));
  EXPECT_EQ(sim.metrics().rounds, 1u);
}

TEST(Primitives, AllReduceSum) {
  Simulator sim(small_config(3));
  std::vector<std::vector<double>> contributions = {
      {1.0, 2.0}, {0.5, -1.0}, {2.5, 4.0}};
  const auto total = allreduce_sum(sim, contributions);
  ASSERT_EQ(total.size(), 2u);
  EXPECT_DOUBLE_EQ(total[0], 4.0);
  EXPECT_DOUBLE_EQ(total[1], 5.0);
  EXPECT_EQ(sim.metrics().rounds, 2u);
}

TEST(Primitives, AllReduceMaxAndSumU64) {
  Simulator sim(small_config(4));
  EXPECT_EQ(allreduce_max(sim, {3, 9, 1, 4}), 9u);
  EXPECT_EQ(allreduce_sum_u64(sim, {3, 9, 1, 4}), 17u);
  EXPECT_EQ(sim.metrics().rounds, 4u);
}

TEST(Primitives, AllToAll) {
  Simulator sim(small_config(2));
  std::vector<std::vector<std::vector<Word>>> out(2);
  out[0] = {{1}, {2}};  // 0->0: {1}, 0->1: {2}
  out[1] = {{3}, {4}};  // 1->0: {3}, 1->1: {4}
  const auto in = all_to_all(sim, out);
  EXPECT_EQ(in[0][0], (std::vector<Word>{1}));
  EXPECT_EQ(in[0][1], (std::vector<Word>{3}));
  EXPECT_EQ(in[1][0], (std::vector<Word>{2}));
  EXPECT_EQ(in[1][1], (std::vector<Word>{4}));
  EXPECT_EQ(sim.metrics().rounds, 1u);
}

// Each non-empty list goes to every other machine: 3 + 3 messages of
// 2 + 2 and 1 + 2 words; empty lists send nothing.
TEST(Primitives, AnnounceSendsEachNonEmptyListToEveryOtherMachine) {
  Simulator sim(small_config(4));
  announce(sim, {{5, 6}, {}, {7}, {}}, 0x42);
  EXPECT_EQ(sim.metrics().rounds, 1u);
  EXPECT_EQ(sim.metrics().messages, 6u);
  EXPECT_EQ(sim.metrics().total_words, 3u * 4u + 3u * 3u);
  EXPECT_THROW(announce(sim, {{1}, {2}}, 0x42), std::invalid_argument);
}

}  // namespace
}  // namespace rsets::mpc
