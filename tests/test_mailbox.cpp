// Cross-shard Mailbox contract: FIFO within one large burst, FIFO while
// producer and consumer run concurrently on two workers, FIFO across
// separate drain batches (the cumulative seq), and the zero-latency
// rejection (a conservative channel must declare lookahead).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace adcp {
namespace {

TEST(Mailbox, FullRingOverflowPreservesFifo) {
  // 600 same-tick pushes from one producer event reach the consumer in one
  // drain batch, and the consumer must still see push order — ties at one
  // timestamp are broken by the FIFO seq alone, so any reordering inside
  // the batch would reorder the values.
  sim::ParallelSimulator psim(1);
  sim::Simulator& producer = psim.add_shard();
  psim.add_shard();  // consumer
  sim::Mailbox& box = psim.add_mailbox(0, 1, 100);

  std::vector<int> order;
  producer.at(0, [&box, &order] {
    for (int i = 0; i < 600; ++i) {
      order.reserve(600);
      box.push(1000, [&order, i] { order.push_back(i); });
    }
  });

  const std::uint64_t events = psim.run();
  EXPECT_EQ(events, 601u);  // 1 producer event + 600 injected arrivals
  EXPECT_EQ(box.pushed(), 600u);
  EXPECT_EQ(box.drained(), 600u);
  ASSERT_EQ(order.size(), 600u);
  for (int i = 0; i < 600; ++i) {
    ASSERT_EQ(order[i], i) << "FIFO broke at position " << i;
  }
}

TEST(Mailbox, ConcurrentDrainPreservesFifo) {
  // Two workers: the producer pushes bursts while the consumer drains. A
  // 1 ps channel with a 1 ps back channel keeps the two shards within a
  // round of each other. A third, independent shard does a seeded amount of
  // busy work each round; uniform LPT packing puts it on the consumer's
  // worker (shards 0 and 2 on one worker, shard 1 on the other), so drains
  // start at varying points inside the producer's bursts. Every arrival
  // targets one timestamp, so only the FIFO seq orders them: a drain that
  // took newer envelopes before older ones would show here.
  constexpr int kTrials = 20;
  constexpr int kBursts = 100;
  sim::Rng rng(19);
  for (int trial = 0; trial < kTrials; ++trial) {
    sim::ParallelSimulator psim(2);
    sim::Simulator& busy = psim.add_shard();
    sim::Simulator& producer = psim.add_shard();
    psim.add_shard();  // consumer
    sim::Mailbox& box = psim.add_mailbox(1, 2, 1);
    psim.add_mailbox(2, 1, 1);  // never pushed; bounds the producer horizon
    psim.add_mailbox(1, 0, 1);  // never pushed; paces the busy shard

    std::vector<int> order;
    int pushed = 0;
    for (int b = 0; b < kBursts; ++b) {
      const auto t = static_cast<sim::Time>(b);
      const auto spin = rng.uniform(0, 10'000);
      busy.at(t, [spin] {
        volatile std::uint64_t sink = 0;
        for (std::uint64_t k = 0; k < spin; ++k) sink = sink + k;
      });
      const int size = static_cast<int>(rng.uniform(300, 900));
      producer.at(t, [&box, &order, first = pushed, size] {
        for (int i = first; i < first + size; ++i) {
          box.push(kBursts + 10, [&order, i] { order.push_back(i); });
        }
      });
      pushed += size;
    }
    order.reserve(static_cast<std::size_t>(pushed));

    psim.run();
    ASSERT_EQ(box.drained(), static_cast<std::uint64_t>(pushed));
    ASSERT_EQ(order.size(), static_cast<std::size_t>(pushed));
    for (int i = 0; i < pushed; ++i) {
      ASSERT_EQ(order[i], i) << "FIFO broke at position " << i << " in trial " << trial;
    }
  }
}

TEST(Mailbox, FifoSeqSpansDrainBatches) {
  // Three producer bursts at t = 0, 600, 1200 all target the same consumer
  // timestamp (5000). A quiet back-channel throttles the producer's horizon
  // so the bursts run in separate rounds and reach the consumer in separate
  // drain batches; the arrivals park in the pending heap and are injected
  // by (at, mailbox, seq) — the cumulative per-mailbox seq must keep the
  // cross-batch push order, not just the order within one batch.
  sim::ParallelSimulator psim(1);
  sim::Simulator& producer = psim.add_shard();
  psim.add_shard();  // consumer
  sim::Mailbox& box = psim.add_mailbox(0, 1, 100);
  psim.add_mailbox(1, 0, 100);  // never pushed; bounds the producer horizon

  std::vector<int> order;
  for (int burst = 0; burst < 3; ++burst) {
    producer.at(static_cast<sim::Time>(600 * burst), [&box, &order, burst] {
      for (int i = 0; i < 5; ++i) {
        const int value = 5 * burst + i;
        box.push(5000, [&order, value] { order.push_back(value); });
      }
    });
  }

  psim.run();
  EXPECT_EQ(box.pushed(), 15u);
  EXPECT_EQ(box.drained(), 15u);
  ASSERT_EQ(order.size(), 15u);
  for (int i = 0; i < 15; ++i) {
    ASSERT_EQ(order[i], i) << "cross-batch FIFO broke at position " << i;
  }
  EXPECT_EQ(psim.now(), 5000u);
}

using MailboxDeathTest = ::testing::Test;

TEST(MailboxDeathTest, ZeroLatencyChannelAborts) {
  // A zero-latency channel admits no conservative lookahead: the consumer's
  // horizon could never pass the producer's clock. Construction must refuse
  // loudly instead of deadlocking or silently serializing at run time.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::ParallelSimulator psim(1);
        psim.add_shard();
        psim.add_shard();
        psim.add_mailbox(0, 1, 0);
      },
      "zero-latency");
}

}  // namespace
}  // namespace adcp
