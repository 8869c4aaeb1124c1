#include "net/bus.h"

#include <gtest/gtest.h>

#include <map>

#include "net/frame.h"
#include "util/parallel.h"

namespace pem::net {
namespace {

Message Make(AgentId from, AgentId to, uint32_t type, size_t payload_size) {
  Message m;
  m.from = from;
  m.to = to;
  m.type = type;
  m.payload.assign(payload_size, 0x5A);
  return m;
}

TEST(MessageBus, DeliversInFifoOrder) {
  MessageBus bus(3);
  bus.Send(Make(0, 1, 10, 4));
  bus.Send(Make(2, 1, 20, 4));
  auto m1 = bus.Receive(1);
  auto m2 = bus.Receive(1);
  ASSERT_TRUE(m1 && m2);
  EXPECT_EQ(m1->type, 10u);
  EXPECT_EQ(m1->from, 0);
  EXPECT_EQ(m2->type, 20u);
  EXPECT_EQ(m2->from, 2);
  EXPECT_FALSE(bus.Receive(1).has_value());
}

TEST(MessageBus, EmptyInboxReturnsNullopt) {
  MessageBus bus(2);
  EXPECT_FALSE(bus.Receive(0).has_value());
  EXPECT_FALSE(bus.HasMessage(0));
}

TEST(MessageBus, HasMessageReflectsState) {
  MessageBus bus(2);
  bus.Send(Make(0, 1, 1, 0));
  EXPECT_TRUE(bus.HasMessage(1));
  EXPECT_FALSE(bus.HasMessage(0));
  (void)bus.Receive(1);
  EXPECT_FALSE(bus.HasMessage(1));
}

TEST(MessageBus, AccountsPayloadPlusFrameOverhead) {
  MessageBus bus(2);
  bus.Send(Make(0, 1, 1, 100));
  const uint64_t expected = FramedSize(size_t{100});
  EXPECT_EQ(bus.stats(0).bytes_sent, expected);
  EXPECT_EQ(bus.stats(1).bytes_received, expected);
  EXPECT_EQ(bus.total_bytes(), expected);
  EXPECT_EQ(bus.total_messages(), 1u);
}

TEST(MessageBus, BroadcastReachesEveryoneExceptSender) {
  MessageBus bus(4);
  bus.Send(Make(1, kBroadcast, 9, 10));
  EXPECT_FALSE(bus.HasMessage(1));
  for (AgentId a : {0, 2, 3}) {
    auto m = bus.Receive(a);
    ASSERT_TRUE(m.has_value()) << a;
    EXPECT_EQ(m->to, a);
    EXPECT_EQ(m->from, 1);
  }
  // Three unicast copies accounted.
  EXPECT_EQ(bus.total_messages(), 3u);
  EXPECT_EQ(bus.stats(1).bytes_sent,
            3 * FramedSize(size_t{10}));
}

TEST(MessageBus, PerAgentCountersAreIndependent) {
  MessageBus bus(3);
  bus.Send(Make(0, 1, 1, 5));
  bus.Send(Make(0, 2, 1, 7));
  bus.Send(Make(1, 0, 1, 3));
  EXPECT_EQ(bus.stats(0).messages_sent, 2u);
  EXPECT_EQ(bus.stats(0).messages_received, 1u);
  EXPECT_EQ(bus.stats(1).messages_sent, 1u);
  EXPECT_EQ(bus.stats(2).messages_sent, 0u);
}

TEST(MessageBus, AverageBytesPerAgent) {
  MessageBus bus(2);
  bus.Send(Make(0, 1, 1, 80));  // 100 accounted
  // sent(0)=100, received(1)=100 -> (100+100)/2.
  EXPECT_DOUBLE_EQ(bus.AverageBytesPerAgent(), 100.0);
}

TEST(MessageBus, ResetStatsKeepsInboxes) {
  MessageBus bus(2);
  bus.Send(Make(0, 1, 1, 10));
  bus.ResetStats();
  EXPECT_EQ(bus.total_bytes(), 0u);
  EXPECT_EQ(bus.stats(0).bytes_sent, 0u);
  EXPECT_TRUE(bus.HasMessage(1));  // message survives the stat reset
  EXPECT_DOUBLE_EQ(bus.AverageBytesPerAgent(), 0.0);
}

TEST(MessageBus, PayloadContentPreserved) {
  MessageBus bus(2);
  Message m = Make(0, 1, 77, 0);
  m.payload = {9, 8, 7};
  bus.Send(std::move(m));
  auto got = bus.Receive(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, (std::vector<uint8_t>{9, 8, 7}));
}

// --- concurrent senders ----------------------------------------------
//
// The bus takes a lock per operation, so ParallelFor workers may send
// at once; the protocol engine never does, but the contract holds.

TEST(MessageBus, AcceptsSendsFromParallelForWorkers) {
  constexpr int kSenders = 8;
  constexpr int kPerSender = 50;
  constexpr size_t kPayload = 16;
  MessageBus bus(kSenders + 1);
  const AgentId sink = kSenders;
  // Each worker is one sender streaming sequence-numbered messages.
  ParallelFor(0, kSenders, 4, [&](size_t sender) {
    for (int seq = 0; seq < kPerSender; ++seq) {
      Message m;
      m.from = static_cast<AgentId>(sender);
      m.to = sink;
      m.type = static_cast<uint32_t>(seq);
      m.payload.assign(kPayload, static_cast<uint8_t>(sender));
      bus.Send(std::move(m));
    }
  });

  // Byte-exact accounting despite the concurrent senders.
  const uint64_t per_msg = FramedSize(kPayload);
  EXPECT_EQ(bus.total_messages(),
            static_cast<uint64_t>(kSenders) * kPerSender);
  EXPECT_EQ(bus.total_bytes(),
            static_cast<uint64_t>(kSenders) * kPerSender * per_msg);
  EXPECT_EQ(bus.stats(sink).bytes_received,
            static_cast<uint64_t>(kSenders) * kPerSender * per_msg);
  for (AgentId s = 0; s < kSenders; ++s) {
    EXPECT_EQ(bus.stats(s).messages_sent, static_cast<uint64_t>(kPerSender));
    EXPECT_EQ(bus.stats(s).bytes_sent, kPerSender * per_msg);
  }

  // Per-sender FIFO order: each sender's messages arrive in its own
  // send order (sequence numbers strictly increasing per sender).
  std::map<AgentId, uint32_t> next_seq;
  int received = 0;
  while (auto m = bus.Receive(sink)) {
    EXPECT_EQ(m->type, next_seq[m->from]) << "sender " << m->from;
    next_seq[m->from] = m->type + 1;
    ++received;
  }
  EXPECT_EQ(received, kSenders * kPerSender);
}

TEST(MessageBus, ObserverSeesEveryConcurrentSend) {
  constexpr int kSenders = 4;
  constexpr int kPerSender = 25;
  MessageBus bus(kSenders + 1);
  // The observer runs under the bus lock, so a plain counter is safe.
  int observed = 0;
  bus.SetObserver([&observed](const Message&) { ++observed; });
  ParallelFor(0, kSenders, kSenders, [&](size_t sender) {
    for (int i = 0; i < kPerSender; ++i) {
      bus.Send(Make(static_cast<AgentId>(sender), kSenders, 1, 4));
    }
  });
  EXPECT_EQ(observed, kSenders * kPerSender);
}

TEST(MessageBus, ConcurrentStatReadsDuringSends) {
  // Readers racing writers must neither crash nor tear: every snapshot
  // of total_bytes is a multiple of the per-message size.
  constexpr size_t kPayload = 12;
  const uint64_t per_msg = FramedSize(kPayload);
  MessageBus bus(3);
  ParallelFor(0, 4, 4, [&](size_t worker) {
    if (worker == 0) {
      for (int i = 0; i < 200; ++i) bus.Send(Make(0, 1, 1, kPayload));
    } else {
      for (int i = 0; i < 200; ++i) {
        const uint64_t bytes = bus.total_bytes();
        EXPECT_EQ(bytes % per_msg, 0u);
        (void)bus.AverageBytesPerAgent();
        (void)bus.stats(1);
      }
    }
  });
  EXPECT_EQ(bus.total_messages(), 200u);
}

TEST(ConcurrentBus, ResetStatsKeepsInboxes) {
  // A stat reset after concurrent sends zeroes every counter but drops
  // none of the queued messages.
  constexpr int kSenders = 4;
  constexpr int kPerSender = 25;
  MessageBus bus(kSenders + 1);
  ParallelFor(0, kSenders, kSenders, [&](size_t sender) {
    for (int i = 0; i < kPerSender; ++i) {
      bus.Send(Make(static_cast<AgentId>(sender), kSenders, 1, 10));
    }
  });
  bus.ResetStats();
  EXPECT_EQ(bus.total_bytes(), 0u);
  EXPECT_EQ(bus.total_messages(), 0u);
  EXPECT_EQ(bus.stats(0).bytes_sent, 0u);
  EXPECT_DOUBLE_EQ(bus.AverageBytesPerAgent(), 0.0);
  int received = 0;
  while (bus.Receive(kSenders)) ++received;
  EXPECT_EQ(received, kSenders * kPerSender);
}

TEST(MessageBusDeath, BadAgentIdsAbort) {
  MessageBus bus(2);
  EXPECT_DEATH(bus.Send(Make(5, 0, 1, 0)), "bad sender");
  EXPECT_DEATH(bus.Send(Make(0, 5, 1, 0)), "bad receiver");
  EXPECT_DEATH((void)bus.Receive(-2), "bad agent");
}

}  // namespace
}  // namespace pem::net
