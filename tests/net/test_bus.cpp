#include "net/bus.h"

#include <gtest/gtest.h>

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

TEST(MessageBusDeath, BadAgentIdsAbort) {
  MessageBus bus(2);
  EXPECT_DEATH(bus.Send(Make(5, 0, 1, 0)), "bad sender");
  EXPECT_DEATH(bus.Send(Make(0, 5, 1, 0)), "bad receiver");
  EXPECT_DEATH((void)bus.Receive(-2), "bad agent");
}

}  // namespace
}  // namespace pem::net
