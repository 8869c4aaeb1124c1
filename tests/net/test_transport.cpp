#include "net/transport.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/bus.h"
#include "net/frame.h"

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

// The in-process backend; the forked ones need a child entry point
// and are built by core::RunSimulation instead.
constexpr TransportKind kAllKinds[] = {TransportKind::kSerialBus};

TEST(MakeTransport, ConstructsEveryBackend) {
  for (TransportKind kind : kAllKinds) {
    std::unique_ptr<Transport> t = MakeTransport(kind, 3);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->num_agents(), 3);
    t->Send(Make(0, 1, 7, 4));
    auto m = t->Receive(1);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->type, 7u);
    EXPECT_EQ(t->total_bytes(), FramedSize(size_t{4}));
  }
}

TEST(MakeTransportDeath, NonPositiveAgentCountAborts) {
  EXPECT_DEATH((void)MakeTransport(TransportKind::kSerialBus, 0), "positive");
  EXPECT_DEATH((void)MakeTransport(TransportKind::kSerialBus, -1), "positive");
}

TEST(MakeTransportDeath, RefusesTcpKind) {
  EXPECT_DEATH((void)MakeTransport(TransportKind::kTcp, 3),
               "kTcp selects no backend");
}

TEST(TransportKindNames, EveryBackendHasAName) {
  EXPECT_STREQ(TransportKindName(TransportKind::kSerialBus), "serial");
  EXPECT_STREQ(TransportKindName(TransportKind::kProcess), "process");
  EXPECT_STREQ(TransportKindName(TransportKind::kTcp), "tcp");
  EXPECT_STREQ(TransportKindName(TransportKind::kShm), "shm");
}

// --- Endpoint handles -------------------------------------------------

TEST(Endpoint, SendsReceivesAndCountsThroughTheHandle) {
  for (TransportKind kind : kAllKinds) {
    std::unique_ptr<Transport> t = MakeTransport(kind, 3);
    std::vector<Endpoint> eps = t->endpoints();
    ASSERT_EQ(eps.size(), 3u);
    EXPECT_EQ(eps[2].id(), 2);
    EXPECT_EQ(eps[0].num_agents(), 3);

    eps[0].Send(1, 9, {1, 2, 3});
    EXPECT_TRUE(eps[1].HasMessage());
    EXPECT_FALSE(eps[2].HasMessage());
    auto m = eps[1].Receive();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->from, 0);
    EXPECT_EQ(m->to, 1);
    EXPECT_EQ(m->type, 9u);
    EXPECT_EQ(m->payload, (std::vector<uint8_t>{1, 2, 3}));
    EXPECT_FALSE(eps[1].Receive().has_value());

    EXPECT_EQ(eps[0].stats().bytes_sent, FramedSize(size_t{3}));
    EXPECT_EQ(eps[1].stats().bytes_received, FramedSize(size_t{3}));
    EXPECT_EQ(eps[2].stats().bytes_received, 0u);
  }
}

TEST(EndpointDeath, ForgedSenderAborts) {
  MessageBus bus(2);
  Endpoint ep = bus.endpoint(0);
  EXPECT_DEATH(ep.Send(Make(1, 0, 1, 1)), "forges");
}

TEST(EndpointDeath, OutOfRangeEndpointAborts) {
  MessageBus bus(2);
  EXPECT_DEATH((void)bus.endpoint(2), "out of range");
  EXPECT_DEATH((void)bus.endpoint(-1), "out of range");
}

// --- broadcast accounting across the backend matrix -------------------

TEST(BroadcastAccounting, ChargesExactlyNMinus1FramedCopiesEverywhere) {
  constexpr int kN = 5;
  constexpr size_t kPayload = 33;
  for (TransportKind kind : kAllKinds) {
    std::unique_ptr<Transport> t = MakeTransport(kind, kN);
    std::vector<Endpoint> eps = t->endpoints();
    eps[0].Send(kBroadcast, 42, std::vector<uint8_t>(kPayload, 0xAB));

    const uint64_t framed = FramedSize(kPayload);
    EXPECT_EQ(eps[0].stats().bytes_sent, (kN - 1) * framed)
        << TransportKindName(kind);
    EXPECT_EQ(eps[0].stats().messages_sent, uint64_t{kN - 1});
    EXPECT_EQ(t->total_bytes(), (kN - 1) * framed);
    EXPECT_EQ(t->total_messages(), uint64_t{kN - 1});
    EXPECT_FALSE(eps[0].HasMessage());  // no self-delivery
    for (int a = 1; a < kN; ++a) {
      EXPECT_EQ(eps[a].stats().bytes_received, framed) << a;
      auto m = eps[a].Receive();
      ASSERT_TRUE(m.has_value()) << a;
      EXPECT_EQ(m->from, 0);
      EXPECT_EQ(m->to, a);  // fan-out rewrote the recipient
      EXPECT_EQ(m->payload.size(), kPayload);
      EXPECT_FALSE(eps[a].Receive().has_value());
    }
  }
}

TEST(ExecutionPolicy, FactoriesAndHelpers) {
  const ExecutionPolicy serial = ExecutionPolicy::Serial();
  EXPECT_EQ(serial.transport_kind, TransportKind::kSerialBus);
  EXPECT_EQ(serial.threads, 1);
  EXPECT_FALSE(serial.parallel());
  EXPECT_EQ(serial.worker_count(), 1u);

  // Phase-parallel runs use the same in-process bus; only the worker
  // count changes.
  const ExecutionPolicy par = ExecutionPolicy::Parallel(4);
  EXPECT_EQ(par.transport_kind, TransportKind::kSerialBus);
  EXPECT_EQ(par.threads, 4);
  EXPECT_TRUE(par.parallel());
  EXPECT_EQ(par.worker_count(), 4u);
}

}  // namespace
}  // namespace pem::net
