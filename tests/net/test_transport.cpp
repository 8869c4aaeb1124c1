#include "net/transport.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/bus.h"
#include "net/concurrent_bus.h"
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

// The in-process backends; the forked ones need a child entry point
// and are built by core::RunSimulation instead.
constexpr TransportKind kAllKinds[] = {TransportKind::kSerialBus,
                                       TransportKind::kConcurrentBus};

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
  EXPECT_DEATH((void)MakeTransport(TransportKind::kConcurrentBus, -1),
               "positive");
}

TEST(TransportKindNames, EveryBackendHasAName) {
  EXPECT_STREQ(TransportKindName(TransportKind::kSerialBus), "serial");
  EXPECT_STREQ(TransportKindName(TransportKind::kConcurrentBus), "concurrent");
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

  const ExecutionPolicy par = ExecutionPolicy::Parallel(4);
  EXPECT_EQ(par.transport_kind, TransportKind::kConcurrentBus);
  EXPECT_EQ(par.threads, 4);
  EXPECT_TRUE(par.parallel());
  EXPECT_EQ(par.worker_count(), 4u);
}

TEST(ConcurrentBus, BehavesLikeSerialBusSingleThreaded) {
  MessageBus serial(3);
  ConcurrentMessageBus concurrent(3);
  for (Transport* t : std::initializer_list<Transport*>{&serial, &concurrent}) {
    t->Send(Make(0, 1, 10, 8));
    t->Send(Make(2, kBroadcast, 11, 2));
  }
  EXPECT_EQ(concurrent.total_bytes(), serial.total_bytes());
  EXPECT_EQ(concurrent.total_messages(), serial.total_messages());
  for (AgentId a = 0; a < 3; ++a) {
    EXPECT_EQ(concurrent.stats(a).bytes_sent, serial.stats(a).bytes_sent) << a;
    EXPECT_EQ(concurrent.stats(a).bytes_received,
              serial.stats(a).bytes_received)
        << a;
    while (true) {
      auto ms = serial.Receive(a);
      auto mc = concurrent.Receive(a);
      ASSERT_EQ(ms.has_value(), mc.has_value());
      if (!ms) break;
      EXPECT_TRUE(*ms == *mc);
    }
  }
}

TEST(ConcurrentBus, AcceptsSendsFromParallelForWorkers) {
  constexpr int kSenders = 8;
  constexpr int kPerSender = 50;
  constexpr size_t kPayload = 16;
  ConcurrentMessageBus bus(kSenders + 1);
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

TEST(ConcurrentBus, ObserverSeesEveryConcurrentSend) {
  constexpr int kSenders = 4;
  constexpr int kPerSender = 25;
  ConcurrentMessageBus bus(kSenders + 1);
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

TEST(ConcurrentBus, ResetStatsKeepsInboxes) {
  ConcurrentMessageBus bus(2);
  bus.Send(Make(0, 1, 1, 10));
  bus.ResetStats();
  EXPECT_EQ(bus.total_bytes(), 0u);
  EXPECT_EQ(bus.stats(0).bytes_sent, 0u);
  EXPECT_TRUE(bus.HasMessage(1));
  EXPECT_DOUBLE_EQ(bus.AverageBytesPerAgent(), 0.0);
}

TEST(ConcurrentBus, ConcurrentStatReadsDuringSends) {
  // Readers racing writers must neither crash nor tear: every snapshot
  // of total_bytes is a multiple of the per-message size.
  constexpr size_t kPayload = 12;
  const uint64_t per_msg = FramedSize(kPayload);
  ConcurrentMessageBus bus(3);
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

}  // namespace
}  // namespace pem::net
