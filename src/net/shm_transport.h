// Zero-copy shared-memory transport: co-located agents exchanging
// frames through SPSC rings instead of kernel sockets.
//
// The paper's agents are containers on one host; for that co-located
// case every frame through the socketpair backends still pays two
// kernel copies (sender write, receiver read) plus a router wakeup.
// This backend removes all three: the parent mmaps one
// MAP_SHARED | MAP_ANONYMOUS region holding an n x n grid of
// net/spsc_ring.h rings (one per directed agent pair; the diagonal is
// unused), forks one child per agent, and a Send writes the canonical
// net/frame.h frame ONCE into ring(sender -> recipient), where the
// recipient consumes it in place — no kernel copies, no router hop.
//
// What does NOT change is everything the other out-of-process
// backends established:
//   * the control plane, watchdog, fault reporting, reaping and
//     per-window report collection all reuse net::AgentSupervisor;
//   * Table-I accounting still charges exactly FramedSize(payload)
//     per delivered copy, through the same AccountDeliveredCopy path
//     the relay routers use.  The parent cannot sit on a router hop
//     here, so each ring carries a third cursor — the SNOOP cursor —
//     gating the writer's free space: a parent snooper thread tails
//     every ring, decodes the records it (re)reads, and accounts +
//     observes them.  Nothing is overwritten until the parent has
//     accounted it, so the ledger is exact, not sampled.
//
// Per-sender order.  A sender's frames spread across n-1 rings, so
// ring position alone cannot reconstruct its global send order (which
// the parity tests assert, and the observer transcript needs).  Every
// ring record therefore carries a per-sender sequence number, and the
// snooper merges each sender's records back into exact send order
// with a small reorder stash.  A child receives through the same
// ChildTransport as the socket backends (net/child_transport.h), with
// the ring grid as its medium: ring(s -> r) IS sender s's FIFO toward
// r, so the next frame from the sender the script names is the front
// record of that one ring.
//
// Record layout inside a ring (all integers little-endian):
//   [u32 frame_len | u32 reserved | u64 sender_seq] frame
// where `frame` is the canonical codec frame (header + checksum +
// payload).  A record is published with one release store, so readers
// never see a torn prefix; records larger than a ring are rejected at
// Send (size the ring via Options::ring_bytes for bigger payloads).
//
// Failure model.  Children die with the parent (PDEATHSIG) and the
// parent SIGKILLs stragglers in its destructor, so a writer parked on
// a dead receiver's full ring is always resolved by teardown.  A
// crashed child surfaces exactly as in the socket backends: its pidfd
// turns readable, the supervisor reaps it and ReadRecord throws a
// structured TransportError naming the agent and its fatal signal
// within the watchdog — asserted by tests/net/test_shm_transport.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "net/agent_supervisor.h"
#include "net/spsc_ring.h"

namespace pem::net {

// Ring record header: [u32 frame_len | u32 reserved | u64 sender_seq].
inline constexpr size_t kShmRecordHeaderBytes = 16;

class ShmTransport : public AgentSupervisor {
 public:
  struct Options {
    // See AgentSupervisor::Options.
    int watchdog_ms = 120'000;
    // Data capacity of each directed ring (power of two).  A record
    // (16-byte ring header + framed message) must fit in one ring.
    size_t ring_bytes = size_t{1} << 20;
  };

  ShmTransport(int num_agents, ChildMain child_main, Options opts);
  ShmTransport(int num_agents, ChildMain child_main)
      : ShmTransport(num_agents, std::move(child_main), Options{}) {}
  ~ShmTransport() override;

  // Blocks until the snooper has accounted every published record
  // (snoop == tail on all rings, reorder stash empty).  Called by
  // protocol::RunForkedWindow after every child reported the window,
  // when the tails are quiesced.
  void SyncLedger() override;

  // Test hook: publishes a ring record into ring(from -> to) directly
  // from the parent, as an adversary with mapping access would —
  // choosing the per-sender sequence number freely and optionally
  // corrupting the frame checksum.  The snooper rejects what it snoops
  // (a stale/duplicate sequence is a replay, a record whose frame names
  // another pair is a forgery, a corrupt frame is garbage), latching a
  // structured fault naming the ring's sender while the surviving
  // rings keep accounting.  Only safe while the named sender's child is
  // quiescent (SPSC: one producer per ring).  Never called outside
  // tests.
  void InjectRingRecordForTest(AgentId from, AgentId to, uint64_t seq,
                               const Message& msg,
                               bool corrupt_frame = false);

 private:
  void SnooperLoop();
  void StopSnooper();

  Options shm_opts_;
  void* region_ = nullptr;
  size_t region_bytes_ = 0;
  std::atomic<uint32_t>* epoch_ = nullptr;  // publish doorbell (shared)
  std::vector<SpscRing> rings_;             // [from * n + to]; diagonal unused

  // Snooper-thread-only per-sender merge state.
  std::vector<uint64_t> next_seq_;
  std::vector<std::map<uint64_t, Message>> reorder_;
  std::vector<uint8_t> snoop_scratch_;

  std::atomic<bool> snoop_stop_{false};
  std::thread snooper_;
};

}  // namespace pem::net
