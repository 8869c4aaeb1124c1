// Single-producer/single-consumer byte ring over caller-provided
// shared memory — the data path of the zero-copy shm transport.
//
// The ring lives entirely inside a region the caller maps
// (mmap MAP_SHARED | MAP_ANONYMOUS before fork, so parent and children
// address the same pages): a 64-byte-aligned header of cursors plus a
// power-of-two data area.  The writer owns `tail`, the reader owns
// `head`, and a third cursor, `snoop`, lets a supervising process tap
// every byte without racing the reader — the writer's free space is
// gated by min(head, snoop), so nothing is overwritten until BOTH the
// consumer and the tap have moved past it.  This is how ShmTransport
// keeps the parent's TrafficLedger exact with no router hop: frames
// flow peer-to-peer through the ring, and the parent accounts them
// from the snoop cursor at its leisure.
//
// Memory ordering is the classic SPSC discipline, acquire/release
// only, no locks on the data path:
//   * the writer publishes bytes with a release store of `tail`; a
//     reader's acquire load of `tail` therefore observes the bytes
//     fully written — a torn length prefix is impossible by
//     construction (asserted by test_spsc_ring, machine-checked by the
//     TSan CI leg);
//   * the reader frees space with a release store of `head` (resp.
//     `snoop`); the writer's acquire load observes the reads done.
//
// Blocking never spins: each side parks on a futex doorbell (data_seq
// for "bytes arrived", space_seq for "space freed").  The futexes are
// non-PRIVATE so they work across the fork, and every wait is bounded
// (the caller passes a timeout and rechecks), so a missed wake
// degrades to a poll tick, never a deadlock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

namespace pem::net {

// Bounded cross-process futex wait/wake on a 32-bit doorbell word in
// shared memory.  Wait returns when the word no longer equals
// `expected`, on a wake, or after `timeout_ms` — callers always
// recheck their real condition in a loop.
void FutexWait(std::atomic<uint32_t>* word, uint32_t expected,
               int timeout_ms);
void FutexWake(std::atomic<uint32_t>* word);

// The shared-memory header.  Each cursor sits on its own cache line so
// the producer and consumer cores never false-share; the doorbells and
// geometry share a fourth line (written rarely relative to the data
// path, and never concurrently with initialization).
struct alignas(64) SpscRingHeader {
  alignas(64) std::atomic<uint64_t> tail;   // writer: bytes published
  alignas(64) std::atomic<uint64_t> head;   // reader: bytes consumed
  alignas(64) std::atomic<uint64_t> snoop;  // tap: bytes accounted
  alignas(64) std::atomic<uint32_t> data_seq;   // bumped per publish
  std::atomic<uint32_t> space_seq;              // bumped per consume
  uint64_t capacity = 0;                        // data area, power of two
  uint32_t magic = 0;
};

// A handle onto one ring in a mapped region (cheap to copy: two
// pointers).  Exactly one thread/process may act as writer, one as
// reader, one as snooper; the cursor accessors are safe from anywhere.
class SpscRing {
 public:
  SpscRing() = default;

  // Region bytes needed for a ring with `capacity` data bytes.
  static size_t RegionBytes(size_t capacity);

  // Formats `mem` (RegionBytes(capacity) bytes, 64-byte aligned) as an
  // empty ring.  Call once, before any peer attaches.
  static SpscRing Init(void* mem, size_t capacity);
  // Attaches to a ring some peer already Init'ed (checks the magic).
  static SpscRing Attach(void* mem);

  uint64_t capacity() const { return h_->capacity; }
  uint64_t tail() const { return h_->tail.load(std::memory_order_acquire); }
  uint64_t snoop() const { return h_->snoop.load(std::memory_order_acquire); }

  // --- writer side ---
  size_t FreeBytes() const;
  // Appends a+b as one contiguous publish (one release store of tail,
  // so a reader sees either nothing or all of it).  False if the ring
  // lacks space — nothing written.
  bool TryAppend(std::span<const uint8_t> a, std::span<const uint8_t> b);
  // Parks on the space doorbell until FreeBytes() may have grown;
  // bounded by `timeout_ms`.
  void WaitWritable(size_t bytes, int timeout_ms);

  // --- reader side ---
  size_t ReadableBytes() const;
  // Copies `len` bytes starting `offset` past the head cursor (no
  // consume).  Caller guarantees offset+len <= ReadableBytes().
  void Peek(size_t offset, uint8_t* dst, size_t len) const;
  void Consume(size_t len);
  // Parks on the data doorbell until bytes may have arrived; bounded.
  void WaitReadable(int timeout_ms);

  // --- snooper side (same protocol against the snoop cursor) ---
  size_t SnoopReadableBytes() const;
  void SnoopPeek(size_t offset, uint8_t* dst, size_t len) const;
  void SnoopConsume(size_t len);

 private:
  SpscRing(SpscRingHeader* h, uint8_t* data) : h_(h), data_(data) {}

  void CopyIn(uint64_t at, std::span<const uint8_t> bytes);
  void CopyOut(uint64_t from, uint8_t* dst, size_t len) const;

  SpscRingHeader* h_ = nullptr;
  uint8_t* data_ = nullptr;
};

}  // namespace pem::net
