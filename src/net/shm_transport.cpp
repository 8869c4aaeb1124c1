#include "net/shm_transport.h"

#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <new>
#include <utility>

#include "net/child_transport.h"
#include "util/error.h"

namespace pem::net {
namespace {

// One cache line at the region base: the publish doorbell the parent
// snooper parks on (every child bumps + wakes it after any append).
constexpr size_t kGlobalHeaderBytes = 64;
// Doorbell re-check period: a missed futex wake costs at most one tick.
constexpr int kDoorbellTickMs = 50;

inline void StoreU64(uint8_t* p, uint64_t v) {
  StoreU32(p, static_cast<uint32_t>(v));
  StoreU32(p + 4, static_cast<uint32_t>(v >> 32));
}

inline uint64_t LoadU64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

// Whether a record claiming `frame_len` frame bytes fits a frame and is
// whole in `readable` bytes.  Records are published whole (one release
// store of tail), so a length that fails this is a lie, not a torn read.
bool SaneRecordLength(uint32_t frame_len, size_t readable) {
  return frame_len >= kFrameHeaderBytes &&
         frame_len <= FramedSize(kMaxFramePayloadBytes) &&
         readable >= kShmRecordHeaderBytes + frame_len;
}

// --- child side -------------------------------------------------------

// The shm medium under a forked child's ChildTransport: this agent's
// frames go straight into the per-pair rings — no wire fd, no router —
// and ring(sender -> self) IS sender's FIFO toward this agent.  A
// record another process wrote is untrusted input: one that fails its
// checks throws a TransportError naming the ring's sender.
class RingGrid final : public ChildWire {
 public:
  RingGrid(int num_agents, AgentId self, std::vector<SpscRing> rings,
           std::atomic<uint32_t>* epoch)
      : n_(num_agents), self_(self), rings_(std::move(rings)), epoch_(epoch) {
    PEM_CHECK(rings_.size() ==
                  static_cast<size_t>(num_agents) * static_cast<size_t>(num_agents),
              "shm ring grid: size mismatch");
  }

  void Write(const Message& msg) override {
    // The canonical frame is written ONCE into ring(self -> recipient)
    // and consumed there in place.  A broadcast fans out into n-1
    // per-recipient copies with `to` rewritten, in recipient order —
    // byte-identical to what the relay routers put on their wires.
    if (msg.to == kBroadcast) {
      for (AgentId to = 0; to < n_; ++to) {
        if (to == self_) continue;
        Message copy = msg;
        copy.to = to;
        WriteRecord(copy);
      }
    } else {
      PEM_CHECK(msg.to >= 0 && msg.to < n_, "shm ring grid: bad receiver id");
      WriteRecord(msg);
    }
  }

  Message Next(AgentId src) override {
    size_t record_bytes = 0;
    Message m = Front(src, record_bytes);
    Ring(src, self_).Consume(record_bytes);
    return m;
  }

  Message Peek(AgentId src) override {
    size_t record_bytes = 0;
    return Front(src, record_bytes);
  }

  void VerifyDrained() override {
    for (AgentId src = 0; src < n_; ++src) {
      if (src == self_ || Ring(src, self_).ReadableBytes() == 0) continue;
      ThrowBadRecord(src, "was never consumed — rings and deterministic "
                          "script diverged");
    }
  }

 private:
  // Blocks for the front record of ring(src -> self), checks it and
  // decodes its frame, leaving it in the ring; `record_bytes` is what
  // consuming it takes.
  Message Front(AgentId src, size_t& record_bytes) {
    SpscRing& ring = Ring(src, self_);
    while (ring.ReadableBytes() < kShmRecordHeaderBytes) {
      ring.WaitReadable(kDoorbellTickMs);
    }
    uint8_t rh[kShmRecordHeaderBytes];
    ring.Peek(0, rh, sizeof rh);
    const uint32_t frame_len = LoadU32(rh);
    if (!SaneRecordLength(frame_len, ring.ReadableBytes())) {
      ThrowBadRecord(src, "has an insane length");
    }
    scratch_.resize(frame_len);
    ring.Peek(kShmRecordHeaderBytes, scratch_.data(), frame_len);
    FrameDecodeResult d = DecodeFrame(std::span<const uint8_t>(scratch_));
    if (d.status != FrameDecodeStatus::kFrame || d.consumed != frame_len) {
      ThrowBadRecord(src, "fails frame decode");
    }
    if (d.frame.from != src || d.frame.to != self_) {
      ThrowBadRecord(src, "names pair " + std::to_string(d.frame.from) +
                              "->" + std::to_string(d.frame.to));
    }
    record_bytes = kShmRecordHeaderBytes + frame_len;
    return std::move(d.frame);
  }

  SpscRing& Ring(AgentId from, AgentId to) {
    return rings_[static_cast<size_t>(from) * static_cast<size_t>(n_) +
                  static_cast<size_t>(to)];
  }

  [[noreturn]] void ThrowBadRecord(AgentId src, const std::string& what) {
    throw TransportError(TransportFault{
        src, ErrorCode::kProtocolViolation,
        "shm ring grid: agent " + std::to_string(self_) +
            " read a ring record from sender " + std::to_string(src) +
            " that " + what});
  }

  void WriteRecord(const Message& copy) {
    const uint32_t payload_len = static_cast<uint32_t>(copy.payload.size());
    const uint32_t frame_len = static_cast<uint32_t>(FramedSize(copy));
    // Ring record header + frame header in one stack buffer; the
    // payload is appended from its own storage — one copy total, into
    // memory the receiver reads in place.
    uint8_t hdr[kShmRecordHeaderBytes + kFrameHeaderBytes];
    StoreU32(hdr, frame_len);
    StoreU32(hdr + 4, 0);  // reserved
    StoreU64(hdr + 8, seq_);
    StoreU32(hdr + 16, payload_len);
    StoreU32(hdr + 20, static_cast<uint32_t>(copy.from));
    StoreU32(hdr + 24, static_cast<uint32_t>(copy.to));
    StoreU32(hdr + 28, copy.type);
    StoreU32(hdr + 32,
             FrameHeaderChecksum(payload_len, copy.from, copy.to, copy.type));
    ++seq_;
    SpscRing& ring = Ring(self_, copy.to);
    const size_t total = sizeof hdr + copy.payload.size();
    // Block (bounded ticks, never a spin) while the ring is full: the
    // reader or the parent snooper trailing this much means backpressure
    // is doing its job.  A dead receiver resolves through the parent's
    // watchdog + teardown SIGKILL, never through this loop.
    while (!ring.TryAppend(std::span<const uint8_t>(hdr, sizeof hdr),
                           std::span<const uint8_t>(copy.payload))) {
      ring.WaitWritable(total, kDoorbellTickMs);
    }
    epoch_->fetch_add(1, std::memory_order_release);
    FutexWake(epoch_);
  }

  int n_;
  AgentId self_;
  std::vector<SpscRing> rings_;
  std::atomic<uint32_t>* epoch_;
  uint64_t seq_ = 0;  // this sender's global send counter, all rings
  std::vector<uint8_t> scratch_;
};

}  // namespace

// --- ShmTransport -----------------------------------------------------

ShmTransport::ShmTransport(int num_agents, ChildMain child_main, Options opts)
    : AgentSupervisor(num_agents,
                      AgentSupervisor::Options{opts.watchdog_ms}),
      shm_opts_(opts) {
  PEM_CHECK(opts.ring_bytes >= 4096 &&
                (opts.ring_bytes & (opts.ring_bytes - 1)) == 0,
            "ShmTransport: ring_bytes must be a power of two >= 4096");
  const size_t n = static_cast<size_t>(num_agents);

  // Map the whole grid before forking, so every child inherits the
  // SAME pages at the same address and ring handles stay valid across
  // the fork.
  const size_t ring_region = SpscRing::RegionBytes(opts.ring_bytes);
  region_bytes_ = kGlobalHeaderBytes + n * n * ring_region;
  region_ = mmap(nullptr, region_bytes_, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  PEM_CHECK(region_ != MAP_FAILED, "ShmTransport: mmap failed");
  epoch_ = new (region_) std::atomic<uint32_t>(0);
  uint8_t* base = static_cast<uint8_t*>(region_) + kGlobalHeaderBytes;
  rings_.reserve(n * n);
  for (size_t i = 0; i < n * n; ++i) {
    rings_.push_back(SpscRing::Init(base + i * ring_region, opts.ring_bytes));
  }
  next_seq_.assign(n, 0);
  reorder_.resize(n);
  convicted_.assign(n * n, false);

  Launch(child_main, /*routed=*/false, [this, num_agents](AgentId self, int) {
    return std::make_unique<RingGrid>(num_agents, self, rings_, epoch_);
  });

  // No relay router: frames never cross the parent.  The snooper tails
  // every ring through its snoop cursor and feeds the shared
  // accounting path instead.
  snooper_ = std::thread([this] { SnooperLoop(); });
}

ShmTransport::~ShmTransport() {
  // Order matters: children write the region and the snooper reads it,
  // so both must be gone before munmap — and the base destructor runs
  // only after our members are destroyed, too late.
  KillAndReapAll();
  StopSnooper();
  if (region_ != nullptr) {
    munmap(region_, region_bytes_);
    region_ = nullptr;
  }
}

void ShmTransport::StopSnooper() {
  if (!snooper_.joinable()) return;
  snoop_stop_.store(true, std::memory_order_release);
  FutexWake(epoch_);
  snooper_.join();
}

void ShmTransport::SnooperLoop() {
  const int n = num_agents();
  for (;;) {
    const uint32_t epoch_seen = epoch_->load(std::memory_order_acquire);
    bool progress = false;
    for (AgentId from = 0; from < n; ++from) {
      for (AgentId to = 0; to < n; ++to) {
        const size_t r = static_cast<size_t>(from) * static_cast<size_t>(n) +
                         static_cast<size_t>(to);
        SpscRing& ring = rings_[r];
        if (convicted_[r]) {
          // A ring that lied about a record length has no boundaries left
          // to trust: it drains unread and unaccounted, as the router
          // closes a convicted wire, so SyncLedger still terminates.
          if (const size_t left = ring.SnoopReadableBytes()) {
            ring.SnoopConsume(left);
          }
          continue;
        }
        while (ring.SnoopReadableBytes() >= kShmRecordHeaderBytes) {
          progress = true;
          uint8_t rh[kShmRecordHeaderBytes];
          ring.SnoopPeek(0, rh, sizeof rh);
          const uint32_t frame_len = LoadU32(rh);
          const uint64_t seq = LoadU64(rh + 8);
          if (!SaneRecordLength(frame_len, ring.SnoopReadableBytes())) {
            RecordFault(from, "forged ring record: header claims a " +
                                  std::to_string(frame_len) +
                                  "-byte frame the ring does not hold");
            convicted_[r] = true;
            break;
          }
          snoop_scratch_.resize(frame_len);
          ring.SnoopPeek(kShmRecordHeaderBytes, snoop_scratch_.data(),
                         frame_len);
          FrameDecodeResult d =
              DecodeFrame(std::span<const uint8_t>(snoop_scratch_));
          // A record that decodes wrong is adversarial, not a torn
          // read (publication is a single release store of tail, and
          // honest writers only publish whole canonical frames), so it
          // latches a structured fault naming the ring's sender and is
          // consumed WITHOUT being accounted: the ledger holds only
          // honest traffic, SyncLedger still terminates, and the
          // surviving rings keep flowing.
          if (d.status != FrameDecodeStatus::kFrame ||
              d.consumed != frame_len) {
            RecordFault(from,
                        "forged ring record: frame fails checksum/decode");
            ring.SnoopConsume(kShmRecordHeaderBytes + frame_len);
            continue;
          }
          if (d.frame.from != from || d.frame.to != to) {
            RecordFault(from, "forged ring record: frame names pair " +
                                  std::to_string(d.frame.from) + "->" +
                                  std::to_string(d.frame.to) +
                                  " but sits in ring " +
                                  std::to_string(from) + "->" +
                                  std::to_string(to));
            ring.SnoopConsume(kShmRecordHeaderBytes + frame_len);
            continue;
          }
          // Merge this sender's records back into exact send order
          // before accounting, so the observer sees the same
          // per-sender transcript order every other backend delivers.
          // The account happens BEFORE SnoopConsume: once every ring
          // shows snoop == tail, the ledger is provably complete
          // (SyncLedger relies on exactly this ordering).
          const size_t s = static_cast<size_t>(from);
          if (seq == next_seq_[s]) {
            AccountDeliveredCopy(d.frame);
            ++next_seq_[s];
            auto& stash = reorder_[s];
            for (auto it = stash.begin();
                 it != stash.end() && it->first == next_seq_[s];
                 it = stash.erase(it)) {
              AccountDeliveredCopy(it->second);
              ++next_seq_[s];
            }
          } else if (seq < next_seq_[s] ||
                     reorder_[s].count(seq) != 0) {
            // An honest sender's sequence counter is strictly
            // monotone, so a sequence number the merge has already
            // passed — or one already parked in the stash — can only
            // be a replayed record.
            RecordFault(from, "replayed ring record: sender sequence " +
                                  std::to_string(seq) +
                                  " repeats an already-published frame");
            ring.SnoopConsume(kShmRecordHeaderBytes + frame_len);
            continue;
          } else {
            reorder_[s].emplace(seq, std::move(d.frame));
          }
          ring.SnoopConsume(kShmRecordHeaderBytes + frame_len);
        }
        // Records are published whole, so bytes short of a record
        // header can only be forged: they convict the ring at once
        // rather than leave its snoop cursor short of the tail.
        if (const size_t left = ring.SnoopReadableBytes();
            !convicted_[r] && left > 0 && left < kShmRecordHeaderBytes) {
          RecordFault(from, "forged ring record: the ring holds " +
                                std::to_string(left) +
                                " bytes, short of a record header");
          convicted_[r] = true;
          progress = true;
        }
      }
    }
    if (progress) continue;
    if (snoop_stop_.load(std::memory_order_acquire)) return;
    FutexWait(epoch_, epoch_seen, kDoorbellTickMs);
  }
}

void ShmTransport::InjectRingRecordForTest(AgentId from, AgentId to,
                                           uint64_t seq, const Message& msg,
                                           RecordForgery forgery) {
  const size_t n = static_cast<size_t>(num_agents());
  PEM_CHECK(from >= 0 && static_cast<size_t>(from) < n && to >= 0 &&
                static_cast<size_t>(to) < n && from != to,
            "shm inject: agent pair out of range");
  std::vector<uint8_t> frame = EncodeFrame(msg);
  uint32_t frame_len = static_cast<uint32_t>(frame.size());
  if (forgery == RecordForgery::kCorruptFrame) {
    // Flip a bit in the stored checksum (frame byte 16): the record
    // layout stays intact, only the frame fails decode.
    frame[16] ^= 0x01;
  } else if (forgery == RecordForgery::kLyingLength) {
    frame_len += 4096;  // claims bytes that are never published
  }
  uint8_t rh[kShmRecordHeaderBytes];
  StoreU32(rh, frame_len);
  StoreU32(rh + 4, 0);  // reserved
  StoreU64(rh + 8, seq);
  SpscRing& ring = rings_[static_cast<size_t>(from) * n +
                          static_cast<size_t>(to)];
  // A short header publishes the record header's first 8 bytes and
  // nothing after them.
  const bool short_header = forgery == RecordForgery::kShortHeader;
  PEM_CHECK(ring.TryAppend(
                std::span<const uint8_t>(rh, short_header ? 8 : sizeof rh),
                short_header ? std::span<const uint8_t>()
                             : std::span<const uint8_t>(frame)),
            "shm inject: ring full");
  epoch_->fetch_add(1, std::memory_order_release);
  FutexWake(epoch_);
}

void ShmTransport::SyncLedger() {
  // All children have reported, so every tail is final; wait for the
  // snooper to chase them.  Accounting precedes SnoopConsume in the
  // snooper, so snoop == tail everywhere implies the ledger holds
  // every published record (a record parked in the reorder stash
  // keeps its missing predecessor's ring short of its tail).
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(shm_opts_.watchdog_ms);
  for (;;) {
    bool synced = true;
    for (const SpscRing& ring : rings_) {
      if (ring.snoop() != ring.tail()) {
        synced = false;
        break;
      }
    }
    if (synced) return;
    PEM_CHECK(std::chrono::steady_clock::now() < deadline,
              "shm transport: snooper failed to drain the rings within "
              "the watchdog");
    usleep(500);
  }
}

}  // namespace pem::net
