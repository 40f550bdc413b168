// Shared pieces of the dataplane benchmark: clock, quantiles, reservoirs,
// span tracing, the frame pool with its independent output model, and the
// output checker.  Everything here is the benchmark's own code; it calls
// into the library only through public headers.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "packet/packet.hpp"

namespace dpbench {

using menshen::u16;
using menshen::u32;
using menshen::u64;
using menshen::u8;

inline u64 NowNs() {
  using std::chrono::steady_clock;
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              steady_clock::now().time_since_epoch())
                              .count());
}

// --- Quantiles ---------------------------------------------------------------

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty input.
double Median(std::vector<double> v);

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it (q in (0, 1]); 0 for an empty input.
double Percentile(std::vector<double> v, double q);

/// Uniform reservoir sample of fixed capacity.  Storage is allocated and
/// touched up front, so the process's resident set does not grow with the
/// number of samples offered (peak_rss_mb must not move with throughput).
class Reservoir {
 public:
  Reservoir(std::size_t capacity, u64 seed)
      : buf_(capacity, 0.0), rng_(seed) {}
  void Add(double x) {
    if (seen_ < buf_.size()) {
      buf_[seen_] = x;
    } else {
      const u64 j = rng_.Below(seen_ + 1);
      if (j < buf_.size()) buf_[j] = x;
    }
    ++seen_;
  }
  [[nodiscard]] std::vector<double> Samples() const {
    return {buf_.begin(),
            buf_.begin() + static_cast<std::ptrdiff_t>(
                               std::min<u64>(seen_, buf_.size()))};
  }
  [[nodiscard]] u64 seen() const { return seen_; }

 private:
  std::vector<double> buf_;
  u64 seen_ = 0;
  menshen::Rng rng_;
};

/// Per-thread measurement windows: the measured interval is cut into equal
/// windows; each end-to-end rate is computed per window and the median
/// across windows is reported, so a single transient on a shared host
/// moves one window, not the result.  (Latency percentiles are taken over
/// the whole interval's samples, so they keep every tail event.)
struct WindowStats {
  explicit WindowStats(std::size_t windows)
      : pkts(windows, 0), bytes(windows, 0) {}
  std::vector<u64> pkts;   // packets delivered and checked correct
  std::vector<u64> bytes;  // their L2 bytes
};

// --- Spans -------------------------------------------------------------------

enum SpanName : u16 {
  kSpanIter,          // one traffic-loop iteration or update (parent)
  kSpanFill,          // PacketArena::AllocateBurst + ArenaPacket::Assign
  kSpanSubmitStream,  // Dataplane::SubmitStream
  kSpanPollEgress,    // Dataplane::PollEgress
  kSpanRelease,       // ReleaseToOwners
  kSpanCheck,         // the benchmark's own output checks
  kSpanSubmit,        // Dataplane::Submit
  kSpanTicketWait,    // future::get on a ticket
  kSpanParse,         // ParseModuleDsl
  kSpanCompile,       // Compile + AddEntry + AllWrites
  kSpanStageWrites,   // Dataplane::StageWrites
  kSpanCommit,        // Dataplane::CommitEpoch
  kSpanPipeStream,    // standalone Pipeline::ProcessStreamBurst replay
  kSpanPipeBatch,     // standalone Pipeline::ProcessBatchInto replay
  kSpanCount
};

const char* SpanNameStr(u16 name);

struct Span {
  u64 start_ns = 0;
  u64 end_ns = 0;
  u32 id = 0;
  u32 parent = 0;  // 0 = root
  u32 op = 0;      // burst / ticket / reconfiguration id
  u16 name = 0;
  u16 thread = 0;
};

struct SpanAgg {
  u64 ns = 0;
  u64 calls = 0;
  u64 items = 0;  // packets (or writes) the spanned calls handled
};

/// One thread's span log.  Disabled logs cost one branch per call site.
/// Every span feeds the per-name aggregates the per-layer metrics are
/// reduced from; the first `keep` spans are also kept verbatim and
/// written out when the run ends.
class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(bool on, u16 thread, std::size_t keep) : on_(on), thread_(thread) {
    if (on_) kept_.reserve(keep);
    keep_ = keep;
  }
  [[nodiscard]] u64 Start() const { return on_ ? NowNs() : 0; }
  [[nodiscard]] u32 NewId() { return on_ ? ++next_id_ : 0; }
  void Record(u16 name, u32 id, u32 parent, u32 op, u64 t0, u64 items) {
    if (!on_) return;
    const u64 t1 = NowNs();
    SpanAgg& a = agg_[name];
    a.ns += t1 - t0;
    a.calls += 1;
    a.items += items;
    if (kept_.size() < keep_)
      kept_.push_back(Span{t0, t1, id != 0 ? id : ++next_id_, parent, op, name,
                           thread_});
    else
      ++dropped_;
  }
  [[nodiscard]] const std::array<SpanAgg, kSpanCount>& agg() const {
    return agg_;
  }
  [[nodiscard]] const std::vector<Span>& kept() const { return kept_; }
  [[nodiscard]] u64 dropped() const { return dropped_; }

 private:
  bool on_ = false;
  u16 thread_ = 0;
  std::size_t keep_ = 0;
  u32 next_id_ = 0;
  std::array<SpanAgg, kSpanCount> agg_{};
  std::vector<Span> kept_;
  u64 dropped_ = 0;
};

// --- Frames, tags and the independent output model ---------------------------

// Tag bytes the benchmark writes into every frame.  No tenant program
// reads or writes them: the Ethernet source MAC carries the burst slot and
// the frame-pool index, and payload bytes 60..63 carry the per-tenant FIFO
// sequence number.
inline constexpr std::size_t kTagSlot = 6;    // 2 bytes
inline constexpr std::size_t kTagIndex = 8;   // 3 bytes
inline constexpr std::size_t kTagEnd = 12;    // end of the MAC tag region
inline constexpr std::size_t kTagSeq = 60;    // 4 bytes
inline constexpr std::size_t kMinFrame = 64;

inline u32 GetBe(const u8* p, std::size_t n) {
  u32 v = 0;
  for (std::size_t i = 0; i < n; ++i) v = (v << 8) | p[i];
  return v;
}
inline void PutBe(u8* p, std::size_t n, u32 v) {
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<u8>(v >> (8 * (n - 1 - i)));
}

enum class App : u8 { kCalc, kQos, kRouter, kChain };

/// The benchmark's own copy of one tenant's installed table: what the
/// pipeline must do to a frame, computed without the library.
struct TenantModel {
  u16 vid = 0;
  App app = App::kCalc;
  // CALC: op -> 1 add, 2 sub, 3 echo (0 = no entry); result via calc_port.
  std::array<u8, 4> calc_kind{};
  u16 calc_port = 0;
  // QoS: destination port -> {tos, out_port}.
  std::map<u16, std::pair<u8, u16>> qos;
  // Router: tag -> out port, or -1 for the drop entry.
  std::map<u16, int> routes;
  // NetChain: sequencer op and its out port.
  u16 chain_op = 0;
  u16 chain_port = 0;
};

struct Outcome {
  bool deliver = true;
  u16 port = 0;
};

/// Applies `m` to `f` in place and returns the expected disposition.  A
/// table miss runs no action: the frame leaves unchanged on port 0.
/// NetChain's sequence field is stateful and left to the checker.
Outcome ApplyModel(const TenantModel& m, u8* f, std::size_t len);

/// One pool frame: its input bytes, and the expected output under each of
/// up to two module versions (identical unless the tenant is the one being
/// reconfigured).
struct PoolFrame {
  u32 in_off = 0;
  u32 out_off[2] = {0, 0};
  u16 len = 0;
  u16 vid = 0;
  u16 port[2] = {0, 0};
  bool deliver[2] = {true, true};
  bool versioned = false;
  bool chain = false;
};

struct FramePool {
  std::vector<u8> bytes;
  std::vector<PoolFrame> frames;

  /// Adds `input` (tags zeroed) with its expected outputs under `v0` and,
  /// when given, `v1`.
  /// Reserves room for `frames` frames of at most `max_len` bytes, so the
  /// pool never reallocates while it is built (its peak memory is then its
  /// size, whatever the seed's frame-size mix).
  void Reserve(std::size_t frames, std::size_t max_len) {
    bytes.reserve(frames * 3 * max_len);
    this->frames.reserve(frames);
  }
  void Add(std::vector<u8> input, const TenantModel& v0,
           const TenantModel* v1 = nullptr);
  [[nodiscard]] const u8* In(const PoolFrame& f) const {
    return bytes.data() + f.in_off;
  }
  [[nodiscard]] const u8* Out(const PoolFrame& f, int v) const {
    return bytes.data() + f.out_off[v];
  }
  [[nodiscard]] u8* MutableOut(const PoolFrame& f, int v) {
    return bytes.data() + f.out_off[v];
  }
};

/// Builds a VLAN-tagged IPv4/UDP frame with varied flow fields.  The L4
/// destination port is `dport`, never the reserved reconfiguration port.
std::vector<u8> MakeFrame(u16 vid, std::size_t len, u16 dport,
                          menshen::Rng& rng);

/// Checks delivered frames against the pool's expected outputs and the
/// ordering properties.  One thread sends and checks.
class Checker {
 public:
  explicit Checker(const FramePool& pool) : pool_(pool) { chain_next_.fill(1); }

  /// The seq tag the next frame for `vid` carries (sender side; counts only
  /// frames the model delivers).
  u32 NextTxSeq(u16 vid) { return tx_seq_[vid % kVids]++; }

  /// Epoch -> module-version mapping for the reconfigured tenant:
  /// version(e) = (e - base) & 1.
  void SetVersioning(u64 base_epoch) { version_base_ = base_epoch; }

  /// Checks one delivered frame.  [epoch_lo, epoch_hi] bounds the
  /// configuration epoch the frame can have been processed under (only
  /// used for versioned frames).  Returns true when every check passes.
  bool Check(const u8* data, std::size_t len, u16 port, bool forwarded,
             u64 epoch_lo = 0, u64 epoch_hi = 0);

  [[nodiscard]] const std::string& first_failure() const { return first_; }

 private:
  static constexpr std::size_t kVids = 32;
  bool Fail(const char* what, u32 idx);

  const FramePool& pool_;
  std::array<u32, kVids> tx_seq_{};
  std::array<u32, kVids> rx_seq_{};
  std::array<u32, kVids> chain_next_{};
  std::array<u64, kVids> version_floor_{};
  u64 version_base_ = 0;
  u64 failures_ = 0;
  std::string first_;
};

/// The pool frame a delivered frame's tag names, or nullptr.
const PoolFrame* TaggedFrame(const FramePool& pool, const u8* data,
                             std::size_t len);

}  // namespace dpbench
