// Dataplane benchmark: four workloads driven through the public API of
// Dataplane, PacketArena, Pipeline and the compiler, every output checked
// against the benchmark's own model of the installed tables.
//
//   dpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--spans-dir <dir>]
//   dpbench --selftest
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1).  The line before it is the run's self-description
// record.  See README.md for the workloads and metrics.
#include <atomic>
#include <cinttypes>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "apps/apps.hpp"
#include "bench.hpp"
#include "compiler/compiler.hpp"
#include "dataplane/dataplane.hpp"
#include "packet/arena.hpp"

namespace dpbench {
namespace {

using menshen::ArenaPacket;
using menshen::CompiledModule;
using menshen::ConfigWrite;
using menshen::Dataplane;
using menshen::DataplaneConfig;
using menshen::Disposition;
using menshen::FilterVerdict;
using menshen::FlowCacheBlocker;
using menshen::ModuleAllocation;
using menshen::ModuleId;
using menshen::Packet;
using menshen::PacketArena;
using menshen::PipelineResult;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "dpbench: %s\n", msg.c_str());
  std::exit(2);
}

// --- Options -----------------------------------------------------------------

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir = ".";
  bool selftest = false;
};

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed")
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds")
      o.seconds = std::strtod(value().c_str(), nullptr);
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--spans-dir") o.spans_dir = value();
    else if (a == "--selftest") o.selftest = true;
    else Die("unknown argument " + a);
  }
  if (!o.selftest && o.workload.empty()) Die("--workload is required");
  if (!(o.seconds > 0) || o.seconds > 600) Die("--seconds must be in (0, 600]");
  return o;
}

// --- Host facts --------------------------------------------------------------

std::string ProcStatusField(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::string k = std::string(key) + ":";
  while (std::getline(f, line))
    if (line.rfind(k, 0) == 0) return line.substr(k.size());
  return "";
}

double PeakRssMiB() {
  return std::strtod(ProcStatusField("VmHWM").c_str(), nullptr) / 1024.0;
}

int ThreadCount() {
  return std::atoi(ProcStatusField("Threads").c_str());
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

// --- Tenants: install into the dataplane, mirror into the model --------------

/// Every configuration write the benchmark sent to the dataplane, in order:
/// the standalone replay pipeline is configured from this log.
struct Installer {
  Dataplane* dp = nullptr;
  std::vector<ConfigWrite> log;

  void Apply(const CompiledModule& m) {
    if (!m.ok()) Die("module failed to compile: " + m.diags().ToString());
    const std::vector<ConfigWrite> w = m.AllWrites();
    dp->ApplyWrites(w);
    log.insert(log.end(), w.begin(), w.end());
  }
};

ModuleAllocation Slot(u16 vid, u8 stage, std::size_t slot,
                      std::size_t cam_count = 4, u8 seg_off = 0,
                      u8 seg_range = 0) {
  return menshen::UniformAllocation(
      ModuleId(vid), stage,
      static_cast<u8>(menshen::params::kNumStages - stage), slot * 4,
      cam_count, seg_off, seg_range);
}

/// CALC with entries for `ops` (1 add, 2 sub, 3 echo).
TenantModel CalcModel(u16 vid, u16 port, std::initializer_list<u8> ops) {
  TenantModel t;
  t.vid = vid;
  t.app = App::kCalc;
  t.calc_port = port;
  for (const u8 op : ops) t.calc_kind[op] = op;
  return t;
}

CompiledModule CompileCalc(const menshen::ModuleSpec& spec,
                           const ModuleAllocation& alloc,
                           const TenantModel& t) {
  static constexpr const char* kActions[] = {"", "do_add", "do_sub", "do_echo"};
  CompiledModule m = menshen::Compile(spec, alloc);
  for (u16 op = 1; op <= 3; ++op)
    if (t.calc_kind[op] != 0)
      m.AddEntry("calc_tbl", {{"op", op}}, std::nullopt, kActions[op],
                 {t.calc_port});
  return m;
}

TenantModel InstallCalc(Installer& in, u16 vid, u8 stage, std::size_t slot,
                        std::initializer_list<u8> ops = {1, 2, 3}) {
  const TenantModel t = CalcModel(vid, static_cast<u16>(10 + vid), ops);
  in.Apply(CompileCalc(menshen::apps::CalcSpec(), Slot(vid, stage, slot), t));
  return t;
}

TenantModel InstallChain(Installer& in, u16 vid, u8 stage, std::size_t slot,
                         u8 seg_off) {
  TenantModel t;
  t.vid = vid;
  t.app = App::kChain;
  t.chain_op = menshen::apps::kNetChainOpSeq;
  t.chain_port = static_cast<u16>(10 + vid);
  CompiledModule m = menshen::Compile(menshen::apps::NetChainSpec(),
                                      Slot(vid, stage, slot, 4, seg_off, 8));
  menshen::apps::InstallNetChainEntries(m, t.chain_port);
  in.Apply(m);
  return t;
}

constexpr const char* kRouterDsl = R"(
module router {
  field tag : 2 @ 46;
  action fwd(p) { port(p); }
  action sink { drop(); }
  table routes { key = { tag }; actions = { fwd, sink }; size = 8; }
}
)";

// --- Reconfiguration: one operator update of one module ----------------------

struct UpdateTarget {
  u16 vid = 0;
  ModuleAllocation alloc;
  TenantModel version[2];  // v0: add only; v1: add and sub
};

UpdateTarget MakeUpdateTarget(u16 vid, u8 stage, std::size_t slot) {
  UpdateTarget u;
  u.vid = vid;
  u.alloc = Slot(vid, stage, slot);
  u.version[0] = CalcModel(vid, static_cast<u16>(10 + vid), {1});
  u.version[1] = CalcModel(vid, static_cast<u16>(10 + vid), {1, 2});
  return u;
}

struct UpdateLog {
  std::vector<double> total_us;
  u64 attempted = 0;
  u64 failed = 0;
};

/// DSL parse, Compile, entries, StageWrites and CommitEpoch — the time an
/// operator waits to update one module.
void UpdateModule(Dataplane& dp, const UpdateTarget& u, int version,
                 SpanLog& spans, UpdateLog& log,
                 std::vector<ConfigWrite>* last_image) {
  const u32 op = static_cast<u32>(log.attempted);
  const u32 it = spans.NewId();
  const u64 t0 = NowNs();
  u64 t = spans.Start();
  menshen::Diagnostics diags;
  const menshen::ModuleSpec spec =
      menshen::ParseModuleDsl(menshen::apps::CalcDsl(), diags);
  spans.Record(kSpanParse, 0, it, op, t, 1);
  t = spans.Start();
  const CompiledModule m = CompileCalc(spec, u.alloc, u.version[version]);
  const std::vector<ConfigWrite> writes = m.AllWrites();
  spans.Record(kSpanCompile, 0, it, op, t, writes.size());
  const u64 before = dp.epoch();
  t = spans.Start();
  dp.StageWrites(writes);
  spans.Record(kSpanStageWrites, 0, it, op, t, writes.size());
  t = spans.Start();
  const u64 e = dp.CommitEpoch();
  spans.Record(kSpanCommit, 0, it, op, t, 1);
  const u64 t1 = NowNs();
  spans.Record(kSpanIter, it, 0, op, t0, 0);
  log.total_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  ++log.attempted;
  if (!diags.ok() || !m.ok() || e != before + 1) ++log.failed;
  *last_image = writes;
}

// --- Traffic parameters (README.md says why each workload has them) ----------

constexpr std::size_t kKernelBurst = 128;
constexpr std::size_t kKernelCredit = 1024;  // arena buffers in flight
constexpr std::size_t kStreamBurst = 32;
constexpr std::size_t kStreamCredit = 256;
constexpr std::size_t kOpenLoopCredit = 4096;
constexpr std::size_t kTicketPackets = 256;
constexpr std::size_t kMaxBurst = 256;
static_assert(kKernelBurst <= kMaxBurst && kStreamBurst <= kMaxBurst &&
              kTicketPackets <= kMaxBurst);
constexpr double kOpenLoopMpps = 1.0;
constexpr u64 kUpdatePeriodNs = 5'000'000;  // one module update per 5 ms
constexpr std::size_t kIdleUpdates = 400;
constexpr u64 kIdleUpdateGapUs = 5000;  // spreads them over 2 s
constexpr std::size_t kProbeRounds = 64;  // cross-path probe bursts or tickets
constexpr double kWindowSeconds = 0.1;
constexpr std::size_t kLatencySamples = 1 << 18;  // run-wide latency reservoir
constexpr std::size_t kPoolFrames = 8192;
constexpr std::size_t kZipfPopulation = 1024;  // keys per cached tenant
constexpr double kZipfS = 0.9;
constexpr std::size_t kBurstSlots = 4096;
constexpr std::size_t kRecordFrames = 16384;  // frames kept for the replay

// --- Run state ---------------------------------------------------------------

struct Counts {
  u64 packets = 0, tickets = 0, reconfigs = 0;
  u64 failed = 0;
  std::string first_failure;
  void Fail(u64 n, const std::string& why) {
    failed += n;
    if (first_failure.empty() && n != 0) first_failure = why;
  }
};

struct Clock {
  u64 t0 = 0;
  u64 t_end = 0;  // 0: untimed, no window is ever live
  u64 window_ns = 1;
  std::size_t windows = 1;
  /// Window index of `t`, or -1 outside the measured interval.
  [[nodiscard]] long Window(u64 t) const {
    if (t < t0 || t >= t_end) return -1;
    return static_cast<long>(std::min<u64>((t - t0) / window_ns, windows - 1));
  }
  void Start(double seconds, u64 at) {
    t0 = at;
    window_ns = static_cast<u64>(seconds * 1e9 / static_cast<double>(windows));
    t_end = t0 + window_ns * windows;
  }
};

/// The traffic loop's measurements.  Only a timed phase takes latency
/// samples, so only it needs a reservoir (`lat_samples`).
struct Meter {
  Meter(const Clock& clk, bool trace, u16 thread, u64 seed,
        std::size_t lat_samples = 0)
      : win(clk.windows),
        lat_us(lat_samples, seed),
        spans(trace, thread, 1 << 16) {}
  WindowStats win;
  Reservoir lat_us;  // uniform sample of the measured interval's latencies
  SpanLog spans;
  u64 expected_delivered = 0;  // frames sent that the model delivers
  u64 expected_dropped = 0;
  u64 delivered = 0;  // frames that came back (checked, right or wrong)
  u64 check_failed = 0;
  u64 tickets = 0;
  // Correct deliveries from the start of the measured interval to the
  // last one, drain included (the open loop's rate).
  u64 ok_pkts = 0, ok_bytes = 0, last_ok_ns = 0;
  std::vector<ArenaPacket*> egress;

  /// Credits correct deliveries made at `t`.
  void Credit(const Clock& clk, u64 t, u64 pkts, u64 bytes) {
    if (clk.t_end == 0 || t < clk.t0) return;
    ok_pkts += pkts;
    ok_bytes += bytes;
    last_ok_ns = std::max(last_ok_ns, t);
    const long w = clk.Window(t);
    if (w >= 0) {
      win.pkts[w] += pkts;
      win.bytes[w] += bytes;
    }
  }
};

struct BurstRec {
  u64 t_start = 0;    // SubmitStream call (closed loop) or due time (open)
  u32 remaining = 0;  // expected deliveries not yet polled
  u64 epoch_lo = 0, epoch_hi = 0;
};

/// Everything one workload instance owns.  Built (and timed) by Setup.
struct Instance {
  std::unique_ptr<Dataplane> dp;
  Installer installer;
  FramePool pool;
  std::unique_ptr<Checker> checker;
  std::size_t burst = kStreamBurst;  // packets per burst or ticket
  std::unique_ptr<PacketArena> arena;
  std::vector<BurstRec> bursts = std::vector<BurstRec>(kBurstSlots);
  std::size_t cursor = 0;  // next pool frame
  u32 slot = 0;            // next burst slot
  bool versioned = false;
  u64 version_base = 0;  // epoch at which the updated module is version 0
  UpdateTarget update;   // the module the operator updates
  std::vector<ConfigWrite> last_update;  // its latest image, for the replay
  std::vector<u16> flow_cacheable, kernel_only;  // set-up assertions
  bool record = false;        // keep the pool indices sent, for the replay
  std::vector<u32> recorded;
};

void InitTraffic(Instance& in, std::size_t burst, std::size_t credit) {
  in.burst = burst;
  in.arena = std::make_unique<PacketArena>(credit);
  in.checker = std::make_unique<Checker>(in.pool);
}

/// The next pool frame to send (the pool is cycled in order).
u32 NextFrame(Instance& in) {
  const u32 idx = static_cast<u32>(in.cursor);
  in.cursor = (in.cursor + 1) % in.pool.frames.size();
  if (in.record && in.recorded.size() < kRecordFrames)
    in.recorded.push_back(idx);
  return idx;
}

/// Writes the tags into `d`, a copy of pool frame `idx` about to be sent:
/// burst slot, pool index, and the FIFO sequence number for frames the
/// model delivers.  Returns whether the model delivers the frame.
bool TagFrame(Instance& in, u32 slot, u32 idx, u8* d) {
  const PoolFrame& f = in.pool.frames[idx];
  PutBe(d + kTagSlot, 2, slot);
  PutBe(d + kTagIndex, 3, idx);
  if (!f.deliver[0]) return false;
  PutBe(d + kTagSeq, 4, in.checker->NextTxSeq(f.vid));
  return true;
}

// --- Streaming traffic -------------------------------------------------------

/// Drains egress, checks every frame, samples burst latency and recycles
/// the buffers.  Returns whether any frame was drained.
bool Consume(Instance& in, Meter& m, const Clock& clk) {
  SpanLog& sp = m.spans;
  const u32 it = sp.NewId();
  const u64 ti = sp.Start();
  m.egress.clear();
  u64 t = sp.Start();
  const std::size_t n = in.dp->PollEgress(m.egress);
  sp.Record(kSpanPollEgress, 0, it, 0, t, n);
  if (n == 0) return false;
  const u64 t_ret = NowNs();
  const bool in_interval = clk.Window(t_ret) >= 0;
  t = sp.Start();
  for (ArenaPacket* pkt : m.egress) {
    const u8* d = pkt->data();
    BurstRec* rec = pkt->size() >= kMinFrame
                        ? &in.bursts[GetBe(d + kTagSlot, 2) % kBurstSlots]
                        : nullptr;
    const bool fwd =
        pkt->verdict == 0 && pkt->disposition == Disposition::kForward;
    ++m.delivered;
    if (in.checker->Check(d, pkt->size(), pkt->egress_port, fwd,
                          rec ? rec->epoch_lo : 0, rec ? rec->epoch_hi : 0))
      m.Credit(clk, t_ret, 1, pkt->size());
    else
      ++m.check_failed;
    if (rec != nullptr && rec->remaining != 0 && --rec->remaining == 0 &&
        in_interval && rec->t_start >= clk.t0)
      m.lat_us.Add(static_cast<double>(t_ret - rec->t_start) / 1e3);
  }
  sp.Record(kSpanCheck, 0, it, 0, t, n);
  t = sp.Start();
  menshen::ReleaseToOwners(m.egress.data(), n);
  sp.Record(kSpanRelease, 0, it, 0, t, n);
  sp.Record(kSpanIter, it, 0, 0, ti, 0);
  return true;
}

/// Allocates, fills and submits one burst.  `due` is the open-loop due
/// time (0 in a closed loop).
void SendBurst(Instance& in, Meter& m, const Clock& clk, u64 due) {
  SpanLog& sp = m.spans;
  const std::size_t B = in.burst;
  std::array<ArenaPacket*, kMaxBurst> burst{};
  const u32 it = sp.NewId();
  const u64 ti = sp.Start();
  std::size_t have = 0;
  while (true) {
    const u64 t = sp.Start();
    have += in.arena->AllocateBurst(burst.data() + have, B - have);
    sp.Record(kSpanFill, 0, it, 0, t, 0);
    if (have == B) break;
    // Out of credit: the closed loop waits for its own egress.
    if (!Consume(in, m, clk)) std::this_thread::yield();
  }
  const u32 slot = in.slot++;
  BurstRec& rec = in.bursts[slot % kBurstSlots];
  u64 t = sp.Start();
  u32 expect = 0;
  for (std::size_t i = 0; i < B; ++i) {
    const u32 idx = NextFrame(in);
    const PoolFrame& f = in.pool.frames[idx];
    burst[i]->Assign({in.pool.In(f), f.len});
    expect += TagFrame(in, slot, idx, burst[i]->data()) ? 1 : 0;
  }
  sp.Record(kSpanFill, 0, it, slot, t, B);
  m.expected_delivered += expect;
  m.expected_dropped += B - expect;
  rec.remaining = expect;
  rec.epoch_lo = in.versioned ? in.dp->epoch() : 0;
  t = sp.Start();
  rec.t_start = due != 0 ? due : NowNs();
  in.dp->SubmitStream(burst.data(), B);
  sp.Record(kSpanSubmitStream, 0, it, slot, t, B);
  // The burst ran under some epoch in [lo, hi]; the frames are checked
  // after this returns, on this thread.
  rec.epoch_hi = in.versioned ? in.dp->epoch() : 0;
  sp.Record(kSpanIter, it, 0, slot, ti, 0);
}

/// Drains until every buffer is back in the arena, or 10 s pass.  Returns
/// the number of buffers still outstanding.
std::size_t DrainStream(Instance& in, Meter& m, const Clock& clk) {
  const u64 deadline = NowNs() + 10'000'000'000ull;
  while (in.arena->outstanding() != 0 && NowNs() < deadline)
    if (!Consume(in, m, clk)) std::this_thread::yield();
  return in.arena->outstanding();
}

/// Closed loop: sends bursts until the clock runs out (timed, when
/// `max_bursts` is 0) or `max_bursts` are sent, draining egress after each.
void RunClosedStream(Instance& in, Meter& m, Clock& clk, double seconds,
                     u64 max_bursts) {
  const bool timed = max_bursts == 0;
  if (timed) clk.Start(seconds, NowNs());
  for (u64 b = 0; timed || b < max_bursts; ++b) {
    if (timed && NowNs() >= clk.t_end) break;
    SendBurst(in, m, clk, 0);
    Consume(in, m, clk);
  }
}

// --- Ticket traffic ----------------------------------------------------------

/// Checks one completed ticket.  Returns the number of forwarded frames
/// that passed, and adds their bytes.
u64 CheckTicket(Instance& in, Meter& m,
                const std::vector<PipelineResult>& results, u64* bytes) {
  const u64 epoch = in.dp->epoch();
  u64 ok = 0;
  for (const PipelineResult& r : results) {
    const std::span<const u8> b =
        r.output ? r.output->bytes().bytes() : std::span<const u8>{};
    if (r.output && r.output->disposition == Disposition::kDrop &&
        r.filter_verdict == FilterVerdict::kData) {
      // A drop the model predicts is not a delivery.
      const PoolFrame* f = TaggedFrame(in.pool, b.data(), b.size());
      if (f != nullptr && !f->deliver[0]) continue;
    }
    ++m.delivered;
    if (r.filter_verdict != FilterVerdict::kData || !r.output ||
        !in.checker->Check(b.data(), b.size(), r.output->egress_port,
                           r.output->disposition == Disposition::kForward,
                           epoch, epoch)) {
      ++m.check_failed;
      continue;
    }
    ++ok;
    *bytes += b.size();
  }
  return ok;
}

/// Submits tickets of `in.burst` packets, one at a time, until the clock
/// runs out (timed, when `max_tickets` is 0) or `max_tickets` are sent.
/// Latency: from Submit until the ticket's completion callback ran.
void RunTickets(Instance& in, Meter& m, Clock& clk, double seconds,
                u64 max_tickets) {
  const bool timed = max_tickets == 0;
  if (timed) clk.Start(seconds, NowNs());
  SpanLog& sp = m.spans;
  for (u64 k = 0; timed || k < max_tickets; ++k) {
    if (timed && NowNs() >= clk.t_end) break;
    const u32 it = sp.NewId();
    const u64 ti = sp.Start();
    menshen::BatchTicket ticket;
    ticket.batch.reserve(in.burst);
    const u32 slot = in.slot++;
    for (std::size_t i = 0; i < in.burst; ++i) {
      const u32 idx = NextFrame(in);
      const PoolFrame& f = in.pool.frames[idx];
      std::vector<u8> bytes(in.pool.In(f), in.pool.In(f) + f.len);
      if (TagFrame(in, slot, idx, bytes.data())) ++m.expected_delivered;
      else ++m.expected_dropped;
      ticket.batch.emplace_back(menshen::ByteBuffer(std::move(bytes)));
    }
    auto done = std::make_shared<std::atomic<u64>>(0);
    ticket.on_complete = [done](const std::vector<PipelineResult>&) {
      done->store(NowNs(), std::memory_order_release);
    };
    u64 t = sp.Start();
    const u64 t_submit = NowNs();
    std::future<std::vector<PipelineResult>> fut =
        in.dp->Submit(std::move(ticket));
    sp.Record(kSpanSubmit, 0, it, slot, t, in.burst);
    ++m.tickets;
    t = sp.Start();
    const std::vector<PipelineResult> results = fut.get();
    sp.Record(kSpanTicketWait, 0, it, slot, t, results.size());
    const u64 t_done = done->load(std::memory_order_acquire);
    t = sp.Start();
    u64 bytes = 0;
    const u64 ok = CheckTicket(in, m, results, &bytes);
    sp.Record(kSpanCheck, 0, it, slot, t, results.size());
    m.Credit(clk, t_done, ok, bytes);
    if (clk.Window(t_done) >= 0 && t_submit >= clk.t0)
      m.lat_us.Add(static_cast<double>(t_done - t_submit) / 1e3);
    sp.Record(kSpanIter, it, 0, slot, ti, 0);
  }
}

// --- Workload definitions ----------------------------------------------------

enum class Kind { kMinKernel, kImixCached, kTickets, kReconfig };

struct Workload {
  const char* name;
  Kind kind;
};

constexpr Workload kWorkloads[] = {
    {"fwd_min_kernel", Kind::kMinKernel},
    {"fwd_imix_cached", Kind::kImixCached},
    {"batched_tickets", Kind::kTickets},
    {"reconfig_under_load", Kind::kReconfig},
};

/// Zipf(s) rank sampler over [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    double sum = 0;
    for (std::size_t k = 1; k <= n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(sum);
    }
  }
  std::size_t Draw(menshen::Rng& rng) const {
    const double u = rng.NextDouble() * cdf_.back();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// `n` distinct 16-bit keys in seeded random order (never the reserved
/// reconfiguration port, which the packet filter diverts).
std::vector<u16> DistinctKeys(std::size_t n, menshen::Rng& rng) {
  std::vector<u8> used(65536, 0);
  used[menshen::kReconfigUdpPort] = 1;
  std::vector<u16> keys;
  while (keys.size() < n) {
    const u16 k = static_cast<u16>(rng.Next());
    if (used[k] == 0) {
      used[k] = 1;
      keys.push_back(k);
    }
  }
  return keys;
}

std::vector<u8> CalcFrame(u16 vid, u16 op, menshen::Rng& rng) {
  std::vector<u8> f = MakeFrame(vid, 64, static_cast<u16>(rng.Next()), rng);
  PutBe(f.data() + 46, 2, op);
  PutBe(f.data() + 48, 4, static_cast<u32>(rng.Next()));
  PutBe(f.data() + 52, 4, static_cast<u32>(rng.Next()));
  return f;
}

void Assert(bool cond, const std::string& what) {
  if (!cond) Die("assertion failed: " + what);
}

void SetupMinKernel(Instance& in, menshen::Rng& rng) {
  // Eight CALC tenants, IDs 1-8, placed by the dataplane's default hash.
  std::vector<TenantModel> models;
  for (u16 v = 1; v <= 8; ++v) {
    models.push_back(InstallCalc(in.installer, v, static_cast<u8>((v - 1) / 4),
                                 (v - 1) % 4));
    in.kernel_only.push_back(v);
  }
  for (std::size_t i = 0; i < kPoolFrames; ++i) {
    const TenantModel& m = models[rng.Below(models.size())];
    in.pool.Add(CalcFrame(m.vid, static_cast<u16>(1 + rng.Below(3)), rng), m);
  }
  in.update = MakeUpdateTarget(12, 2, 0);
  InitTraffic(in, kKernelBurst, kKernelCredit);
}

void SetupImixCached(Instance& in, menshen::Rng& rng) {
  // QoS (ID 9) and a tag router (ID 10): both flow-cacheable rows.  Keys
  // are Zipf ranks over kZipfPopulation distinct values per tenant; which
  // ranks have entries is fixed, the key values come from the seed.
  const std::vector<u16> qkeys = DistinctKeys(kZipfPopulation, rng);
  const std::vector<u16> rkeys = DistinctKeys(kZipfPopulation, rng);
  TenantModel q;
  q.vid = 9;
  q.app = App::kQos;
  std::vector<menshen::apps::QosClass> classes;
  constexpr std::size_t kQosRanks[] = {0, 3, 8, 20};
  for (std::size_t i = 0; i < 4; ++i) {
    const u8 tos = static_cast<u8>(0x10 * (i + 1));
    const u16 port = static_cast<u16>(20 + i);
    q.qos[qkeys[kQosRanks[i]]] = {tos, port};
    classes.push_back({qkeys[kQosRanks[i]], tos, port});
  }
  CompiledModule qm = menshen::Compile(menshen::apps::QosSpec(), Slot(9, 0, 0));
  menshen::apps::InstallQosEntries(qm, classes);
  in.installer.Apply(qm);

  TenantModel r;
  r.vid = 10;
  r.app = App::kRouter;
  menshen::Diagnostics d;
  const menshen::ModuleSpec rspec = menshen::ParseModuleDsl(kRouterDsl, d);
  if (!d.ok()) Die("router DSL: " + d.ToString());
  CompiledModule rm = menshen::Compile(rspec, Slot(10, 0, 1, 8));
  constexpr std::size_t kRouteRanks[] = {1, 2, 5, 11, 30, 60, 120};
  for (std::size_t i = 0; i < 7; ++i) {
    const u16 port = static_cast<u16>(40 + i);
    r.routes[rkeys[kRouteRanks[i]]] = port;
    rm.AddEntry("routes", {{"tag", rkeys[kRouteRanks[i]]}}, std::nullopt,
                "fwd", {port});
  }
  r.routes[rkeys[4]] = -1;
  rm.AddEntry("routes", {{"tag", rkeys[4]}}, std::nullopt, "sink", {});
  in.installer.Apply(rm);
  in.flow_cacheable = {9, 10};

  const Zipf zipf(kZipfPopulation, kZipfS);
  for (std::size_t i = 0; i < kPoolFrames; ++i) {
    const u64 m = rng.Below(12);  // IMIX 64/576/1500 B in 7:4:1
    const std::size_t len = m < 7 ? 64 : m < 11 ? 576 : 1500;
    const std::size_t rank = zipf.Draw(rng);
    if (rng.Below(2) == 0) {
      in.pool.Add(MakeFrame(9, len, qkeys[rank], rng), q);
    } else {
      std::vector<u8> f = MakeFrame(10, len, static_cast<u16>(rng.Next()), rng);
      PutBe(f.data() + 46, 2, rkeys[rank]);
      in.pool.Add(std::move(f), r);
    }
  }
  in.update = MakeUpdateTarget(12, 2, 0);
  InitTraffic(in, kStreamBurst, kStreamCredit);
}

void SetupTickets(Instance& in, menshen::Rng& rng) {
  // CALC 1, 2, 3, 7 and the NetChain sequencer 5, uniform.  On two shards
  // CALC 1, 3 and 7 land on shard 1, the others on shard 0.
  std::vector<TenantModel> models;
  for (const u16 v : {1, 2, 3, 7})
    models.push_back(InstallCalc(in.installer, v, 0, models.size()));
  models.push_back(InstallChain(in.installer, 5, 1, 0, 0));
  in.kernel_only = {1, 2, 3, 5, 7};
  for (std::size_t i = 0; i < kPoolFrames; ++i) {
    const TenantModel& m = models[rng.Below(models.size())];
    if (m.app == App::kChain) {
      std::vector<u8> f =
          MakeFrame(m.vid, 64, static_cast<u16>(rng.Next()), rng);
      PutBe(f.data() + 46, 2, m.chain_op);
      in.pool.Add(std::move(f), m);
    } else {
      in.pool.Add(CalcFrame(m.vid, static_cast<u16>(1 + rng.Below(3)), rng), m);
    }
  }
  in.update = MakeUpdateTarget(12, 2, 0);
  InitTraffic(in, kTicketPackets, 0);
}

void SetupReconfig(Instance& in, menshen::Rng& rng) {
  // Resident CALC 1-3 and the updated tenant 4, whose module flips between
  // version 0 (add only) and version 1 (add and sub).
  std::vector<TenantModel> models;
  for (u16 v = 1; v <= 3; ++v)
    models.push_back(InstallCalc(in.installer, v, 0, v - 1));
  in.update = MakeUpdateTarget(4, 0, 3);
  const UpdateTarget& u = in.update;
  in.installer.Apply(
      CompileCalc(menshen::apps::CalcSpec(), u.alloc, u.version[0]));
  in.kernel_only = {1, 2, 3, 4};
  for (std::size_t i = 0; i < kPoolFrames; ++i) {
    const std::size_t pick = rng.Below(models.size() + 1);
    if (pick == models.size()) {
      in.pool.Add(CalcFrame(4, static_cast<u16>(1 + rng.Below(2)), rng),
                  u.version[0], &u.version[1]);
    } else {
      const TenantModel& m = models[pick];
      in.pool.Add(CalcFrame(m.vid, static_cast<u16>(1 + rng.Below(3)), rng),
                  m);
    }
  }
  in.versioned = true;
  InitTraffic(in, kStreamBurst, kOpenLoopCredit);
}

/// Folds a finished traffic phase into `counts`: check failures, lost
/// packets (submitted must equal delivered plus expected drops) and
/// buffers not back in their arena.
void Account(Instance& in, const Meter& m, std::size_t outstanding,
             Counts& counts) {
  counts.packets += m.expected_delivered + m.expected_dropped;
  counts.tickets += m.tickets;
  counts.Fail(m.check_failed, "output check: " + in.checker->first_failure());
  const u64 exp = m.expected_delivered;
  counts.Fail(exp > m.delivered ? exp - m.delivered : 0, "packets lost");
  counts.Fail(m.delivered > exp ? m.delivered - exp : 0,
              "more packets delivered than sent");
  counts.Fail(outstanding, "arena buffers not returned");
}

/// Sends the pool once, checked like measured traffic.
void WarmUp(Kind kind, Instance& in, u64 seed, Counts& counts) {
  Clock clk;
  Meter m(clk, false, 0, seed);
  const u64 rounds = in.pool.frames.size() / in.burst;
  std::size_t outstanding = 0;
  if (kind == Kind::kTickets) {
    RunTickets(in, m, clk, 0, rounds);
  } else {
    RunClosedStream(in, m, clk, 0, rounds);
    outstanding = DrainStream(in, m, clk);
  }
  Account(in, m, outstanding, counts);
}

/// Builds one workload instance: inputs from the seed, dataplane, tenants
/// compiled and installed, set-up assertions, and warm-up traffic.
std::unique_ptr<Instance> Setup(Kind kind, u64 seed, Counts& counts) {
  auto in = std::make_unique<Instance>();
  menshen::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  DataplaneConfig cfg;
  cfg.num_shards = kind == Kind::kMinKernel    ? 4
                   : kind == Kind::kImixCached ? 1
                                               : 2;
  // Every engine runs to completion on the calling thread: see README.md
  // (thread counts) for what worker threads did to run-to-run spread.
  cfg.worker_threads = false;
  in->dp = std::make_unique<Dataplane>(cfg);
  in->installer.dp = in->dp.get();
  in->pool.Reserve(kPoolFrames, 1500);
  switch (kind) {
    case Kind::kMinKernel: SetupMinKernel(*in, rng); break;
    case Kind::kImixCached: SetupImixCached(*in, rng); break;
    case Kind::kTickets: SetupTickets(*in, rng); break;
    case Kind::kReconfig: SetupReconfig(*in, rng); break;
  }
  // Every later epoch is one operator update: the checker maps epoch e to
  // module version (e - base) & 1.
  in->version_base = in->dp->CommitEpoch();
  in->checker->SetVersioning(in->version_base);

  // Each workload exercises the tier it is named for.
  for (const u16 v : in->flow_cacheable)
    Assert(in->dp->DescribeTenantRow(ModuleId(v)).flow_blocker ==
               FlowCacheBlocker::kNone,
           "tenant " + std::to_string(v) + " must be flow-cacheable");
  for (const u16 v : in->kernel_only)
    Assert(in->dp->DescribeTenantRow(ModuleId(v)).flow_blocker !=
               FlowCacheBlocker::kNone,
           "tenant " + std::to_string(v) + " must have a flow-cache blocker");
  WarmUp(kind, *in, seed, counts);
  return in;
}

// --- Counters ----------------------------------------------------------------

struct CounterTotals {
  std::vector<u64> shard_pkts;
  u64 packets = 0, batches = 0;
  u64 fc_hits = 0, fc_evictions = 0, burst_pkts = 0, burst_fallback = 0;
  u64 kernel_pkts = 0, kernel_fallback = 0, producer_stalls = 0, steals = 0;
};

CounterTotals ReadCounters(const Dataplane& dp) {
  CounterTotals t;
  for (const Dataplane::ShardCounters& c : dp.CountersSnapshot()) {
    t.shard_pkts.push_back(c.packets);
    t.packets += c.packets;
    t.batches += c.batches;
    t.fc_hits += c.flow_cache_hits;
    t.fc_evictions += c.flow_cache_evictions;
    t.burst_pkts += c.flow_cache_burst_pkts;
    t.burst_fallback += c.flow_cache_burst_fallback;
    t.kernel_pkts += c.kernel_pkts;
    t.kernel_fallback += c.kernel_fallback_pkts;
    t.producer_stalls += c.producer_stalls;
    t.steals += c.steals;
  }
  return t;
}

CounterTotals Delta(const CounterTotals& a, CounterTotals b) {
  for (std::size_t i = 0; i < b.shard_pkts.size() && i < a.shard_pkts.size();
       ++i)
    b.shard_pkts[i] -= a.shard_pkts[i];
  b.packets -= a.packets;
  b.batches -= a.batches;
  b.fc_hits -= a.fc_hits;
  b.fc_evictions -= a.fc_evictions;
  b.burst_pkts -= a.burst_pkts;
  b.burst_fallback -= a.burst_fallback;
  b.kernel_pkts -= a.kernel_pkts;
  b.kernel_fallback -= a.kernel_fallback;
  b.producer_stalls -= a.producer_stalls;
  b.steals -= a.steals;
  return b;
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// After-run agreement of the dataplane's own counters with the tier the
/// workload is named for.
void AssertTiers(Kind kind, const CounterTotals& c) {
  if (kind == Kind::kImixCached)
    Assert(c.fc_hits * 2 > c.packets && c.burst_pkts > 0,
           "fwd_imix_cached: most packets must hit the flow cache");
  else
    Assert(c.fc_hits == 0 && c.kernel_pkts == c.packets,
           "every packet must run on the kernel tier");
  if (kind == Kind::kTickets)
    Assert(c.batches > 0, "batched_tickets: sub-batches must run");
}

// --- One measured phase ------------------------------------------------------

struct PhaseResult {
  double mpps = 0, gbps = 0, p50_us = 0, p99_us = 0;
  std::vector<double> window_mpps;
  u64 latency_samples = 0;
  CounterTotals counters;
  UpdateLog updates;
  std::vector<double> lateness_us;
  std::array<SpanAgg, kSpanCount> agg{};
  std::vector<Span> spans;
  u64 spans_dropped = 0;
  int threads = 0;
};

void FoldSpans(const SpanLog& log, PhaseResult& r) {
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    r.agg[i].ns += log.agg()[i].ns;
    r.agg[i].calls += log.agg()[i].calls;
    r.agg[i].items += log.agg()[i].items;
  }
  r.spans.insert(r.spans.end(), log.kept().begin(), log.kept().end());
  r.spans_dropped += log.dropped();
}

/// Rates as the median across windows; latency percentiles over the
/// whole interval's samples.
void Reduce(const Meter& m, const Clock& clk, PhaseResult& r) {
  std::vector<double> gbps;
  const double wsec = static_cast<double>(clk.window_ns) / 1e9;
  for (std::size_t w = 0; w < clk.windows; ++w) {
    r.window_mpps.push_back(static_cast<double>(m.win.pkts[w]) / wsec / 1e6);
    gbps.push_back(static_cast<double>(m.win.bytes[w]) * 8.0 / wsec / 1e9);
  }
  r.mpps = Median(r.window_mpps);
  r.gbps = Median(gbps);
  const std::vector<double> lat = m.lat_us.Samples();
  r.latency_samples = m.lat_us.seen();
  r.p50_us = Percentile(lat, 0.50);
  r.p99_us = Percentile(lat, 0.99);
  FoldSpans(m.spans, r);
}

/// Open loop at kOpenLoopMpps on the calling thread while one control
/// thread updates the target module every kUpdatePeriodNs.
void RunOpenLoop(Instance& in, Meter& m, Clock& clk, double seconds,
                 SpanLog& ctl_spans, u64 seed, PhaseResult& r) {
  clk.Start(seconds, NowNs() + 1'000'000);
  std::thread control([&] {
    for (u64 next = clk.t0 + kUpdatePeriodNs / 2; next < clk.t_end;
         next += kUpdatePeriodNs) {
      while (NowNs() < next)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      const int version =
          static_cast<int>((in.dp->epoch() + 1 - in.version_base) & 1);
      UpdateModule(*in.dp, in.update, version, ctl_spans, r.updates,
                   &in.last_update);
    }
  });
  const u64 interval =
      static_cast<u64>(static_cast<double>(in.burst) / kOpenLoopMpps * 1e3);
  Reservoir late(1 << 16, seed);
  for (u64 due = clk.t0; due < clk.t_end; due += interval) {
    while (NowNs() < due) Consume(in, m, clk);
    late.Add(static_cast<double>(NowNs() - due) / 1e3);
    if (r.threads == 0) r.threads = ThreadCount();
    SendBurst(in, m, clk, due);
  }
  control.join();
  r.lateness_us = late.Samples();
}

/// Runs the workload's traffic for `seconds` and reduces it.
PhaseResult RunPhase(Kind kind, Instance& in, double seconds, bool trace,
                     u64 seed, Counts& counts) {
  PhaseResult r;
  Clock clk;
  clk.windows = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / kWindowSeconds)));
  Meter m(clk, trace, 0, seed, kLatencySamples);
  SpanLog ctl_spans(trace, 1, 1 << 14);
  const CounterTotals before = ReadCounters(*in.dp);
  const u64 epoch_before = in.dp->epoch();
  std::size_t outstanding = 0;
  in.record = trace;
  switch (kind) {
    case Kind::kTickets:
      r.threads = ThreadCount();
      RunTickets(in, m, clk, seconds, 0);
      break;
    case Kind::kReconfig:
      RunOpenLoop(in, m, clk, seconds, ctl_spans, seed, r);
      outstanding = DrainStream(in, m, clk);
      Assert(in.dp->epoch() - epoch_before == r.updates.attempted,
             "every update must advance the epoch by one");
      break;
    default:
      r.threads = ThreadCount();
      RunClosedStream(in, m, clk, seconds, 0);
      outstanding = DrainStream(in, m, clk);
      break;
  }
  in.record = false;
  Reduce(m, clk, r);
  FoldSpans(ctl_spans, r);
  if (kind == Kind::kReconfig) {
    // An open loop delivers exactly what it offers per window; its rate is
    // taken over the whole phase, up to the last delivery.
    const double sec = static_cast<double>(m.last_ok_ns - clk.t0) / 1e9;
    r.mpps = static_cast<double>(m.ok_pkts) / sec / 1e6;
    r.gbps = static_cast<double>(m.ok_bytes) * 8.0 / sec / 1e9;
  }
  r.counters = Delta(before, ReadCounters(*in.dp));
  Account(in, m, outstanding, counts);
  return r;
}

// --- Idle updates, cross-path probes and the standalone pipeline replay ------

/// kIdleUpdates operator updates of a module that carries no traffic, on
/// the idle dataplane, each followed by one probe packet that must see the
/// new version.
void IdleUpdates(Instance& in, SpanLog& spans, UpdateLog& log, u64 seed) {
  menshen::Rng rng(seed + 99);
  for (std::size_t i = 0; i < kIdleUpdates; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(kIdleUpdateGapUs));
    const int version = static_cast<int>(i & 1);
    UpdateModule(*in.dp, in.update, version, spans, log, &in.last_update);
    std::vector<u8> f =
        CalcFrame(in.update.vid, menshen::apps::kCalcOpSub, rng);
    std::vector<u8> want = f;
    const Outcome o =
        ApplyModel(in.update.version[version], want.data(), want.size());
    std::vector<Packet> batch;
    batch.emplace_back(menshen::ByteBuffer(f));
    const std::vector<PipelineResult> res =
        in.dp->ProcessBatch(std::move(batch));
    const bool ok = res.size() == 1 && res[0].output &&
                    res[0].output->disposition == Disposition::kForward &&
                    res[0].output->egress_port == o.port &&
                    std::equal(want.begin(), want.end(),
                               res[0].output->bytes().bytes().begin(),
                               res[0].output->bytes().bytes().end());
    if (!ok) ++log.failed;
  }
}

/// Traced runs time every layer on every workload: traffic that does not
/// use one ingress API replays its frames through it once, checked.
void CrossPathProbe(Kind kind, Instance& in, u64 seed, Counts& counts,
                    PhaseResult& r) {
  Clock clk;
  Meter m(clk, true, 3, seed);
  std::size_t outstanding = 0;
  if (kind == Kind::kTickets) {
    RunClosedStream(in, m, clk, 0, kProbeRounds);
    outstanding = DrainStream(in, m, clk);
  } else {
    RunTickets(in, m, clk, 0, kProbeRounds);
  }
  Account(in, m, outstanding, counts);
  FoldSpans(m.spans, r);
}

/// Splits one burst of pool frames the way the dataplane's scatter does:
/// one sub-burst per shard, made of whole tenant groups in order of first
/// appearance, arrival order within a tenant.
void ScatterLikeDataplane(const Instance& in, const u32* idx, std::size_t n,
                          std::vector<std::vector<u32>>& by_shard) {
  for (std::vector<u32>& s : by_shard) s.clear();
  std::vector<u16> tenants;
  for (std::size_t i = 0; i < n; ++i) {
    const u16 vid = in.pool.frames[idx[i]].vid;
    if (std::find(tenants.begin(), tenants.end(), vid) == tenants.end())
      tenants.push_back(vid);
  }
  for (const u16 vid : tenants) {
    std::vector<u32>& s = by_shard[in.dp->ShardFor(ModuleId(vid))];
    for (std::size_t i = 0; i < n; ++i)
      if (in.pool.frames[idx[i]].vid == vid) s.push_back(idx[i]);
  }
}

/// Replays the bursts or tickets sent in the traced phase through
/// standalone Pipelines, one per shard and configured with the same
/// writes, after splitting each the way the dataplane does: once through
/// ProcessStreamBurst and once through ProcessBatchInto.
void ReplayPipeline(Instance& in, PhaseResult& r) {
  const std::size_t shards = in.dp->num_shards();
  std::vector<std::unique_ptr<menshen::Pipeline>> pipes;
  for (std::size_t s = 0; s < shards; ++s) {
    pipes.push_back(std::make_unique<menshen::Pipeline>());
    for (const ConfigWrite& w : in.installer.log) pipes[s]->ApplyWrite(w);
    for (const ConfigWrite& w : in.last_update) pipes[s]->ApplyWrite(w);
  }
  SpanLog sp(true, 4, 0);
  PacketArena arena;
  std::vector<ArenaPacket*> bufs(in.burst);
  std::vector<PipelineResult> out;
  std::vector<std::vector<u32>> by_shard(shards);
  const std::vector<u32>& rec = in.recorded;
  for (int pass = 0; pass < 3; ++pass) {  // pass 0 warms caches
    for (std::size_t off = 0; off + in.burst <= rec.size(); off += in.burst) {
      ScatterLikeDataplane(in, rec.data() + off, in.burst, by_shard);
      for (std::size_t s = 0; s < shards; ++s) {
        const std::vector<u32>& sub = by_shard[s];
        if (sub.empty()) continue;
        arena.AllocateBurst(bufs.data(), sub.size());
        for (std::size_t i = 0; i < sub.size(); ++i) {
          const PoolFrame& f = in.pool.frames[sub[i]];
          bufs[i]->Assign({in.pool.In(f), f.len});
        }
        const u64 t = NowNs();
        pipes[s]->ProcessStreamBurst(bufs.data(), sub.size());
        if (pass > 0) sp.Record(kSpanPipeStream, 0, 0, 0, t, sub.size());
        arena.ReleaseBurst(bufs.data(), sub.size());
      }
      for (std::size_t s = 0; s < shards; ++s) {
        const std::vector<u32>& sub = by_shard[s];
        if (sub.empty()) continue;
        std::vector<Packet> batch;
        for (const u32 idx : sub) {
          const PoolFrame& f = in.pool.frames[idx];
          batch.emplace_back(menshen::ByteBuffer(
              std::vector<u8>(in.pool.In(f), in.pool.In(f) + f.len)));
        }
        out.clear();
        const u64 t = NowNs();
        pipes[s]->ProcessBatchInto(std::move(batch), out);
        if (pass > 0) sp.Record(kSpanPipeBatch, 0, 0, 0, t, sub.size());
      }
    }
  }
  FoldSpans(sp, r);
}

// --- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.10g",
                  std::isfinite(ms[i].value) ? ms[i].value : 0.0);
    s += (i ? ", " : "") + std::string("\"") + ms[i].name + "\": {\"value\": " +
         buf + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

double D(u64 v) { return static_cast<double>(v); }
double PerItem(const SpanAgg& a) { return Ratio(D(a.ns), D(a.items)); }
double PerCallUs(const SpanAgg& a) { return Ratio(D(a.ns), D(a.calls)) / 1e3; }

std::vector<Metric> PerLayerMetrics(const PhaseResult& t, double overhead_pct) {
  const auto& a = t.agg;
  const CounterTotals& c = t.counters;
  u64 max_shard = 0;
  for (const u64 s : c.shard_pkts) max_shard = std::max(max_shard, s);
  const double submit_stream = PerItem(a[kSpanSubmitStream]);
  const double pipe_stream = PerItem(a[kSpanPipeStream]);
  return {
      {"packet.fill_ns_per_pkt", PerItem(a[kSpanFill]), "ns"},
      {"packet.release_ns_per_pkt", PerItem(a[kSpanRelease]), "ns"},
      {"dataplane.submit_stream_ns_per_pkt", submit_stream, "ns"},
      {"dataplane.poll_egress_ns_per_pkt", PerItem(a[kSpanPollEgress]), "ns"},
      {"dataplane.stream_overhead_ns_per_pkt", submit_stream - pipe_stream,
       "ns"},
      {"dataplane.shard_share_max", Ratio(D(max_shard), D(c.packets)), "ratio"},
      {"dataplane.producer_stalls", D(c.producer_stalls), "count"},
      {"dataplane.submit_ns_per_pkt", PerItem(a[kSpanSubmit]), "ns"},
      {"dataplane.ticket_wait_us", PerCallUs(a[kSpanTicketWait]), "us"},
      {"dataplane.steals", D(c.steals), "count"},
      {"dataplane.stage_writes_us", PerCallUs(a[kSpanStageWrites]), "us"},
      {"dataplane.commit_epoch_us", PerCallUs(a[kSpanCommit]), "us"},
      {"compiler.parse_us", PerCallUs(a[kSpanParse]), "us"},
      {"compiler.compile_us", PerCallUs(a[kSpanCompile]), "us"},
      {"compiler.writes_per_module",
       Ratio(D(a[kSpanCompile].items), D(a[kSpanCompile].calls)), "count"},
      {"pipeline.stream_ns_per_pkt", pipe_stream, "ns"},
      {"pipeline.batch_ns_per_pkt", PerItem(a[kSpanPipeBatch]), "ns"},
      {"pipeline.kernel_share", Ratio(D(c.kernel_pkts), D(c.packets)), "ratio"},
      {"pipeline.kernel_fallback_pkts", D(c.kernel_fallback), "count"},
      {"flow_cache.hit_ratio", Ratio(D(c.fc_hits), D(c.packets)), "ratio"},
      {"flow_cache.evictions", D(c.fc_evictions), "count"},
      {"flow_cache.burst_fallback_ratio",
       Ratio(D(c.burst_fallback), D(c.burst_pkts)), "ratio"},
      {"bench.check_ns_per_pkt", PerItem(a[kSpanCheck]), "ns"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "thread,span_id,parent_id,name,op_id,start_ns,end_ns\n");
  for (const Span& s : spans)
    std::fprintf(f, "%u,%u,%u,%s,%u,%" PRIu64 ",%" PRIu64 "\n", s.thread, s.id,
                 s.parent, SpanNameStr(s.name), s.op, s.start_ns, s.end_ns);
  std::fclose(f);
}

/// The run's self-description: host, inputs, threads, operations, shard
/// distribution and tier mix.
std::string RecordJson(const Options& o, const PhaseResult& r,
                       const Counts& counts, const std::string& extra) {
  std::ostringstream s;
  const CounterTotals& c = r.counters;
  s << "{\"record\": {\"workload\": \"" << o.workload
    << "\", \"seed\": " << o.seed
    << ", \"seconds\": " << o.seconds << ", \"trace\": " << (o.trace ? 1 : 0)
    << ", \"host\": {\"cpu\": \"" << JsonEscape(CpuModel())
    << "\", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": \"" << JsonEscape(__VERSION__) << "\"}"
    << ", \"threads_max\": " << r.threads
    << ", \"operations\": {\"packets\": " << counts.packets
    << ", \"tickets\": " << counts.tickets
    << ", \"reconfigs\": " << counts.reconfigs
    << ", \"failed\": " << counts.failed << ", \"first_failure\": \""
    << JsonEscape(counts.first_failure) << "\"}, \"shard_packets\": [";
  for (std::size_t i = 0; i < c.shard_pkts.size(); ++i)
    s << (i ? ", " : "") << c.shard_pkts[i];
  s << "], \"tier_mix\": {\"flow_cache\": " << c.fc_hits
    << ", \"kernel\": " << c.kernel_pkts
    << ", \"interpreted\": " << c.kernel_fallback
    << ", \"packets\": " << c.packets
    << "}, \"latency_samples\": " << r.latency_samples
    << ", \"reconfig_samples\": " << r.updates.total_us.size();
  const auto list = [&](const char* key, const std::vector<double>& v) {
    s << ", \"" << key << "\": [";
    for (std::size_t i = 0; i < v.size(); ++i) s << (i ? ", " : "") << v[i];
    s << "]";
  };
  list("window_mpps", r.window_mpps);
  if (!r.lateness_us.empty())
    s << ", \"generator_lateness_us\": {\"p50\": " << Median(r.lateness_us)
      << ", \"p99\": " << Percentile(r.lateness_us, 0.99) << "}";
  s << extra << "}}";
  return s.str();
}

// --- Self-tests --------------------------------------------------------------

/// Streams a small CALC pool through a one-shard dataplane and checks it;
/// then corrupts one expected byte and streams the pool again.  The
/// checker must pass the first round and flag exactly the corrupted frame.
bool CheckerSelfTest(std::string* msg) {
  Instance in;
  in.dp = std::make_unique<Dataplane>(
      DataplaneConfig{.num_shards = 1, .worker_threads = false});
  in.installer.dp = in.dp.get();
  const TenantModel m = InstallCalc(in.installer, 1, 0, 0);
  menshen::Rng rng(7);
  for (std::size_t i = 0; i < 64; ++i)
    in.pool.Add(CalcFrame(1, static_cast<u16>(1 + rng.Below(3)), rng), m);
  InitTraffic(in, 32, 64);
  Clock clk;
  Meter meter(clk, false, 0, 1);
  RunClosedStream(in, meter, clk, 0, 2);
  DrainStream(in, meter, clk);
  const u64 clean = meter.check_failed;
  in.pool.MutableOut(in.pool.frames[5], 0)[57] ^= 0x01;
  RunClosedStream(in, meter, clk, 0, 2);
  const std::size_t left = DrainStream(in, meter, clk);
  const u64 caught = meter.check_failed - clean;
  *msg = "clean round failures " + std::to_string(clean) +
         ", corrupted-byte round failures " + std::to_string(caught);
  return clean == 0 && caught == 1 && left == 0;
}

bool QuantileSelfTest(std::string* msg) {
  struct Case {
    std::vector<double> v;
    double q;
    double want;
  };
  // Nearest rank: the ceil(q*n)-th smallest sample.
  const Case pct[] = {{{5}, 0.5, 5},
                      {{1, 2, 3, 4}, 0.5, 2},
                      {{4, 3, 2, 1}, 0.75, 3},
                      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
                      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 10},
                      {{10, 20, 30}, 0.01, 10},
                      {{}, 0.5, 0}};
  for (const Case& c : pct)
    if (Percentile(c.v, c.q) != c.want) {
      *msg = "Percentile mismatch";
      return false;
    }
  const Case med[] = {
      {{3, 1, 2}, 0, 2}, {{4, 1, 3, 2}, 0, 2.5}, {{7}, 0, 7}, {{}, 0, 0}};
  for (const Case& c : med)
    if (Median(c.v) != c.want) {
      *msg = "Median mismatch";
      return false;
    }
  // A reservoir keeps the first `capacity` samples verbatim, then a
  // uniform sample of everything offered.
  Reservoir r(4, 1);
  for (const double x : {1.0, 2.0, 3.0}) r.Add(x);
  if (r.Samples() != std::vector<double>{1, 2, 3}) {
    *msg = "Reservoir keeps its first samples";
    return false;
  }
  for (int i = 0; i < 1000; ++i) r.Add(100);
  if (r.Samples().size() != 4 || r.seen() != 1003 ||
      Median(r.Samples()) != 100) {
    *msg = "Reservoir replacement";
    return false;
  }
  *msg = "quantile cases pass";
  return true;
}

// --- Main --------------------------------------------------------------------

/// Runs one workload.  `t_start` is taken at the top of main: set-up is
/// timed from process start, cold, until traffic can start.
int RunWorkload(const Options& o, u64 t_start) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (o.workload == w.name) wl = &w;
  if (wl == nullptr) Die("unknown workload " + o.workload);

  Counts counts;
  const Kind kind = wl->kind;
  std::unique_ptr<Instance> in = Setup(kind, o.seed, counts);
  const double setup_s = static_cast<double>(NowNs() - t_start) / 1e9;
  std::string selftest;
  if (!CheckerSelfTest(&selftest)) Die("checker self-test failed: " + selftest);

  std::vector<Metric> metrics;
  std::string extra = ", \"checker_selftest\": \"" + selftest + "\"";
  PhaseResult shown;
  if (!o.trace) {
    PhaseResult r = RunPhase(kind, *in, o.seconds, false, o.seed, counts);
    AssertTiers(kind, r.counters);
    if (kind != Kind::kReconfig) {
      SpanLog off;
      IdleUpdates(*in, off, r.updates, o.seed);
    }
    counts.reconfigs += r.updates.attempted;
    counts.Fail(r.updates.failed, "module update failed its check");
    Assert(r.latency_samples >= 1000, "fewer than 1000 latency samples");
    Assert(r.updates.total_us.size() >= 100, "fewer than 100 reconfigurations");
    metrics = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
        {"fwd_mpps", r.mpps, "Mpps"},
        {"fwd_gbps", r.gbps, "Gb/s"},
        {"latency_p50_us", r.p50_us, "us"},
        {"latency_p99_us", r.p99_us, "us"},
        {"reconfig_p50_us", Median(r.updates.total_us), "us"},
        {"reconfig_p90_us", Percentile(r.updates.total_us, 0.90), "us"},
    };
    shown = std::move(r);
  } else {
    // Untraced and traced halves on one instance: the difference is the
    // tracing overhead; per-layer metrics come from the traced half.
    const PhaseResult plain =
        RunPhase(kind, *in, o.seconds / 2, false, o.seed, counts);
    PhaseResult r = RunPhase(kind, *in, o.seconds / 2, true, o.seed, counts);
    AssertTiers(kind, r.counters);
    if (kind != Kind::kReconfig) {
      SpanLog sp(true, 2, 1 << 12);
      IdleUpdates(*in, sp, r.updates, o.seed);
      FoldSpans(sp, r);
    }
    counts.reconfigs += plain.updates.attempted + r.updates.attempted;
    counts.Fail(plain.updates.failed + r.updates.failed,
                "module update failed its check");
    CrossPathProbe(kind, *in, o.seed, counts, r);
    ReplayPipeline(*in, r);
    const double overhead =
        kind == Kind::kReconfig
            ? 100.0 * (Ratio(r.p50_us, plain.p50_us) - 1.0)
            : 100.0 * (Ratio(plain.mpps, r.mpps) - 1.0);
    metrics = PerLayerMetrics(r, overhead);
    const std::string path = o.spans_dir + "/spans-" + o.workload + ".csv";
    WriteSpans(path, r.spans);
    char buf[1024];
    std::snprintf(buf, sizeof buf,
                  ", \"untraced_mpps\": %.4f, \"traced_mpps\": %.4f, "
                  "\"untraced_p50_us\": %.3f, \"traced_p50_us\": %.3f, "
                  "\"spans_kept\": %zu, \"spans_not_kept\": %" PRIu64
                  ", \"spans_file\": \"%s\"",
                  plain.mpps, r.mpps, plain.p50_us, r.p50_us, r.spans.size(),
                  r.spans_dropped, JsonEscape(path).c_str());
    extra += buf;
    r.threads = std::max(r.threads, plain.threads);
    shown = std::move(r);
  }
  std::printf("%s\n", RecordJson(o, shown, counts, extra).c_str());
  const u64 attempted = counts.packets + counts.tickets + counts.reconfigs;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              counts.failed == 0 ? "true" : "false", attempted, counts.failed,
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

int SelfTest() {
  std::string a, b;
  const bool q = QuantileSelfTest(&a);
  const bool c = CheckerSelfTest(&b);
  std::printf("quantiles: %s (%s)\nchecker: %s (%s)\n", q ? "ok" : "FAIL",
              a.c_str(), c ? "ok" : "FAIL", b.c_str());
  return q && c ? 0 : 1;
}

}  // namespace
}  // namespace dpbench

int main(int argc, char** argv) {
  const dpbench::u64 t_start = dpbench::NowNs();
  const dpbench::Options o = dpbench::ParseOptions(argc, argv);
  try {
    return o.selftest ? dpbench::SelfTest() : dpbench::RunWorkload(o, t_start);
  } catch (const std::exception& e) {
    dpbench::Die(std::string("exception: ") + e.what());
  }
}
