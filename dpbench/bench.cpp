#include "bench.hpp"

namespace dpbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0
                 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

const char* SpanNameStr(u16 name) {
  static constexpr std::array<const char*, kSpanCount> kNames = {
      "bench.iter",          "packet.fill",
      "dataplane.submit_stream", "dataplane.poll_egress",
      "packet.release",      "bench.check",
      "dataplane.submit",    "dataplane.ticket_wait",
      "compiler.parse",      "compiler.compile",
      "dataplane.stage_writes", "dataplane.commit_epoch",
      "pipeline.stream",     "pipeline.batch"};
  return name < kSpanCount ? kNames[name] : "?";
}

Outcome ApplyModel(const TenantModel& m, u8* f, std::size_t len) {
  (void)len;
  switch (m.app) {
    case App::kCalc: {
      const u32 op = GetBe(f + 46, 2);
      const u8 kind = op < m.calc_kind.size() ? m.calc_kind[op] : 0;
      if (kind == 0) return {true, 0};
      const u32 a = GetBe(f + 48, 4);
      const u32 b = GetBe(f + 52, 4);
      const u32 res = kind == 1 ? a + b : kind == 2 ? a - b : a;
      PutBe(f + 56, 4, res);
      return {true, m.calc_port};
    }
    case App::kQos: {
      const auto it = m.qos.find(static_cast<u16>(GetBe(f + 40, 2)));
      if (it == m.qos.end()) return {true, 0};
      PutBe(f + 18, 2, 0x4500u | it->second.first);
      return {true, it->second.second};
    }
    case App::kRouter: {
      const auto it = m.routes.find(static_cast<u16>(GetBe(f + 46, 2)));
      if (it == m.routes.end()) return {true, 0};
      if (it->second < 0) return {false, 0};
      return {true, static_cast<u16>(it->second)};
    }
    case App::kChain: {
      if (GetBe(f + 46, 2) != m.chain_op) return {true, 0};
      return {true, m.chain_port};
    }
  }
  return {};
}

void FramePool::Add(std::vector<u8> input, const TenantModel& v0,
                    const TenantModel* v1) {
  PoolFrame f;
  f.len = static_cast<u16>(input.size());
  f.vid = v0.vid;
  f.chain = v0.app == App::kChain;
  f.versioned = v1 != nullptr;
  f.in_off = static_cast<u32>(bytes.size());
  bytes.insert(bytes.end(), input.begin(), input.end());
  for (int v = 0; v < 2; ++v) {
    const TenantModel& m = (v == 1 && v1 != nullptr) ? *v1 : v0;
    std::vector<u8> out = input;
    const Outcome o = ApplyModel(m, out.data(), out.size());
    f.out_off[v] = static_cast<u32>(bytes.size());
    f.port[v] = o.port;
    f.deliver[v] = o.deliver;
    bytes.insert(bytes.end(), out.begin(), out.end());
  }
  frames.push_back(f);
}

std::vector<u8> MakeFrame(u16 vid, std::size_t len, u16 dport,
                          menshen::Rng& rng) {
  if (dport == menshen::kReconfigUdpPort) dport ^= 1;
  menshen::Packet p = menshen::PacketBuilder{}
                          .vid(menshen::ModuleId(vid))
                          .ipv4(static_cast<u32>(rng.Next()),
                                static_cast<u32>(rng.Next()))
                          .udp(static_cast<u16>(rng.Next()), dport)
                          .frame_size(len)
                          .Build();
  std::vector<u8> out(p.bytes().bytes().begin(), p.bytes().bytes().end());
  std::memset(out.data() + kTagSlot, 0, kTagEnd - kTagSlot);
  std::memset(out.data() + kTagSeq, 0, 4);
  return out;
}

bool Checker::Fail(const char* what, u32 idx) {
  ++failures_;
  if (first_.empty())
    first_ = std::string(what) + " (pool frame " + std::to_string(idx) + ")";
  return false;
}

namespace {

/// Every byte but the tag bytes (checked through their own meaning) and,
/// for NetChain, the stateful sequence field.
bool SameBytes(const u8* got, const u8* want, std::size_t len, bool chain) {
  if (std::memcmp(got, want, kTagSlot) != 0) return false;
  if (chain) {
    if (std::memcmp(got + kTagEnd, want + kTagEnd, 48 - kTagEnd) != 0)
      return false;
    if (std::memcmp(got + 52, want + 52, kTagSeq - 52) != 0) return false;
  } else if (std::memcmp(got + kTagEnd, want + kTagEnd, kTagSeq - kTagEnd) !=
             0) {
    return false;
  }
  return std::memcmp(got + kMinFrame, want + kMinFrame, len - kMinFrame) == 0;
}

}  // namespace

const PoolFrame* TaggedFrame(const FramePool& pool, const u8* data,
                             std::size_t len) {
  if (len < kMinFrame) return nullptr;
  const u32 idx = GetBe(data + kTagIndex, 3);
  return idx < pool.frames.size() ? &pool.frames[idx] : nullptr;
}

bool Checker::Check(const u8* data, std::size_t len, u16 port, bool forwarded,
                    u64 epoch_lo, u64 epoch_hi) {
  const PoolFrame* fp = TaggedFrame(pool_, data, len);
  const u32 idx = len >= kMinFrame ? GetBe(data + kTagIndex, 3) : 0;
  if (fp == nullptr) return Fail("bad tag", idx);
  const PoolFrame& f = *fp;
  if (len != f.len) return Fail("length changed", idx);
  if (f.vid >= kVids) return Fail("tenant out of range", idx);

  // Content first; the FIFO and sequencer state advance whatever the
  // content check found, so one wrong frame counts as one failure.
  const char* why = nullptr;
  if (f.versioned) {
    // The frame ran under some epoch in [lo, hi]; its output must match
    // that epoch's version, and versions never go backwards along the
    // tenant's FIFO: take the earliest matching epoch at or above the
    // floor the tenant's earlier frames established.
    u64& floor = version_floor_[f.vid];
    bool found = false;
    for (u64 e = std::max(epoch_lo, floor); e <= epoch_hi && !found; ++e) {
      const int v = static_cast<int>((e - version_base_) & 1);
      if (SameBytes(data, pool_.Out(f, v), len, f.chain) &&
          port == f.port[v] && forwarded == f.deliver[v]) {
        floor = e;
        found = true;
      }
    }
    if (!found) why = "matches no module version at or after the last one seen";
  } else if (!SameBytes(data, pool_.Out(f, 0), len, f.chain)) {
    why = "bytes differ from the model";
  } else if (!f.deliver[0]) {
    why = "delivered a frame the model drops";
  } else if (port != f.port[0] || !forwarded) {
    why = "egress port or disposition differs from the model";
  }

  if (f.chain) {
    u32& next = chain_next_[f.vid];
    const u32 got = GetBe(data + 48, 4);
    if (got != next && why == nullptr)
      why = "NetChain sequence did not rise by one";
    next = got + 1;
  }
  u32& want = rx_seq_[f.vid];
  const u32 seq = GetBe(data + kTagSeq, 4);
  if (seq != want && why == nullptr) why = "per-tenant FIFO order broken";
  want = seq + 1;
  return why == nullptr ? true : Fail(why, idx);
}

}  // namespace dpbench
