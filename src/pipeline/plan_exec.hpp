// Inline executors for compiled parse/deparse plans.
//
// The planned byte-move loops and the per-packet metadata/disposition
// epilogues are shared verbatim by the interpreted plan path
// (pipeline/parser.cpp) and the specialized straight-line kernels
// (pipeline/kernels.cpp) — one definition, so the two paths cannot
// drift apart byte-wise.
#pragma once

#include <algorithm>
#include <cstring>

#include "packet/packet.hpp"
#include "phv/phv.hpp"
#include "pipeline/exec_plan.hpp"

namespace menshen {

/// Metadata the pipeline provides on every packet (section 4.3), shared
/// by every parse path.  Templated over the packet representation: the
/// batched path hands Packet, the streaming path hands ArenaPacket —
/// both expose the same size/bytes/sideband surface, so the two paths
/// share one definition and cannot drift byte-wise.
template <typename PacketT>
inline void FillPipelineMetadata(const PacketT& pkt, Phv& phv) {
  phv.set_meta_u16(meta::kSrcPort, pkt.ingress_port);
  phv.set_meta_u16(meta::kPktLen, static_cast<u16>(
                                      std::min<std::size_t>(pkt.size(), 0xFFFF)));
  phv.set_meta_u8(meta::kBufferTag, static_cast<u8>(1u << (pkt.buffer_tag & 3)));
}

/// Disposition epilogue of every deparse path.
template <typename PacketT>
inline void ApplyDisposition(const Phv& phv, PacketT& pkt) {
  if (phv.discard_flag()) {
    pkt.disposition = Disposition::kDrop;
  } else if (!pkt.multicast_ports.empty()) {
    pkt.disposition = Disposition::kMulticast;
  } else {
    pkt.disposition = Disposition::kForward;
    pkt.egress_port = phv.meta_u16(meta::kDstPort);
  }
}

/// Copies one planned move's bytes.  A move is one PHV container wide —
/// 2, 4 or 6 bytes — so each width gets a fixed-size copy the compiler
/// lowers to plain loads and stores instead of a runtime-length memcpy.
inline void CopyMoveBytes(u8* dst, const u8* src, u8 width) {
  if (width == 2)
    std::memcpy(dst, src, 2);
  else if (width == 4)
    std::memcpy(dst, src, 4);
  else
    std::memcpy(dst, src, 6);
}

/// Runs a compiled parse plan into `phv`, which the caller guarantees is
/// already all-zero (a freshly constructed Phv, or one Clear()ed) — the
/// hot paths parse straight into the result's emplaced PHV and skip the
/// redundant re-zeroing.  Containers whose parse was pruned stay zero.
template <typename PacketT>
inline void PlannedParseInto(const PacketT& pkt, Phv& phv,
                             const ParsePlan& plan) {
  phv.module_id = pkt.vid();
  FillPipelineMetadata(pkt, phv);

  u8* const dst_base = phv.mutable_raw().data();
  const u8* const src_base = pkt.bytes().bytes().data();
  const std::size_t limit =
      std::min<std::size_t>(kParserWindowBytes, pkt.size());
  for (std::size_t i = 0; i < plan.count; ++i) {
    const PlannedMove& mv = plan.moves[i];
    const std::size_t end = static_cast<std::size_t>(mv.pkt_off) + mv.width;
    if (end <= limit) {
      CopyMoveBytes(dst_base + mv.phv_off, src_base + mv.pkt_off, mv.width);
    } else {
      // Clipped tail: bytes beyond the window/packet read as zero (the
      // PHV is already zeroed).
      for (std::size_t b = 0; b < mv.width; ++b) {
        const std::size_t off = static_cast<std::size_t>(mv.pkt_off) + b;
        if (off < limit) dst_base[mv.phv_off + b] = src_base[off];
      }
    }
  }
}

/// Runs a compiled deparse plan: writes back the surviving moves and
/// applies the PHV's disposition metadata to the packet.
template <typename PacketT>
inline void PlannedDeparseFrom(const Phv& phv, PacketT& pkt,
                               const DeparsePlan& plan) {
  const u8* const src_base = phv.raw().data();
  u8* const dst_base = pkt.bytes().bytes().data();
  const std::size_t limit =
      std::min<std::size_t>(kParserWindowBytes, pkt.size());
  for (std::size_t i = 0; i < plan.count; ++i) {
    const PlannedMove& mv = plan.moves[i];
    const std::size_t end = static_cast<std::size_t>(mv.pkt_off) + mv.width;
    if (end <= limit) {
      CopyMoveBytes(dst_base + mv.pkt_off, src_base + mv.phv_off, mv.width);
    } else {
      for (std::size_t b = 0; b < mv.width; ++b) {
        const std::size_t off = static_cast<std::size_t>(mv.pkt_off) + b;
        if (off < limit) dst_base[off] = src_base[mv.phv_off + b];
      }
    }
  }
  ApplyDisposition(phv, pkt);
}

}  // namespace menshen
