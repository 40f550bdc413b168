// Streaming work unit — one producer burst of arena packets steered to
// one shard.  Unlike ingress::ShardWork there is no ticket and no gather
// array: the worker runs the burst to completion and pushes the packets
// straight onto its egress queue, so nothing rendezvouses with anything.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace menshen {

class ArenaPacket;  // packet/arena.hpp

namespace ingress {

/// Tenant of the packets that carry no VLAN tag (and hence no tenant ID).
inline constexpr u16 kNoTenant = 0xFFFF;

/// One tenant's span of a work unit.  The scatter lays each shard's
/// share of a submission out as whole tenant groups, so a work unit's
/// packets are the concatenation of its runs, in order; the executing
/// shard accounts per run and never re-reads a packet's VLAN tag.
struct TenantRun {
  u16 vid = kNoTenant;  // ingress tenant, or kNoTenant
  u32 count = 0;
};

struct StreamWork {
  /// Borrowed arena buffers, in the producer's per-tenant arrival order.
  /// Ownership transfers to the shard worker on enqueue and to the
  /// egress queue after processing.
  std::vector<ArenaPacket*> pkts;
  /// The tenant runs `pkts` consists of.
  std::vector<TenantRun> runs;
};

}  // namespace ingress
}  // namespace menshen
