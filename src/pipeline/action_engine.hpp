// VLIW action engine (sections 3.1, 4.1).
//
// One ALU per PHV container (25 in total): slot i of the VLIW instruction
// controls the ALU whose output is hard-wired to container i, so no output
// crossbar is needed.  The input crossbar lets each ALU read any container.
// All ALUs read the *incoming* PHV and their outputs form the *new* PHV —
// true VLIW semantics, which the engine preserves by evaluating every slot
// against a snapshot before committing any write.
//
// Slot 24 is the metadata ALU; it executes the platform ops (`port`,
// `discard`) and can also `set`/`load`/... into the user metadata scratch.
#pragma once

#include <array>

#include "phv/phv.hpp"
#include "pipeline/entries.hpp"
#include "pipeline/stateful.hpp"

namespace menshen {

/// Compiled form of one VLIW entry: the active slot indices (so execution
/// touches only them instead of scanning all 25), and whether the entry
/// can execute directly against the PHV without the incoming-value
/// snapshot — true when no active slot's used operand names a container
/// an *earlier* active slot writes, so every read still observes the
/// incoming value.  Rebuilt by Stage::WriteVliw (the sole mutation path).
struct VliwPlan {
  std::array<u8, kNumAluContainers> active{};  // active slot indices, ascending
  u8 count = 0;
  bool in_place_safe = true;

  [[nodiscard]] static VliwPlan Compile(const VliwEntry& vliw);
};

class ActionEngine {
 public:
  /// Executes all 25 slots of `vliw` against `phv`, using `state` for the
  /// stateful ops.  Returns the new PHV.
  [[nodiscard]] static Phv Execute(const VliwEntry& vliw, const Phv& phv,
                                   StatefulMemory& state);

  /// In-place variant for the batched hot path: snapshots `phv` into the
  /// caller-owned `snapshot` buffer (preserving the all-ALUs-read-the-
  /// incoming-PHV VLIW semantics) and commits the outputs directly into
  /// `phv`.  Equivalent to `phv = Execute(vliw, phv, state)` without the
  /// return-value copy.
  static void ExecuteInPlace(const VliwEntry& vliw, Phv& phv, Phv& snapshot,
                             StatefulMemory& state);

  /// Compiled-plan variant (the module-run hot path): walks only the
  /// plan's active slots and skips the PHV snapshot entirely when the
  /// plan proved it safe.  `segment` is the module's stateful segment
  /// resolved ahead of the run.  Behaviour is identical to ExecuteInPlace
  /// (pinned by the execution-plan differential suite).  Inline (with
  /// the slot core below): this is the innermost per-hit work.
  static void ExecuteCompiled(const VliwEntry& vliw, const VliwPlan& plan,
                              Phv& phv, Phv& snapshot,
                              const StatefulMemory::Segment& segment) {
    if (plan.count == 0) return;
    const Phv* in = &phv;
    if (!plan.in_place_safe) {
      snapshot = phv;
      in = &snapshot;
    }
    for (std::size_t k = 0; k < plan.count; ++k) {
      const u8 slot = plan.active[k];
      ApplySlot(vliw.slots[slot], slot, *in, phv, segment);
    }
  }

  /// Single-slot fast path for the kernel layer: a row whose compiled
  /// plan has exactly one active slot is always in_place_safe (there is
  /// no earlier slot whose write an operand could observe), so it
  /// executes with no snapshot and no slot loop.  Operands are read
  /// before any write inside ApplySlot, so in == out is sound.
  static void ApplySingleSlot(const AluAction& a, u8 dst, Phv& phv,
                              const StatefulMemory::Segment& segment) {
    ApplySlot(a, dst, phv, phv, segment);
  }

 private:
  /// Reads the value of flat container slot `flat` from `phv` (slot 24
  /// reads the user metadata scratch word).
  [[nodiscard]] static u64 ReadSlot(const Phv& phv, u8 flat) {
    if (const auto c = FlatToContainer(flat)) return phv.Read(*c);
    return phv.meta_u16(meta::kUser);
  }
  static void WriteSlot(Phv& phv, u8 flat, u64 value) {
    if (const auto c = FlatToContainer(flat)) {
      phv.Write(*c, value);
    } else {
      phv.set_meta_u16(meta::kUser, static_cast<u16>(value));
    }
  }

  /// Executes one slot: operands from `in`, results into `out`.
  static void ApplySlot(const AluAction& a, u8 dst, const Phv& in, Phv& out,
                        const StatefulMemory::Segment& state) {
    // Operands always come from the *incoming* PHV snapshot.
    const u64 v1 = ReadSlot(in, a.container1);
    const u64 v2 = ReadSlot(in, a.container2);

    switch (a.op) {
      case AluOp::kNop:
        break;
      case AluOp::kAdd:
        WriteSlot(out, dst, v1 + v2);
        break;
      case AluOp::kSub:
        WriteSlot(out, dst, v1 - v2);
        break;
      case AluOp::kAddi:
        WriteSlot(out, dst, v1 + a.immediate);
        break;
      case AluOp::kSubi:
        WriteSlot(out, dst, v1 - a.immediate);
        break;
      case AluOp::kSet:
        WriteSlot(out, dst, a.immediate);
        break;
      case AluOp::kLoad:
        WriteSlot(out, dst, state.Load(a.immediate));
        break;
      case AluOp::kStore:
        state.Store(a.immediate, v1);
        break;
      case AluOp::kLoadd:
        WriteSlot(out, dst, state.LoadAddStore(a.immediate));
        break;
      case AluOp::kPort:
        out.set_meta_u16(meta::kDstPort, a.immediate);
        break;
      case AluOp::kDiscard:
        out.set_discard_flag(true);
        break;
      case AluOp::kCopy:
        WriteSlot(out, dst, v1);
        break;
      case AluOp::kLoadc:
        WriteSlot(out, dst, state.Load(v2));
        break;
      case AluOp::kStorec:
        state.Store(v2, v1);
        break;
      case AluOp::kLoaddc:
        WriteSlot(out, dst, state.LoadAddStore(v2));
        break;
      case AluOp::kMcast:
        out.set_meta_u16(meta::kMulticastGroup, a.immediate);
        break;
    }
  }

  /// Shared core: evaluates every slot against the `in` snapshot and
  /// writes results into `out` (callers guarantee `out` starts equal to
  /// `in`, so kNop slots keep the incoming value).
  static void Apply(const VliwEntry& vliw, const Phv& in, Phv& out,
                    const StatefulMemory::Segment& state);
};

}  // namespace menshen
