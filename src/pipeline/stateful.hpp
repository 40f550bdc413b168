// Stateful memory with segment-table address translation (section 3.1).
//
// Each stage owns a block of stateful memory, space-partitioned across
// modules.  A module supplies *per-module* (virtual) addresses; the
// segment table — an overlay table holding {offset, range} per module —
// translates them to physical addresses.  An access outside the module's
// range is squashed: loads return zero, stores are dropped, and a
// per-module violation counter increments.  This is the hardware bound
// check that makes it impossible for one module to read or corrupt
// another module's state.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "pipeline/entries.hpp"
#include "pipeline/overlay_table.hpp"

namespace menshen {

class StatefulMemory {
 public:
  explicit StatefulMemory(
      std::size_t words = params::kStatefulWordsPerStage)
      : words_(words, 0) {}

  [[nodiscard]] std::size_t size() const { return words_.size(); }

  /// A module's segment resolved once (one segment-table read) so a run
  /// of same-module packets skips the per-access table lookup.  Access
  /// semantics are identical to Load/Store/LoadAddStore below — out of
  /// range is squashed and counted per access — the only difference is
  /// when the {offset, range} pair is read.  The view is invalidated by
  /// any segment-table write; the pipeline's compiled runs re-resolve
  /// when the config stamp, which counts segment-table writes, moves.
  class Segment {
   public:
    Segment() = default;

    [[nodiscard]] u64 Load(u64 local) const {
      const std::size_t phys = Translate(local);
      return phys < mem_->words_.size() ? mem_->words_[phys] : 0;
    }
    void Store(u64 local, u64 value) const {
      const std::size_t phys = Translate(local);
      if (phys < mem_->words_.size()) mem_->words_[phys] = value;
    }
    [[nodiscard]] u64 LoadAddStore(u64 local) const {
      const std::size_t phys = Translate(local);
      if (phys >= mem_->words_.size()) return 0;
      return ++mem_->words_[phys];
    }

   private:
    friend class StatefulMemory;
    Segment(StatefulMemory* mem, ModuleId module, SegmentEntry seg)
        : mem_(mem), module_(module), offset_(seg.offset), range_(seg.range) {}

    /// Mirror of StatefulMemory::Translate against the resolved entry.
    [[nodiscard]] std::size_t Translate(u64 local) const {
      if (local >= range_) {
        mem_->RecordViolation(module_);
        return mem_->words_.size();
      }
      const std::size_t phys =
          static_cast<std::size_t>(offset_) + static_cast<std::size_t>(local);
      if (phys >= mem_->words_.size()) {
        mem_->RecordViolation(module_);
        return mem_->words_.size();
      }
      return phys;
    }

    StatefulMemory* mem_ = nullptr;
    ModuleId module_{0};
    u32 offset_ = 0;
    u32 range_ = 0;
  };

  /// Reads `module`'s segment-table entry once and returns the resolved
  /// access view.
  [[nodiscard]] Segment ResolveSegment(ModuleId module) {
    return Segment(this, module, segment_table_.Lookup(module));
  }

  /// Loads the word at `local` in `module`'s segment (0 if out of range).
  [[nodiscard]] u64 Load(ModuleId module, u64 local);

  /// Stores `value` at `local` in `module`'s segment (dropped if out of
  /// range).
  void Store(ModuleId module, u64 local, u64 value);

  /// The `loadd` ALU op: load, add one, store back; returns the new value.
  u64 LoadAddStore(ModuleId module, u64 local);

  /// Raw physical access for the control plane (statistics readout and
  /// zeroing a segment when its module is unloaded).
  [[nodiscard]] u64 PhysicalAt(std::size_t addr) const;
  void PhysicalStore(std::size_t addr, u64 value);
  void ZeroRange(std::size_t base, std::size_t count);

  [[nodiscard]] OverlayTable<SegmentEntry>& segment_table() {
    return segment_table_;
  }
  [[nodiscard]] const OverlayTable<SegmentEntry>& segment_table() const {
    return segment_table_;
  }

  /// Out-of-range access count per module (observability for tests and
  /// the control plane).
  [[nodiscard]] u64 violations(ModuleId module) const;
  [[nodiscard]] u64 total_violations() const { return total_violations_; }

 private:
  /// Translates; returns size() when the access is out of range.
  [[nodiscard]] std::size_t Translate(ModuleId module, u64 local);

  void RecordViolation(ModuleId module) {
    ++violations_[module.value()];
    ++total_violations_;
  }

  std::vector<u64> words_;
  OverlayTable<SegmentEntry> segment_table_;
  std::unordered_map<u16, u64> violations_;
  u64 total_violations_ = 0;
};

}  // namespace menshen
