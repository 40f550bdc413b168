// The Menshen pipeline (Figure 2): packet filter -> programmable parser ->
// N match-action stages -> deparser, plus the daisy-chain configuration
// sink.  This class implements the *functional* behaviour; per-cycle
// timing lives in sim/ (the timing model shares this object's structural
// parameters).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/counters.hpp"
#include "packet/packet.hpp"
#include "phv/phv.hpp"
#include "pipeline/config_write.hpp"
#include "pipeline/exec_plan.hpp"
#include "pipeline/flow_cache.hpp"
#include "pipeline/kernels.hpp"
#include "pipeline/packet_filter.hpp"
#include "pipeline/params.hpp"
#include "pipeline/parser.hpp"
#include "pipeline/stage.hpp"

namespace menshen {

/// Outcome of running one packet through the pipeline.
struct PipelineResult {
  FilterVerdict filter_verdict = FilterVerdict::kData;
  /// Present iff the packet traversed the match-action pipeline.
  std::optional<Packet> output;
  /// PHV as it left the last stage (for inspection by tests/examples).
  std::optional<Phv> final_phv;
  /// Execution-ladder tier that resolved the packet (common/
  /// exec_tier.hpp ExecTier as u8; kNone for filtered packets) and the
  /// stages/steps that tier visited — telemetry sidebands.
  u8 exec_tier = 0;
  u8 exec_steps = 0;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineTiming timing = OptimizedTiming(),
                    bool reconfig_on_data_path = true);

  /// Runs one data packet through filter, parser, stages and deparser.
  /// Reconfiguration packets reaching the filter from the data path are
  /// NOT applied here — the caller (config/DaisyChain) owns that path.
  /// Uses the compiled execution plans (a run of length one); identical
  /// per packet to the batched path below.
  PipelineResult Process(Packet pkt);

  /// The unplanned reference path: linear full parse, per-packet overlay
  /// reads in every stage, linear full deparse.  Retained as the
  /// differential reference the compiled-plan path is pinned against
  /// (tests/test_exec_plan.cpp compares every tenant-observable output).
  /// Dead-container PHV bytes may differ from the planned path — they
  /// are exactly what liveness pruning proves unobservable.
  PipelineResult ProcessUnplanned(Packet pkt);

  /// Batched hot path: processes every packet of `batch` in order,
  /// appending one PipelineResult per packet to `out`.  Packets are moved
  /// into their results, and one PHV plus the per-stage scratch buffers
  /// are reused across the whole batch, so the steady state performs no
  /// per-packet allocation.  The batch is executed as *module runs* —
  /// maximal spans of consecutive same-tenant data packets — each
  /// executed under its row's compiled run (see CompiledRun below), so a
  /// run pays no configuration reads at all while the config stamp
  /// holds.  Behaviour per packet is identical to Process() (pinned by
  /// the dataplane differential test).
  void ProcessBatchInto(std::vector<Packet>&& batch,
                        std::vector<PipelineResult>& out);

  /// Convenience wrapper returning a fresh result vector.
  [[nodiscard]] std::vector<PipelineResult> ProcessBatch(
      std::vector<Packet>&& batch);

  /// Streaming hot path: processes a burst of arena packets in place, in
  /// order — no PipelineResult, no PHV copy-out, no packet move.  Each
  /// packet's bytes are rewritten by the planned deparse and its verdict
  /// / disposition / egress sidebands are filled for the caller to act
  /// on (enqueue to egress, recycle on drop).  Runs the same fused
  /// classify + module-run structure as ProcessBatchInto over the same
  /// three-tier ladder (flow-verdict cache -> specialized kernels ->
  /// interpreted plans), so tenant-observable bytes are identical to the
  /// batched path (pinned by tests/test_stream.cpp).
  void ProcessStreamBurst(ArenaPacket* const* pkts, std::size_t n);

  /// The compiled execution plan for `module`'s overlay row, rebuilt
  /// when any of the configuration version counters it derives from
  /// (parser/deparser tables, key extractors/masks, CAM/TCAM entries,
  /// VLIW and segment tables) has moved — every configuration path bumps
  /// one, so epoch commits, overlay rewrites and ResizeShards config-log
  /// replay all invalidate coherently.  Exposed for tests and benchmarks.
  [[nodiscard]] const ModuleExecPlan& ExecPlanFor(ModuleId module);

  /// The flow-verdict cache state for `module`'s overlay row, refreshed
  /// to the current configuration (same stamp discipline as ExecPlanFor).
  /// Exposed for tests; the batched path refreshes rows itself.
  [[nodiscard]] FlowRowState& FlowRowFor(ModuleId module);

  /// Per-shard flow-verdict cache (pipeline/flow_cache.hpp).  Mutable
  /// access is a test/bench knob (capacity); stats are safe to read
  /// concurrently via FlowCacheStats' relaxed counters.
  [[nodiscard]] FlowVerdictCache& flow_cache() { return flow_cache_; }
  [[nodiscard]] FlowCacheStats FlowCacheSnapshot() const {
    return flow_cache_.Snapshot();
  }

  /// Specialized-kernel dispatch knob (pipeline/kernels.hpp).  On by
  /// default; tests disable it to pin the kernels byte-identical to the
  /// interpreted plan path on the same object.
  void SetKernelsEnabled(bool enabled) { kernels_enabled_ = enabled; }
  [[nodiscard]] bool kernels_enabled() const { return kernels_enabled_; }

  /// Burst-probe dispatch knob: phase-structured flow-cache probing on
  /// eligible spans (gather every lane's key words, hashed probe with
  /// slot prefetch-ahead, replay hits / resolve compacted fallback
  /// lanes in order — FlowVerdictCache::BurstProbe).  On by default;
  /// the per-packet scalar probe is retained as the differential
  /// reference (tests/test_burst_probe.cpp pins the two byte- and
  /// counter-identical).
  void SetBurstProbeEnabled(bool enabled) { burst_probe_enabled_ = enabled; }
  [[nodiscard]] bool burst_probe_enabled() const {
    return burst_probe_enabled_;
  }

  /// Kernel-dispatch statistics (relaxed counters: safe to read while a
  /// shard worker is mid-batch).
  struct KernelStats {
    u64 pkts = 0;           // packets executed by a specialized kernel
    u64 fallback_pkts = 0;  // packets interpreted (wide/ternary rows)
    u64 record_fills = 0;   // flow-cache misses filled by the recording kernel
    std::array<u64, kKernelShapeCount> shape_pkts{};  // pkts per shape id
  };
  [[nodiscard]] KernelStats KernelSnapshot() const;

  /// Compiles (without caching) the execution plan for `module`'s
  /// overlay row — a const observability hook: stats dumps read the
  /// flow-cache blocker and kernel shape of every active tenant without
  /// touching the plan cache.
  [[nodiscard]] ModuleExecPlan DescribeRow(ModuleId module) const;

  /// Applies one configuration write (arriving via the daisy chain or
  /// AXI-L) to the addressed resource, and bumps the filter's
  /// reconfiguration packet counter.
  void ApplyWrite(const ConfigWrite& write);

  [[nodiscard]] PacketFilter& filter() { return filter_; }
  [[nodiscard]] const PacketFilter& filter() const { return filter_; }
  [[nodiscard]] Parser& parser() { return parser_; }
  [[nodiscard]] const Parser& parser() const { return parser_; }
  [[nodiscard]] Deparser& deparser() { return deparser_; }
  [[nodiscard]] const Deparser& deparser() const { return deparser_; }
  [[nodiscard]] Stage& stage(std::size_t i) { return stages_.at(i); }
  [[nodiscard]] const Stage& stage(std::size_t i) const {
    return stages_.at(i);
  }
  [[nodiscard]] std::size_t num_stages() const { return stages_.size(); }
  [[nodiscard]] const PipelineTiming& timing() const { return timing_; }

  /// Multicast group table (owned by the traffic manager / system-level
  /// module, section 3.3): group number -> replication port list.
  void SetMulticastGroup(u16 group, std::vector<u16> ports);
  [[nodiscard]] const std::vector<u16>* MulticastGroup(u16 group) const;

  // Per-module forwarded/dropped counters (control-plane statistics).
  [[nodiscard]] u64 forwarded(ModuleId m) const;
  [[nodiscard]] u64 dropped(ModuleId m) const;
  [[nodiscard]] u64 total_processed() const { return total_processed_; }
  [[nodiscard]] u64 config_writes_applied() const { return config_writes_; }

  /// Every module ID that has a nonzero forwarded or dropped counter,
  /// sorted ascending — the control plane's tenant inventory.
  [[nodiscard]] std::vector<ModuleId> ActiveModules() const;

 private:
  /// One overlay row's compiled module run: everything a run of the
  /// row's module needs that derives from configuration alone — the
  /// execution plan, the resolved per-stage run contexts (constant-key
  /// outcomes included), the flow-cache row, the forwarded/dropped
  /// counter slots and the kernel step list with its entry points.
  /// Rebuilt when the config stamp moves or another module ID aliasing
  /// the row shows up; everything else a run does — constant-key and
  /// kernel counter accounting, flow-cache probes, multicast resolution —
  /// stays per run or per packet.
  struct CompiledRun {
    u64 stamp = ~u64{0};  // ConfigVersionSum() at build time
    ModuleId module{0};
    ModuleExecPlan plan;
    std::array<Stage::ModuleRunContext, params::kNumStages> ctx{};
    FlowRowState* flow = nullptr;
    u64* fwd = nullptr;   // forwarded_[module]
    u64* drop = nullptr;  // dropped_[module]
    // Kernel tier: null entry points = interpreted plan path.
    KernelRun kernel;
    u8 shape = 0;
    KernelFn batch_kernel = nullptr;
    StreamKernelFn stream_kernel = nullptr;
  };

  /// The per-row compiled runs, each allocated when its row first
  /// carries traffic, so only rows in use cost memory.  They point into
  /// this pipeline's own stages, flow cache and counters, so a copied or
  /// moved pipeline starts with an empty table instead of inheriting its
  /// source's pointers.
  class CompiledRunTable {
   public:
    CompiledRunTable() = default;
    CompiledRunTable(const CompiledRunTable&) {}
    CompiledRunTable& operator=(const CompiledRunTable&) {
      for (std::unique_ptr<CompiledRun>& run : runs_) run.reset();
      return *this;
    }
    [[nodiscard]] CompiledRun& operator[](std::size_t row) {
      std::unique_ptr<CompiledRun>& run = runs_[row];
      if (run == nullptr) run = std::make_unique<CompiledRun>();
      return *run;
    }

   private:
    std::array<std::unique_ptr<CompiledRun>, params::kOverlayTableDepth>
        runs_;
  };

  /// Sum of every configuration version counter a compiled run derives
  /// from — monotonic, so a stale run can never alias a current stamp.
  /// Read once per ProcessBatchInto / ProcessStreamBurst / Process call:
  /// configuration never changes inside one.
  [[nodiscard]] u64 ConfigVersionSum() const;
  /// `module`'s compiled run, rebuilt first when it is stale for `stamp`.
  CompiledRun& RunFor(ModuleId module, u64 stamp);
  /// Accounts the constant-key stages for one run of `run_len` packets.
  void AccountRun(const CompiledRun& run, u64 run_len) {
    for (std::size_t s = 0; s < stages_.size(); ++s)
      stages_[s].AccountRun(run.ctx[s], run_len);
  }
  /// Runs one already-classified data packet through parse, stages and
  /// deparse under the compiled run's contexts, filling `result`.
  void RunOne(Packet& pkt, PipelineResult& result, const CompiledRun& run);
  /// Cached-row variant of RunOne: parse, probe the flow-verdict cache,
  /// replay (or build) the verdict, deparse.  Never calls ProcessRun;
  /// counter deltas accumulate into `acct` (flushed once per run).
  void RunOneCached(Packet& pkt, PipelineResult& result,
                    const ModuleExecPlan& plan, FlowRowState& frow,
                    FlowVerdictCache::RunAccounting& acct, ModuleId module,
                    u64& fwd, u64& drop);
  /// Replay tail of RunOneCached for a verdict already resolved for the
  /// whole run (all-constant rows: every packet shares the all-zero key
  /// words, so per-packet extraction/hashing/probing is redundant).
  /// Callers account hits and counter deltas at run level.
  void RunOneReplay(Packet& pkt, PipelineResult& result,
                    const ModuleExecPlan& plan, const FlowVerdict& v, u64& fwd,
                    u64& drop);
  /// Executes one module run (the `idx[0..n)` packets of `batch`, with
  /// results at the same indices of `out`) through the compiled run's
  /// specialized kernel, or through the interpreted RunOne loop when the
  /// shape has no registered kernel (wide/ternary) or kernels are
  /// disabled.
  void RunSpan(Packet* batch, PipelineResult* out, const u32* idx,
               std::size_t n, CompiledRun& run);
  /// Streaming siblings of RunOne/RunOneCached/RunSpan: arena packets
  /// mutated in place through `stream_phv_` (one reused scratch PHV per
  /// pipeline — the streaming path emits no PHV).
  void StreamRunOne(ArenaPacket& pkt, const CompiledRun& run);
  void StreamRunOneCached(ArenaPacket& pkt, const ModuleExecPlan& plan,
                          FlowRowState& frow,
                          FlowVerdictCache::RunAccounting& acct,
                          ModuleId module, u64& fwd, u64& drop);
  void StreamRunSpan(ArenaPacket* const* pkts, const u32* idx, std::size_t n,
                     CompiledRun& run);
  /// Post-probe tails shared by the scalar and burst cached paths:
  /// resolve one packet given its probed slot and hit flag — replay on
  /// a hit, fill through the kernel/plan ladder on a miss, then
  /// accounting, multicast, deparse and the fwd/drop counters.  Neither
  /// touches total_processed_; the caller accounts lanes.
  void StreamResolveCached(ArenaPacket& pkt, Phv& phv,
                           const ModuleExecPlan& plan, FlowRowState& frow,
                           FlowVerdictCache::RunAccounting& acct,
                           ModuleId module, FlowVerdict& v, bool hit,
                           const FlowVerdictCache::KeyWordArray& words,
                           u64& fwd, u64& drop);
  void RunResolveCached(Packet& pkt, PipelineResult& result, Phv& phv,
                        const ModuleExecPlan& plan, FlowRowState& frow,
                        FlowVerdictCache::RunAccounting& acct, ModuleId module,
                        FlowVerdict& v, bool hit,
                        const FlowVerdictCache::KeyWordArray& words, u64& fwd,
                        u64& drop);
  /// Burst-probed variants of the eligible-span loops: process the span
  /// in kBurstLanes-sized chunks through the three-phase burst path
  /// (gather -> BurstProbe -> replay hits / resolve fallbacks in lane
  /// order).  Chunk boundaries behave exactly like scalar boundaries —
  /// fills from one chunk are visible to the next chunk's probes — so
  /// outcomes and counters match the scalar loop packet for packet.
  void StreamRunBurstCached(ArenaPacket* const* pkts, const u32* idx,
                            std::size_t n, const ModuleExecPlan& plan,
                            FlowRowState& frow,
                            FlowVerdictCache::RunAccounting& acct,
                            ModuleId module, u64& fwd, u64& drop);
  void BatchRunBurstCached(Packet* batch, PipelineResult* out, const u32* idx,
                           std::size_t n, const ModuleExecPlan& plan,
                           FlowRowState& frow,
                           FlowVerdictCache::RunAccounting& acct,
                           ModuleId module, u64& fwd, u64& drop);

  PipelineTiming timing_;
  PacketFilter filter_;
  Parser parser_;
  std::vector<Stage> stages_;
  Deparser deparser_;
  std::unordered_map<u16, std::vector<u16>> mcast_groups_;
  std::unordered_map<u16, u64> forwarded_;
  std::unordered_map<u16, u64> dropped_;
  u64 total_processed_ = 0;
  u64 config_writes_ = 0;

  /// Flow-verdict memoization (rows stamped like the compiled runs):
  /// end-to-end results for rows whose reachable actions are provably
  /// stateless.
  FlowVerdictCache flow_cache_;

  /// Compiled module runs, one per overlay row (see CompiledRun).
  CompiledRunTable runs_;

  // Batch scratch: the data-packet index list of the fused classify
  // pass.  Never part of observable state.
  std::vector<u32> data_idx_scratch_;

  // Kernel dispatch (pipeline/kernels.hpp): the multi-slot snapshot
  // scratch is reused across runs; per-shape packet counters feed
  // ShardStats/DumpDataplaneStats.
  bool kernels_enabled_ = true;
  Phv kernel_snapshot_scratch_;
  // Streaming scratch PHV (ProcessStreamBurst): Clear()ed and reused per
  // packet — the streaming path never emits a PHV.
  Phv stream_phv_;
  // Burst-probe scratch, sized to one chunk: per-lane gathered key
  // words, probe verdict pointers, compacted fallback lane list, slot
  // indices, and (streaming only — the batched path parses into each
  // result's emplaced PHV) the per-lane parsed PHVs that must survive
  // from the gather phase to the replay phase.
  static constexpr std::size_t kBurstLanes = 64;
  bool burst_probe_enabled_ = true;
  std::array<FlowVerdictCache::KeyWordArray, kBurstLanes> burst_words_{};
  std::array<const FlowVerdict*, kBurstLanes> burst_verdicts_{};
  std::array<u32, kBurstLanes> burst_fallback_{};
  std::array<u32, kBurstLanes> burst_slot_{};
  std::vector<Phv> burst_phv_ = std::vector<Phv>(kBurstLanes);
  RelaxedCounter kernel_pkts_;
  RelaxedCounter kernel_fallback_pkts_;
  RelaxedCounter kernel_record_fills_;
  std::array<RelaxedCounter, kKernelShapeCount> kernel_shape_pkts_;
};

}  // namespace menshen
