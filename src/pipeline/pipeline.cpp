#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/exec_tier.hpp"
#include "packet/arena.hpp"
#include "pipeline/plan_exec.hpp"

namespace menshen {

Pipeline::Pipeline(PipelineTiming timing, bool reconfig_on_data_path)
    : timing_(timing),
      filter_(timing.deparsers, reconfig_on_data_path),
      stages_(params::kNumStages) {}

u64 Pipeline::ConfigVersionSum() const {
  // Every configuration mutation path bumps one of these monotonic
  // counters, so the sum moves on any write — epoch commits, direct
  // table writes from tests, and ResizeShards config-log replay alike.
  // The segment tables count too: a compiled run holds each stage's
  // resolved segment view.
  u64 sum = parser_.table().version() + deparser_.table().version();
  for (const Stage& stage : stages_)
    sum += stage.key_extractor().version() + stage.key_mask().version() +
           stage.cam().version() + stage.tcam().version() +
           stage.vliw_version() + stage.stateful().segment_table().version();
  return sum;
}

Pipeline::CompiledRun& Pipeline::RunFor(ModuleId module, u64 stamp) {
  const std::size_t row = parser_.table().IndexFor(module);
  CompiledRun& run = runs_[row];
  if (run.stamp == stamp && run.module == module) return run;

  if (run.stamp != stamp) {
    // The plan and the flow-cache row belong to the row, not the module:
    // an aliasing module ID reuses them at an unchanged stamp.
    run.plan = CompileModuleExecPlan(parser_.table().At(row),
                                     deparser_.table().At(row),
                                     stages_.data(), stages_.size(), row);
    run.flow = &flow_cache_.EnsureRow(row, stamp, stages_.data(),
                                      stages_.size(), run.plan);
    run.stamp = stamp;
  }
  run.module = module;
  for (std::size_t s = 0; s < stages_.size(); ++s)
    stages_[s].ResolveRun(module, run.ctx[s]);
  // unordered_map references are stable across inserts.
  run.fwd = &forwarded_[module.value()];
  run.drop = &dropped_[module.value()];

  run.batch_kernel = nullptr;
  run.stream_kernel = nullptr;
  if (!run.plan.kernel.wide_or_ternary &&
      BuildKernelRun(stages_.data(), stages_.size(), run.ctx.data(), run.plan,
                     run.kernel)) {
    run.shape = KernelShapeId(run.kernel.num_steps, run.plan.kernel.stateful,
                              run.plan.kernel.multi_slot, false);
    run.batch_kernel = KernelRegistry()[run.shape];
    run.stream_kernel = StreamKernelRegistry()[run.shape];
  }
  return run;
}

const ModuleExecPlan& Pipeline::ExecPlanFor(ModuleId module) {
  return RunFor(module, ConfigVersionSum()).plan;
}

Pipeline::KernelStats Pipeline::KernelSnapshot() const {
  KernelStats s;
  s.pkts = kernel_pkts_.load();
  s.fallback_pkts = kernel_fallback_pkts_.load();
  s.record_fills = kernel_record_fills_.load();
  for (std::size_t i = 0; i < kKernelShapeCount; ++i)
    s.shape_pkts[i] = kernel_shape_pkts_[i].load();
  return s;
}

ModuleExecPlan Pipeline::DescribeRow(ModuleId module) const {
  const std::size_t row = parser_.table().IndexFor(module);
  return CompileModuleExecPlan(parser_.table().At(row),
                               deparser_.table().At(row), stages_.data(),
                               stages_.size(), row);
}

FlowRowState& Pipeline::FlowRowFor(ModuleId module) {
  return *RunFor(module, ConfigVersionSum()).flow;
}

void Pipeline::RunResolveCached(Packet& pkt, PipelineResult& result, Phv& phv,
                                const ModuleExecPlan& plan, FlowRowState& frow,
                                FlowVerdictCache::RunAccounting& acct,
                                ModuleId module, FlowVerdict& v, bool hit,
                                const FlowVerdictCache::KeyWordArray& words,
                                u64& fwd, u64& drop) {
  if (hit) {
    flow_cache_.NoteHit();
    FlowVerdictCache::ApplyEffects(v, phv);
    result.exec_tier = static_cast<u8>(ExecTier::kFlowCacheHit);
    result.exec_steps = 0;
  } else {
    flow_cache_.NoteMiss();
    flow_cache_.BeginFill(frow, v, module, words);
    // The miss falls into the straight-line recording kernel; only
    // ternary-probing eligible rows keep the interpreted walk.
    if (kernels_enabled_ && KernelRecordVerdict(frow, stages_.data(),
                                                stages_.size(), module, phv,
                                                v)) {
      kernel_record_fills_.Add();
      result.exec_tier = static_cast<u8>(ExecTier::kKernel);
      result.exec_steps = plan.kernel.potential_steps;
    } else {
      FlowVerdictCache::BuildVerdict(frow, stages_.data(), stages_.size(),
                                     module, phv, v);
      result.exec_tier = static_cast<u8>(ExecTier::kInterpreted);
      result.exec_steps = static_cast<u8>(stages_.size());
    }
    v.valid = true;
  }
  FlowVerdictCache::Accumulate(acct, v, stages_.size());

  // Tail identical to RunOne: multicast ports resolve live (the group
  // table has no version counter, so only the group id is cached).
  const u16 group = phv.meta_u16(meta::kMulticastGroup);
  if (group != 0) {
    if (const auto* ports = MulticastGroup(group)) pkt.multicast_ports = *ports;
  }

  deparser_.DeparsePlanned(phv, pkt, plan.deparse);

  if (pkt.disposition == Disposition::kDrop)
    ++drop;
  else
    ++fwd;

  result.output = std::move(pkt);
}

void Pipeline::RunOneCached(Packet& pkt, PipelineResult& result,
                            const ModuleExecPlan& plan, FlowRowState& frow,
                            FlowVerdictCache::RunAccounting& acct,
                            ModuleId module, u64& fwd, u64& drop) {
  ++total_processed_;
  // Parse straight into the emplaced result PHV (the Phv constructor
  // zero-fills): no Clear, no final 128-byte copy-out.
  Phv& phv = result.final_phv.emplace();
  PlannedParseInto(pkt, phv, plan.parse);

  FlowVerdictCache::KeyWordArray words;
  FlowVerdictCache::KeyWords(frow, stages_.size(), phv, words);
  bool hit = false;
  FlowVerdict& v = flow_cache_.SlotFor(frow, module, words, hit);
  RunResolveCached(pkt, result, phv, plan, frow, acct, module, v, hit, words,
                   fwd, drop);
}

void Pipeline::BatchRunBurstCached(Packet* batch, PipelineResult* out,
                                   const u32* idx, std::size_t n,
                                   const ModuleExecPlan& plan,
                                   FlowRowState& frow,
                                   FlowVerdictCache::RunAccounting& acct,
                                   ModuleId module, u64& fwd, u64& drop) {
  for (std::size_t off = 0; off < n; off += kBurstLanes) {
    const std::size_t c = std::min(kBurstLanes, n - off);
    const u32* lanes = idx + off;
    // Phase 1: parse each lane into its result's emplaced PHV and
    // gather the probing stages' key words into the contiguous scratch
    // (skip stages keep the pre-zeroed constant 0).
    for (std::size_t k = 0; k < c; ++k) {
      const std::size_t i = lanes[k];
      if (k + 4 < c) {
        __builtin_prefetch(batch[lanes[k + 4]].bytes().bytes().data());
        __builtin_prefetch(&out[lanes[k + 4]], 1);
      }
      Phv& phv = out[i].final_phv.emplace();
      PlannedParseInto(batch[i], phv, plan.parse);
      FlowVerdictCache::KeyWordArray& w = burst_words_[k];
      w = {};
      for (u8 g = 0; g < plan.gather.count; ++g) {
        const std::size_t s = plan.gather.stages[g];
        const FlowStageKey& key = frow.keys[s];
        if (key.skip) continue;
        w[s] = key.kx.ExtractKeyWord0(phv, key.active_slots, key.pred_active) &
               key.word_mask;
      }
    }
    // Phase 2: hashed probe with slot prefetch-ahead; unresolvable
    // lanes compact into the fallback list.
    std::size_t fallback_count = 0;
    const std::size_t nhits = flow_cache_.BurstProbe(
        frow, module, burst_words_.data(), c, burst_verdicts_.data(),
        burst_fallback_.data(), fallback_count, burst_slot_.data());
    flow_cache_.NoteBurst(c, fallback_count);
    total_processed_ += c;
    if (nhits != 0) flow_cache_.NoteHit(nhits);
    // Phase 3a: replay the hit lanes while their slots are still
    // untouched (phase 3b's fills mutate slot contents; the verdict
    // pointers stay stable because fills never reallocate the row).
    for (std::size_t k = 0; k < c; ++k) {
      const FlowVerdict* v = burst_verdicts_[k];
      if (v == nullptr) continue;
      const std::size_t i = lanes[k];
      Packet& pkt = batch[i];
      PipelineResult& result = out[i];
      Phv& phv = *result.final_phv;
      FlowVerdictCache::ApplyEffects(*v, phv);
      result.exec_tier = static_cast<u8>(ExecTier::kFlowCacheHit);
      result.exec_steps = 0;
      FlowVerdictCache::Accumulate(acct, *v, stages_.size());
      const u16 group = phv.meta_u16(meta::kMulticastGroup);
      if (group != 0) {
        if (const auto* ports = MulticastGroup(group))
          pkt.multicast_ports = *ports;
      }
      deparser_.DeparsePlanned(phv, pkt, plan.deparse);
      if (pkt.disposition == Disposition::kDrop)
        ++drop;
      else
        ++fwd;
      result.output = std::move(pkt);
    }
    // Phase 3b: resolve fallback lanes in lane order — each re-probes
    // its slot (hash reused via burst_slot_) against the then-current
    // content, so outcomes, fills and eviction bookkeeping land exactly
    // as the scalar loop would produce them.
    for (std::size_t f = 0; f < fallback_count; ++f) {
      const std::size_t k = burst_fallback_[f];
      const std::size_t i = lanes[k];
      bool hit = false;
      FlowVerdict& v = FlowVerdictCache::SlotAt(frow, burst_slot_[k], module,
                                                burst_words_[k], hit);
      RunResolveCached(batch[i], out[i], *out[i].final_phv, plan, frow, acct,
                       module, v, hit, burst_words_[k], fwd, drop);
    }
  }
}

void Pipeline::RunOneReplay(Packet& pkt, PipelineResult& result,
                            const ModuleExecPlan& plan, const FlowVerdict& v,
                            u64& fwd, u64& drop) {
  ++total_processed_;
  Phv& phv = result.final_phv.emplace();
  PlannedParseInto(pkt, phv, plan.parse);
  FlowVerdictCache::ApplyEffects(v, phv);
  result.exec_tier = static_cast<u8>(ExecTier::kFlowCacheHit);
  result.exec_steps = 0;

  const u16 group = phv.meta_u16(meta::kMulticastGroup);
  if (group != 0) {
    if (const auto* ports = MulticastGroup(group)) pkt.multicast_ports = *ports;
  }

  deparser_.DeparsePlanned(phv, pkt, plan.deparse);

  if (pkt.disposition == Disposition::kDrop)
    ++drop;
  else
    ++fwd;

  result.output = std::move(pkt);
}

void Pipeline::RunOne(Packet& pkt, PipelineResult& result,
                      const CompiledRun& run) {
  ++total_processed_;
  Phv& phv = result.final_phv.emplace();
  PlannedParseInto(pkt, phv, run.plan.parse);
  for (std::size_t s = 0; s < stages_.size(); ++s)
    stages_[s].ProcessRun(phv, run.ctx[s]);
  result.exec_tier = static_cast<u8>(ExecTier::kInterpreted);
  result.exec_steps = static_cast<u8>(stages_.size());

  // Multicast resolution (traffic-manager side, consulted by the deparser).
  const u16 group = phv.meta_u16(meta::kMulticastGroup);
  if (group != 0) {
    if (const auto* ports = MulticastGroup(group)) pkt.multicast_ports = *ports;
  }

  deparser_.DeparsePlanned(phv, pkt, run.plan.deparse);

  if (pkt.disposition == Disposition::kDrop)
    ++*run.drop;
  else
    ++*run.fwd;

  result.output = std::move(pkt);
}

void Pipeline::RunSpan(Packet* batch, PipelineResult* out, const u32* idx,
                       std::size_t n, CompiledRun& run) {
  if (kernels_enabled_ && run.batch_kernel != nullptr) {
    KernelBatchCtx ctx;
    ctx.batch = batch;
    ctx.out = out;
    ctx.idx = idx;
    ctx.n = n;
    ctx.mcast = &mcast_groups_;
    ctx.fwd = run.fwd;
    ctx.drop = run.drop;
    ctx.snapshot = &kernel_snapshot_scratch_;
    run.batch_kernel(run.kernel, ctx);
    FlushKernelCounters(stages_.data(), run.kernel);
    total_processed_ += n;
    kernel_pkts_.Add(n);
    kernel_shape_pkts_[run.shape].Add(n);
    return;
  }
  kernel_fallback_pkts_.Add(n);
  for (std::size_t k = 0; k < n; ++k) RunOne(batch[idx[k]], out[idx[k]], run);
}

PipelineResult Pipeline::Process(Packet pkt) {
  // Single-packet front door: a module run of length one through the
  // same compiled-plan machinery as ProcessBatchInto (the dataplane
  // differential tests pin the two byte-for-byte).
  //
  // Disposition fields are per-device simulation sidebands, not packet
  // bytes: a packet entering this pipeline carries none of the previous
  // device's forwarding decisions.
  pkt.disposition = Disposition::kForward;
  pkt.egress_port = 0;
  pkt.multicast_ports.clear();

  PipelineResult result;
  result.filter_verdict = filter_.Classify(pkt);
  if (result.filter_verdict != FilterVerdict::kData) {
    if (result.filter_verdict == FilterVerdict::kDropBitmap)
      ++dropped_[pkt.vid().value()];
    return result;
  }

  const ModuleId module = pkt.vid();
  CompiledRun& run = RunFor(module, ConfigVersionSum());
  // Constant-key stages are accounted per run — required on the cached
  // path too, which skips ProcessRun but relies on that accounting.
  AccountRun(run, 1);
  if (run.flow->eligible) {
    FlowVerdictCache::RunAccounting acct;
    RunOneCached(pkt, result, run.plan, *run.flow, acct, module, *run.fwd,
                 *run.drop);
    FlowVerdictCache::FlushAccounting(acct, *run.flow, stages_.data(),
                                      stages_.size());
  } else {
    static constexpr u32 kZeroIdx = 0;
    RunSpan(&pkt, &result, &kZeroIdx, 1, run);
  }
  return result;
}

PipelineResult Pipeline::ProcessUnplanned(Packet pkt) {
  // The linear reference path: full parse, per-packet overlay reads,
  // full deparse.  tests/test_exec_plan.cpp pins the compiled-plan paths
  // against this on every tenant-observable output.
  pkt.disposition = Disposition::kForward;
  pkt.egress_port = 0;
  pkt.multicast_ports.clear();

  PipelineResult result;
  result.filter_verdict = filter_.Classify(pkt);
  if (result.filter_verdict != FilterVerdict::kData) {
    if (result.filter_verdict == FilterVerdict::kDropBitmap)
      ++dropped_[pkt.vid().value()];
    return result;
  }

  ++total_processed_;
  Phv phv = parser_.Parse(pkt);
  for (Stage& stage : stages_) phv = stage.Process(phv);

  const u16 group = phv.meta_u16(meta::kMulticastGroup);
  if (group != 0) {
    if (const auto* ports = MulticastGroup(group)) pkt.multicast_ports = *ports;
  }

  deparser_.Deparse(phv, pkt);

  if (pkt.disposition == Disposition::kDrop)
    ++dropped_[phv.module_id.value()];
  else
    ++forwarded_[phv.module_id.value()];

  result.exec_tier = static_cast<u8>(ExecTier::kUnplanned);
  result.exec_steps = static_cast<u8>(stages_.size());
  result.final_phv = phv;
  result.output = std::move(pkt);
  return result;
}

void Pipeline::ProcessBatchInto(std::vector<Packet>&& batch,
                                std::vector<PipelineResult>& out) {
  const std::size_t base = out.size();
  const std::size_t n = batch.size();
  out.reserve(base + n);

  // One fused pass: classify packets in arrival order (the filter's
  // round-robin buffer-tag cursor and drop counters advance exactly as
  // on the per-packet path, and non-data packets finish outright), and
  // execute each module run — a maximal span of consecutive data
  // packets sharing a tenant; non-data packets never touch the stages,
  // so they do not break a run — the moment the tenant changes, while
  // the span's packets are still cache-hot from classification.  (The
  // earlier classify-everything-then-execute structure evicted a span
  // from L1 between the two passes.)
  const u64 stamp = ConfigVersionSum();
  data_idx_scratch_.clear();
  std::size_t span_start = 0;  // index into data_idx_scratch_
  ModuleId span_module(0);
  for (std::size_t i = 0; i <= n; ++i) {
    if (i < n) {
      // First touch of each packet: hide the LLC latency of the batch
      // stream (struct first, then the dependent byte-buffer pointer).
      if (i + 8 < n) __builtin_prefetch(&batch[i + 8]);
      if (i + 4 < n) __builtin_prefetch(batch[i + 4].bytes().bytes().data());
      Packet& pkt = batch[i];
      PipelineResult& result = out.emplace_back();

      // Same sideband reset as Process(): no forwarding decision
      // survives from a previous device.
      pkt.disposition = Disposition::kForward;
      pkt.egress_port = 0;
      pkt.multicast_ports.clear();

      result.filter_verdict = filter_.Classify(pkt);
      if (result.filter_verdict != FilterVerdict::kData) {
        if (result.filter_verdict == FilterVerdict::kDropBitmap)
          ++dropped_[pkt.vid().value()];
        continue;
      }
      const ModuleId vid = pkt.vid();
      if (data_idx_scratch_.size() == span_start || vid == span_module) {
        // Extends the open span (or opens the first one).
        span_module = vid;
        data_idx_scratch_.push_back(static_cast<u32>(i));
        continue;
      }
      // Tenant change: execute the open span below, then start a new
      // one with this packet.
    } else if (data_idx_scratch_.size() == span_start) {
      break;  // end of batch, no span left to flush
    }

    const ModuleId module = span_module;
    const std::size_t a = span_start;
    const std::size_t b = data_idx_scratch_.size();

    CompiledRun& run = RunFor(module, stamp);
    AccountRun(run, b - a);
    const ModuleExecPlan& plan = run.plan;
    u64& fwd = *run.fwd;
    u64& drop = *run.drop;
    FlowRowState& frow = *run.flow;
    if (frow.eligible) {
      // Provably stateless row: every packet goes through the
      // flow-verdict cache; counter deltas flush once per run.
      FlowVerdictCache::RunAccounting acct;
      std::size_t k = a;
      if (frow.all_constant && b - a > 1) {
        // Every packet shares the all-zero key word array, so one probe
        // covers the run: the first packet probes (filling on a miss)
        // and the rest replay the now-resident verdict with no
        // per-packet extraction or hashing.  Constant-key stages are
        // accounted by AccountRun for the whole run and an all-constant
        // verdict owes no per-packet probe deltas, so the replayed
        // packets only need the bulk hit count.
        const std::size_t i0 = data_idx_scratch_[k++];
        RunOneCached(batch[i0], out[base + i0], plan, frow, acct, module,
                     fwd, drop);
        static constexpr FlowVerdictCache::KeyWordArray kZeroWords{};
        bool hit = false;
        const FlowVerdict& v =
            flow_cache_.SlotFor(frow, module, kZeroWords, hit);
        if (hit) {
          flow_cache_.NoteHit(b - k);
          if (plan.parse.count == 0 && plan.deparse.count == 0 && k < b) {
            // Run-constant replay: with no parse or deparse byte-moves
            // the replayed PHV is identical across the run except the
            // per-packet pipeline metadata — and no cached effect can
            // touch those bytes (effects write containers, kUser,
            // kDstPort, kFlags or kMulticastGroup; never kSrcPort,
            // kPktLen or kBufferTag).  So the verdict's PHV, the
            // multicast resolution and the disposition are computed
            // once, and each packet just copies + patches.
            Phv tmpl;
            tmpl.module_id = module;
            FlowVerdictCache::ApplyEffects(v, tmpl);
            const u16 group = tmpl.meta_u16(meta::kMulticastGroup);
            const std::vector<u16>* mports =
                group != 0 ? MulticastGroup(group) : nullptr;
            const bool discard = tmpl.discard_flag();
            const bool multicast =
                !discard && mports != nullptr && !mports->empty();
            const u16 egress = tmpl.meta_u16(meta::kDstPort);
            const Disposition disp = discard      ? Disposition::kDrop
                                     : multicast ? Disposition::kMulticast
                                                 : Disposition::kForward;
            (discard ? drop : fwd) += b - k;
            total_processed_ += b - k;
            for (; k < b; ++k) {
              const std::size_t i = data_idx_scratch_[k];
              if (k + 4 < b) {
                const std::size_t pi = data_idx_scratch_[k + 4];
                __builtin_prefetch(batch[pi].bytes().bytes().data());
                __builtin_prefetch(&out[base + pi], 1);
              }
              Packet& pkt = batch[i];
              PipelineResult& r = out[base + i];
              r.exec_tier = static_cast<u8>(ExecTier::kFlowCacheHit);
              r.exec_steps = 0;
              Phv& phv = r.final_phv.emplace(tmpl);
              FillPipelineMetadata(pkt, phv);
              if (multicast) pkt.multicast_ports = *mports;
              pkt.disposition = disp;
              if (disp == Disposition::kForward) pkt.egress_port = egress;
              r.output = std::move(pkt);
            }
          }
          for (; k < b; ++k) {
            const std::size_t i = data_idx_scratch_[k];
            if (k + 4 < b) {
              const std::size_t pi = data_idx_scratch_[k + 4];
              __builtin_prefetch(batch[pi].bytes().bytes().data());
              __builtin_prefetch(&out[base + pi], 1);
            }
            RunOneReplay(batch[i], out[base + i], plan, v, fwd, drop);
          }
        }
      }
      if (burst_probe_enabled_ && !frow.all_constant && b - k >= 2) {
        // Burst-probed span (the all-constant fast path above already
        // replays without per-packet hashing, so it stays scalar).
        BatchRunBurstCached(batch.data(), out.data() + base,
                            data_idx_scratch_.data() + k, b - k, plan, frow,
                            acct, module, fwd, drop);
        k = b;
      }
      for (; k < b; ++k) {
        const std::size_t i = data_idx_scratch_[k];
        if (k + 4 < b) {
          const std::size_t pi = data_idx_scratch_[k + 4];
          __builtin_prefetch(batch[pi].bytes().bytes().data());
          __builtin_prefetch(&out[base + pi], 1);
        }
        RunOneCached(batch[i], out[base + i], plan, frow, acct, module, fwd,
                     drop);
      }
      FlowVerdictCache::FlushAccounting(acct, frow, stages_.data(),
                                        stages_.size());
    } else {
      RunSpan(batch.data(), out.data() + base, data_idx_scratch_.data() + a,
              b - a, run);
    }
    span_start = b;
    if (i < n) {
      // The packet that closed the previous span opens the next one.
      span_module = batch[i].vid();
      data_idx_scratch_.push_back(static_cast<u32>(i));
    }
  }
}

std::vector<PipelineResult> Pipeline::ProcessBatch(
    std::vector<Packet>&& batch) {
  std::vector<PipelineResult> out;
  ProcessBatchInto(std::move(batch), out);
  return out;
}

void Pipeline::StreamRunOne(ArenaPacket& pkt, const CompiledRun& run) {
  ++total_processed_;
  Phv& phv = stream_phv_;
  phv.Clear();
  PlannedParseInto(pkt, phv, run.plan.parse);
  for (std::size_t s = 0; s < stages_.size(); ++s)
    stages_[s].ProcessRun(phv, run.ctx[s]);
  pkt.exec_tier = static_cast<u8>(ExecTier::kInterpreted);
  pkt.exec_steps = static_cast<u8>(stages_.size());

  const u16 group = phv.meta_u16(meta::kMulticastGroup);
  if (group != 0) {
    if (const auto* ports = MulticastGroup(group)) pkt.multicast_ports = *ports;
  }

  PlannedDeparseFrom(phv, pkt, run.plan.deparse);

  if (pkt.disposition == Disposition::kDrop)
    ++*run.drop;
  else
    ++*run.fwd;
}

void Pipeline::StreamResolveCached(ArenaPacket& pkt, Phv& phv,
                                   const ModuleExecPlan& plan,
                                   FlowRowState& frow,
                                   FlowVerdictCache::RunAccounting& acct,
                                   ModuleId module, FlowVerdict& v, bool hit,
                                   const FlowVerdictCache::KeyWordArray& words,
                                   u64& fwd, u64& drop) {
  if (hit) {
    flow_cache_.NoteHit();
    FlowVerdictCache::ApplyEffects(v, phv);
    pkt.exec_tier = static_cast<u8>(ExecTier::kFlowCacheHit);
    pkt.exec_steps = 0;
  } else {
    flow_cache_.NoteMiss();
    flow_cache_.BeginFill(frow, v, module, words);
    if (kernels_enabled_ && KernelRecordVerdict(frow, stages_.data(),
                                                stages_.size(), module, phv,
                                                v)) {
      kernel_record_fills_.Add();
      pkt.exec_tier = static_cast<u8>(ExecTier::kKernel);
      pkt.exec_steps = plan.kernel.potential_steps;
    } else {
      FlowVerdictCache::BuildVerdict(frow, stages_.data(), stages_.size(),
                                     module, phv, v);
      pkt.exec_tier = static_cast<u8>(ExecTier::kInterpreted);
      pkt.exec_steps = static_cast<u8>(stages_.size());
    }
    v.valid = true;
  }
  FlowVerdictCache::Accumulate(acct, v, stages_.size());

  const u16 group = phv.meta_u16(meta::kMulticastGroup);
  if (group != 0) {
    if (const auto* ports = MulticastGroup(group)) pkt.multicast_ports = *ports;
  }

  PlannedDeparseFrom(phv, pkt, plan.deparse);

  if (pkt.disposition == Disposition::kDrop)
    ++drop;
  else
    ++fwd;
}

void Pipeline::StreamRunOneCached(ArenaPacket& pkt, const ModuleExecPlan& plan,
                                  FlowRowState& frow,
                                  FlowVerdictCache::RunAccounting& acct,
                                  ModuleId module, u64& fwd, u64& drop) {
  ++total_processed_;
  Phv& phv = stream_phv_;
  phv.Clear();
  PlannedParseInto(pkt, phv, plan.parse);

  FlowVerdictCache::KeyWordArray words;
  FlowVerdictCache::KeyWords(frow, stages_.size(), phv, words);
  bool hit = false;
  FlowVerdict& v = flow_cache_.SlotFor(frow, module, words, hit);
  StreamResolveCached(pkt, phv, plan, frow, acct, module, v, hit, words, fwd,
                      drop);
}

void Pipeline::StreamRunBurstCached(ArenaPacket* const* pkts, const u32* idx,
                                    std::size_t n, const ModuleExecPlan& plan,
                                    FlowRowState& frow,
                                    FlowVerdictCache::RunAccounting& acct,
                                    ModuleId module, u64& fwd, u64& drop) {
  for (std::size_t off = 0; off < n; off += kBurstLanes) {
    const std::size_t c = std::min(kBurstLanes, n - off);
    const u32* lanes = idx + off;
    // Phase 1: parse each lane into its own scratch PHV (it must
    // survive to the replay phase) and gather the probing stages' key
    // words into the contiguous scratch array; skip stages keep the
    // pre-zeroed constant 0.
    for (std::size_t k = 0; k < c; ++k) {
      ArenaPacket& pkt = *pkts[lanes[k]];
      Phv& phv = burst_phv_[k];
      phv.Clear();
      PlannedParseInto(pkt, phv, plan.parse);
      FlowVerdictCache::KeyWordArray& w = burst_words_[k];
      w = {};
      for (u8 g = 0; g < plan.gather.count; ++g) {
        const std::size_t s = plan.gather.stages[g];
        const FlowStageKey& key = frow.keys[s];
        if (key.skip) continue;
        w[s] = key.kx.ExtractKeyWord0(phv, key.active_slots, key.pred_active) &
               key.word_mask;
      }
    }
    // Phase 2: hashed probe with slot prefetch-ahead; unresolvable
    // lanes compact into the fallback list and their slot index rides
    // the packet's scratch sideband into phase 3b.
    std::size_t fallback_count = 0;
    const std::size_t nhits = flow_cache_.BurstProbe(
        frow, module, burst_words_.data(), c, burst_verdicts_.data(),
        burst_fallback_.data(), fallback_count, burst_slot_.data());
    flow_cache_.NoteBurst(c, fallback_count);
    total_processed_ += c;
    if (nhits != 0) flow_cache_.NoteHit(nhits);
    // Phase 3a: replay the hit lanes while their slots are still
    // untouched (phase 3b's fills mutate slot contents; the verdict
    // pointers stay stable because fills never reallocate the row).
    for (std::size_t k = 0; k < c; ++k) {
      const FlowVerdict* v = burst_verdicts_[k];
      if (v == nullptr) {
        pkts[lanes[k]]->scratch = burst_slot_[k];
        continue;
      }
      ArenaPacket& pkt = *pkts[lanes[k]];
      Phv& phv = burst_phv_[k];
      FlowVerdictCache::ApplyEffects(*v, phv);
      pkt.exec_tier = static_cast<u8>(ExecTier::kFlowCacheHit);
      pkt.exec_steps = 0;
      FlowVerdictCache::Accumulate(acct, *v, stages_.size());
      const u16 group = phv.meta_u16(meta::kMulticastGroup);
      if (group != 0) {
        if (const auto* ports = MulticastGroup(group))
          pkt.multicast_ports = *ports;
      }
      PlannedDeparseFrom(phv, pkt, plan.deparse);
      if (pkt.disposition == Disposition::kDrop)
        ++drop;
      else
        ++fwd;
    }
    // Phase 3b: resolve fallback lanes in lane order — each re-probes
    // its slot (hash carried in the scratch sideband) against the
    // then-current content, so outcomes, fills and eviction bookkeeping
    // land exactly as the scalar loop would produce them.
    for (std::size_t f = 0; f < fallback_count; ++f) {
      const std::size_t k = burst_fallback_[f];
      ArenaPacket& pkt = *pkts[lanes[k]];
      bool hit = false;
      FlowVerdict& v = FlowVerdictCache::SlotAt(
          frow, static_cast<std::size_t>(pkt.scratch), module, burst_words_[k],
          hit);
      StreamResolveCached(pkt, burst_phv_[k], plan, frow, acct, module, v, hit,
                          burst_words_[k], fwd, drop);
    }
  }
}

void Pipeline::StreamRunSpan(ArenaPacket* const* pkts, const u32* idx,
                             std::size_t n, CompiledRun& run) {
  if (kernels_enabled_ && run.stream_kernel != nullptr) {
    StreamBatchCtx ctx;
    ctx.pkts = pkts;
    ctx.idx = idx;
    ctx.n = n;
    ctx.mcast = &mcast_groups_;
    ctx.fwd = run.fwd;
    ctx.drop = run.drop;
    ctx.snapshot = &kernel_snapshot_scratch_;
    ctx.work = &stream_phv_;
    run.stream_kernel(run.kernel, ctx);
    FlushKernelCounters(stages_.data(), run.kernel);
    total_processed_ += n;
    kernel_pkts_.Add(n);
    kernel_shape_pkts_[run.shape].Add(n);
    return;
  }
  kernel_fallback_pkts_.Add(n);
  for (std::size_t k = 0; k < n; ++k) StreamRunOne(*pkts[idx[k]], run);
}

void Pipeline::ProcessStreamBurst(ArenaPacket* const* pkts, std::size_t n) {
  // Same fused classify + module-run structure as ProcessBatchInto, over
  // in-place arena buffers: spans of consecutive same-tenant data
  // packets execute through the identical three-tier ladder the moment
  // the tenant changes.  The filter's round-robin cursor and drop
  // counters advance exactly as on the batched path.
  const u64 stamp = ConfigVersionSum();
  data_idx_scratch_.clear();
  std::size_t span_start = 0;  // index into data_idx_scratch_
  ModuleId span_module(0);
  for (std::size_t i = 0; i <= n; ++i) {
    if (i < n) {
      // ArenaPacket's byte array is its first member: one prefetch
      // covers the headers, a second at +kDataRoom the sidebands.
      if (i + 4 < n) {
        const char* np = reinterpret_cast<const char*>(pkts[i + 4]);
        __builtin_prefetch(np);
        __builtin_prefetch(np + ArenaPacket::kDataRoom);
      }
      ArenaPacket& pkt = *pkts[i];

      // Same sideband reset as Process(): no forwarding decision
      // survives from a previous device.
      pkt.disposition = Disposition::kForward;
      pkt.egress_port = 0;
      pkt.multicast_ports.clear();
      pkt.exec_tier = static_cast<u8>(ExecTier::kNone);
      pkt.exec_steps = 0;

      const FilterVerdict verdict = filter_.Classify(pkt);
      pkt.verdict = static_cast<u8>(verdict);
      if (verdict != FilterVerdict::kData) {
        if (verdict == FilterVerdict::kDropBitmap)
          ++dropped_[pkt.vid().value()];
        continue;
      }
      const ModuleId vid = pkt.vid();
      if (data_idx_scratch_.size() == span_start || vid == span_module) {
        span_module = vid;
        data_idx_scratch_.push_back(static_cast<u32>(i));
        continue;
      }
    } else if (data_idx_scratch_.size() == span_start) {
      break;  // end of burst, no span left to flush
    }

    const ModuleId module = span_module;
    const std::size_t a = span_start;
    const std::size_t b = data_idx_scratch_.size();

    CompiledRun& run = RunFor(module, stamp);
    AccountRun(run, b - a);
    FlowRowState& frow = *run.flow;
    if (frow.eligible) {
      FlowVerdictCache::RunAccounting acct;
      if (burst_probe_enabled_ && b - a >= 2) {
        StreamRunBurstCached(pkts, data_idx_scratch_.data() + a, b - a,
                             run.plan, frow, acct, module, *run.fwd,
                             *run.drop);
      } else {
        for (std::size_t k = a; k < b; ++k) {
          StreamRunOneCached(*pkts[data_idx_scratch_[k]], run.plan, frow, acct,
                             module, *run.fwd, *run.drop);
        }
      }
      FlowVerdictCache::FlushAccounting(acct, frow, stages_.data(),
                                        stages_.size());
    } else {
      StreamRunSpan(pkts, data_idx_scratch_.data() + a, b - a, run);
    }
    span_start = b;
    if (i < n) {
      span_module = pkts[i]->vid();
      data_idx_scratch_.push_back(static_cast<u32>(i));
    }
  }
}

void Pipeline::ApplyWrite(const ConfigWrite& write) {
  if (write.payload.size() != EntryBytesFor(write.kind))
    throw std::invalid_argument("config payload size mismatch for " +
                                std::string(ResourceKindName(write.kind)));

  const auto stage_index = [&]() -> std::size_t {
    if (write.stage >= stages_.size())
      throw std::out_of_range("config write addresses nonexistent stage");
    return write.stage;
  };

  switch (write.kind) {
    case ResourceKind::kParserTable:
      parser_.table().Write(write.index, ParserEntry::Decode(write.payload));
      break;
    case ResourceKind::kDeparserTable:
      deparser_.table().Write(write.index,
                              DeparserEntry::Decode(write.payload));
      break;
    case ResourceKind::kKeyExtractor:
      stages_[stage_index()].key_extractor().Write(
          write.index, KeyExtractorEntry::Decode(write.payload));
      break;
    case ResourceKind::kKeyMask:
      stages_[stage_index()].key_mask().Write(
          write.index, KeyMaskEntry::Decode(write.payload));
      break;
    case ResourceKind::kCamEntry:
      stages_[stage_index()].cam().Write(write.index,
                                         CamEntry::Decode(write.payload));
      break;
    case ResourceKind::kVliwAction:
      stages_[stage_index()].WriteVliw(write.index,
                                       VliwEntry::Decode(write.payload));
      break;
    case ResourceKind::kSegmentTable:
      stages_[stage_index()].stateful().segment_table().Write(
          write.index, SegmentEntry::Decode(write.payload));
      break;
    case ResourceKind::kTcamEntry:
      stages_[stage_index()].tcam().Write(write.index,
                                          TcamEntry::Decode(write.payload));
      break;
  }
  ++config_writes_;
  filter_.IncrementReconfigCounter();
}

void Pipeline::SetMulticastGroup(u16 group, std::vector<u16> ports) {
  if (group == 0)
    throw std::invalid_argument("multicast group 0 means 'no multicast'");
  mcast_groups_[group] = std::move(ports);
}

const std::vector<u16>* Pipeline::MulticastGroup(u16 group) const {
  const auto it = mcast_groups_.find(group);
  return it == mcast_groups_.end() ? nullptr : &it->second;
}

std::vector<ModuleId> Pipeline::ActiveModules() const {
  std::set<u16> ids;
  for (const auto& [id, count] : forwarded_)
    if (count != 0) ids.insert(id);
  for (const auto& [id, count] : dropped_)
    if (count != 0) ids.insert(id);
  std::vector<ModuleId> out;
  out.reserve(ids.size());
  for (const u16 id : ids) out.emplace_back(id);
  return out;
}

u64 Pipeline::forwarded(ModuleId m) const {
  const auto it = forwarded_.find(m.value());
  return it == forwarded_.end() ? 0 : it->second;
}

u64 Pipeline::dropped(ModuleId m) const {
  const auto it = dropped_.find(m.value());
  return it == dropped_.end() ? 0 : it->second;
}

}  // namespace menshen
