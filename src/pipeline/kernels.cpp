#include "pipeline/kernels.hpp"

#include <cstring>

#include "common/exec_tier.hpp"

#include "packet/arena.hpp"
#include "pipeline/action_engine.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/plan_exec.hpp"

namespace menshen {

namespace {

/// One step against the evolving PHV.  kMultiSlot=false is the
/// single-slot specialization: every VLIW plan reachable through the
/// row has at most one active slot, so there is never a snapshot and
/// never a slot loop (count <= 1 implies in_place_safe).
template <bool kMultiSlot>
inline void RunStep(KernelStep& st, Phv& phv, Phv& snapshot) {
  const VliwEntry* vliw;
  const VliwPlan* plan;
  if (st.constant) {
    // Resolved by Stage::ResolveRun, accounted per run by AccountRun.
    vliw = st.const_vliw;
    plan = st.const_plan;
  } else {
    u64 key;
    if (st.key_nparts >= 0) {
      // Precompiled extraction: raw big-endian loads at fixed PHV
      // offsets (BuildKernelRun resolved the containers ahead of time).
      const u8* const pb = phv.raw().data();
      u64 w = 0;
      for (int j = 0; j < st.key_nparts; ++j) {
        const KeyExtractorEntry::Word0Part& p =
            st.key_parts[static_cast<std::size_t>(j)];
        u64 v;
        if (p.width == 4) {
          u32 t;
          std::memcpy(&t, pb + p.phv_off, 4);
          v = __builtin_bswap32(t);
        } else {
          u16 t;
          std::memcpy(&t, pb + p.phv_off, 2);
          v = __builtin_bswap16(t);
        }
        w |= v << p.lsb;
      }
      key = w & st.word_mask;
    } else {
      key = st.kx->ExtractKeyWord0(phv, st.active_slots, st.pred_active) &
            st.word_mask;
    }
    // Quiet probe with a last-key memo — the CAM cannot change while
    // the compiled run holding this step lives, so a repeated key
    // replays the previous outcome without re-hashing.
    // Counter deltas accumulate below and flush once per run.
    if (!st.memo_valid || key != st.memo_key) {
      st.memo_valid = true;
      st.memo_key = key;
      st.memo_hit = false;
      if (st.word_index != nullptr) {
        const auto it = st.word_index->find(key);
        if (it != st.word_index->end()) {
          st.memo_hit = true;
          st.memo_addr = it->second;
        }
      }
    }
    if (!st.memo_hit) {
      ++st.misses;
      return;  // miss: default action is a no-op
    }
    ++st.hits;
    vliw = st.vliw_table + st.memo_addr;
    plan = st.vliw_plans + st.memo_addr;
  }
  if constexpr (kMultiSlot) {
    ActionEngine::ExecuteCompiled(*vliw, *plan, phv, snapshot, st.segment);
  } else {
    if (plan->count != 0) {
      const u8 slot = plan->active[0];
      ActionEngine::ApplySingleSlot(vliw->slots[slot], slot, phv, st.segment);
    }
  }
}

/// The straight-line kernel: one fused function per shape.  kSteps is a
/// compile-time constant so the stage loop unrolls; parse, probes,
/// effects and deparse make a single pass over the PHV emplaced
/// directly in the packet's result (the Phv constructor zero-fills, so
/// the planned parse needs no Clear and the result needs no copy).
template <int kSteps, bool kMultiSlot>
void KernelBody(KernelRun& kr, const KernelBatchCtx& ctx) {
  for (std::size_t k = 0; k < ctx.n; ++k) {
    const std::size_t i = ctx.idx[k];
    Packet& pkt = ctx.batch[i];
    PipelineResult& result = ctx.out[i];

    // Hide the L3 latency of the streaming accesses: the next packets'
    // structs, their byte buffers (a dependent pointer, so one tier
    // further out), and the result slots about to be written.
    if (k + 8 < ctx.n) __builtin_prefetch(&ctx.batch[ctx.idx[k + 8]]);
    if (k + 4 < ctx.n) {
      const std::size_t ni = ctx.idx[k + 4];
      __builtin_prefetch(ctx.batch[ni].bytes().bytes().data());
      __builtin_prefetch(&ctx.out[ni], 1);
    }

    Phv& phv = result.final_phv.emplace();
    PlannedParseInto(pkt, phv, *kr.parse);

    for (int s = 0; s < kSteps; ++s)
      RunStep<kMultiSlot>(kr.steps[static_cast<std::size_t>(s)], phv,
                          *ctx.snapshot);

    // Multicast resolution (traffic-manager side, consulted by the
    // deparser) — identical to the interpreted tail.
    const u16 group = phv.meta_u16(meta::kMulticastGroup);
    if (group != 0) {
      const auto it = ctx.mcast->find(group);
      if (it != ctx.mcast->end()) pkt.multicast_ports = it->second;
    }

    PlannedDeparseFrom(phv, pkt, *kr.deparse);

    if (pkt.disposition == Disposition::kDrop)
      ++*ctx.drop;
    else
      ++*ctx.fwd;

    result.exec_tier = static_cast<u8>(ExecTier::kKernel);
    result.exec_steps = static_cast<u8>(kSteps);
    result.output = std::move(pkt);
  }
}

/// Streaming sibling of KernelBody: the run's packets are arena buffers
/// mutated in place.  One PHV scratch is Clear()ed and reused per packet
/// (no result emplacement, no PHV copy-out, no packet move) — the rest
/// of the per-packet sequence is byte-identical to the batched kernel:
/// planned parse, unrolled RunSteps, multicast resolution, planned
/// deparse, disjoint forwarded/dropped accounting.
template <int kSteps, bool kMultiSlot>
void StreamKernelBody(KernelRun& kr, const StreamBatchCtx& ctx) {
  Phv& phv = *ctx.work;
  for (std::size_t k = 0; k < ctx.n; ++k) {
    ArenaPacket& pkt = *ctx.pkts[ctx.idx[k]];

    // The byte array is ArenaPacket's first member, so one prefetch of
    // the packet pointer covers the header bytes and a second at
    // +kDataRoom covers the sideband metadata — no dependent pointer
    // chase like the batched path's Packet -> heap ByteBuffer hop.
    if (k + 4 < ctx.n) {
      const char* np = reinterpret_cast<const char*>(ctx.pkts[ctx.idx[k + 4]]);
      __builtin_prefetch(np);
      __builtin_prefetch(np + ArenaPacket::kDataRoom);
    }

    phv.Clear();
    PlannedParseInto(pkt, phv, *kr.parse);

    for (int s = 0; s < kSteps; ++s)
      RunStep<kMultiSlot>(kr.steps[static_cast<std::size_t>(s)], phv,
                          *ctx.snapshot);

    const u16 group = phv.meta_u16(meta::kMulticastGroup);
    if (group != 0) {
      const auto it = ctx.mcast->find(group);
      if (it != ctx.mcast->end()) pkt.multicast_ports = it->second;
    }

    PlannedDeparseFrom(phv, pkt, *kr.deparse);

    if (pkt.disposition == Disposition::kDrop)
      ++*ctx.drop;
    else
      ++*ctx.fwd;

    pkt.exec_tier = static_cast<u8>(ExecTier::kKernel);
    pkt.exec_steps = static_cast<u8>(kSteps);
  }
}

/// Both kernel registries, indexed by shape id.
struct Registries {
  std::array<KernelFn, kKernelShapeCount> batch{};
  std::array<StreamKernelFn, kKernelShapeCount> stream{};
};

/// Fills every shape id a run of kSteps steps can present.  The
/// stateful bit selects no code: a stateful id and its stateless twin
/// share one instantiation.
template <int kSteps>
void RegisterSteps(Registries& r) {
  for (const bool stateful : {false, true}) {
    r.batch[KernelShapeId(kSteps, stateful, false, false)] =
        &KernelBody<kSteps, false>;
    r.batch[KernelShapeId(kSteps, stateful, true, false)] =
        &KernelBody<kSteps, true>;
    r.stream[KernelShapeId(kSteps, stateful, false, false)] =
        &StreamKernelBody<kSteps, false>;
    r.stream[KernelShapeId(kSteps, stateful, true, false)] =
        &StreamKernelBody<kSteps, true>;
  }
}

const Registries& AllRegistries() {
  // Shapes with the wide/ternary bit set — and step counts beyond
  // kNumStages, which no run can present — stay nullptr: the dispatcher
  // routes them to the interpreted plan path.
  static const Registries registries = [] {
    Registries r;
    static_assert(params::kNumStages == 5,
                  "RegisterSteps instantiations track kNumStages");
    RegisterSteps<0>(r);
    RegisterSteps<1>(r);
    RegisterSteps<2>(r);
    RegisterSteps<3>(r);
    RegisterSteps<4>(r);
    RegisterSteps<5>(r);
    return r;
  }();
  return registries;
}

/// Shape labels, built at compile time: "s<steps>", then "+stateful"
/// and "+multislot" as flagged, the whole prefixed by "wide/ternary:"
/// when the wide bit is set.
using ShapeLabel = std::array<char, 40>;

constexpr std::array<ShapeLabel, kKernelShapeCount> BuildShapeLabels() {
  std::array<ShapeLabel, kKernelShapeCount> labels{};
  for (std::size_t id = 0; id < kKernelShapeCount; ++id) {
    std::size_t len = 0;
    const auto append = [&](const char* part) {
      for (; *part != '\0'; ++part) labels[id][len++] = *part;
    };
    if (id & 0x20u) append("wide/ternary:");
    append("s");
    labels[id][len++] = static_cast<char>('0' + (id & 0x7u));
    if (id & 0x08u) append("+stateful");
    if (id & 0x10u) append("+multislot");
  }
  return labels;
}

constexpr std::array<ShapeLabel, kKernelShapeCount> kShapeLabels =
    BuildShapeLabels();

}  // namespace

const std::array<KernelFn, kKernelShapeCount>& KernelRegistry() {
  return AllRegistries().batch;
}

const std::array<StreamKernelFn, kKernelShapeCount>& StreamKernelRegistry() {
  return AllRegistries().stream;
}

const char* KernelShapeName(u8 shape) {
  return kShapeLabels[shape & (kKernelShapeCount - 1)].data();
}

bool BuildKernelRun(const Stage* stages, std::size_t num_stages,
                    const Stage::ModuleRunContext* ctx,
                    const ModuleExecPlan& plan, KernelRun& kr) {
  kr.num_steps = 0;
  kr.parse = &plan.parse;
  kr.deparse = &plan.deparse;
  for (std::size_t s = 0; s < num_stages; ++s) {
    const Stage::ModuleRunContext& c = ctx[s];
    if (c.constant) {
      if (!c.constant_hit) continue;  // constant miss: no per-packet work
      if (c.constant_vliw_plan->count == 0) continue;  // all-nop action
      KernelStep& st = kr.steps[kr.num_steps++];
      st.constant = true;
      st.const_vliw = c.constant_vliw;
      st.const_plan = c.constant_vliw_plan;
      st.segment = c.segment;
      st.stage = static_cast<u8>(s);
      st.hits = st.misses = 0;
      continue;
    }
    if (c.kx->ternary || !c.plan->one_word)
      return false;  // wide/ternary probe: interpreted plan path
    KernelStep& st = kr.steps[kr.num_steps++];
    st.constant = false;
    st.kx = c.kx;
    st.key_nparts = c.kx->CompileWord0(c.plan->active_slots,
                                       c.plan->pred_active, st.key_parts);
    st.word_index = c.word_index;
    st.vliw_table = stages[s].vliw_table_data();
    st.vliw_plans = stages[s].vliw_plans_data();
    st.word_mask = c.plan->word_mask;
    st.active_slots = c.plan->active_slots;
    st.pred_active = c.plan->pred_active;
    st.segment = c.segment;
    st.stage = static_cast<u8>(s);
    st.memo_valid = false;
    st.hits = st.misses = 0;
  }
  return true;
}

void FlushKernelCounters(Stage* stages, KernelRun& kr) {
  for (std::size_t k = 0; k < kr.num_steps; ++k) {
    KernelStep& st = kr.steps[k];
    if (st.constant) continue;  // Stage::AccountRun owes these
    const u64 lookups = st.hits + st.misses;
    if (lookups != 0) {
      stages[st.stage].cam().NoteCachedLookups(lookups, st.hits);
      stages[st.stage].NoteCachedOutcomes(st.hits, st.misses);
    }
    st.hits = st.misses = 0;
  }
}

bool KernelRecordVerdict(const FlowRowState& row, const Stage* stages,
                         std::size_t num_stages, ModuleId module, Phv& phv,
                         FlowVerdict& v) {
  // Eligibility already proved one-word masked keys; only the ternary
  // stages still need the BitVec/TCAM walk of BuildVerdict.
  for (std::size_t s = 0; s < num_stages; ++s)
    if (row.keys[s].ternary && !row.keys[s].skip) return false;

  for (std::size_t s = 0; s < num_stages; ++s) {
    const FlowStageKey& k = row.keys[s];
    // The actual key comes from the evolving PHV, exactly like the
    // uncached path (see the induction argument in flow_cache.hpp).
    const u64 word =
        k.skip ? 0
               : (k.kx.ExtractKeyWord0(phv, k.active_slots, k.pred_active) &
                  k.word_mask);
    std::optional<std::size_t> address;
    if (const auto* h = stages[s].cam().WordIndexFor(module)) {
      const auto it = h->find(word);  // quiet: Accumulate owes the deltas
      if (it != h->end()) address = it->second;
    }
    FlowVerdict::StageOutcome& o = v.outcomes[s];
    o.probed = !k.skip;
    o.hit = address.has_value();
    o.address = static_cast<u8>(address.value_or(0));
    o.scanned = 0;
    if (!address) continue;  // miss: default action is a no-op

    FlowVerdictCache::RecordMatchedEffects(stages[s].VliwAt(*address), phv, v);
  }
  return true;
}

}  // namespace menshen
