// Differential and exhaustiveness tests for the specialized
// straight-line kernels (pipeline/kernels).
//
// The kernels are a third rewrite of the observable per-packet function:
// ProcessUnplanned (linear reference) -> interpreted compiled plans
// (pipeline/exec_plan) -> per-shape fused kernels.  Everything a tenant
// can observe — output bytes, disposition, egress, multicast set,
// per-tenant counters, and every CAM/TCAM/stage counter — must be
// byte-identical across all three, under randomized configurations,
// epoch commits, direct writes, tenant migrations and ResizeShards.
// Kernel-vs-interpreter runs additionally pin the final PHV, since both
// are planned paths.  Run under ASAN and TSAN in CI like test_exec_plan.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "compiler/dsl_parser.hpp"
#include "dataplane/dataplane.hpp"
#include "packet/arena.hpp"
#include "pipeline/exec_plan.hpp"
#include "pipeline/kernels.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/stats.hpp"
#include "test_util.hpp"

namespace menshen {
namespace {

using namespace test;

void ExpectSameOutput(const PipelineResult& ref, const PipelineResult& got,
                      const std::string& what) {
  EXPECT_EQ(ref.filter_verdict, got.filter_verdict) << what;
  ASSERT_EQ(ref.output.has_value(), got.output.has_value()) << what;
  if (ref.output) {
    EXPECT_EQ(ref.output->bytes().hex(), got.output->bytes().hex()) << what;
    EXPECT_EQ(ref.output->disposition, got.output->disposition) << what;
    EXPECT_EQ(ref.output->egress_port, got.output->egress_port) << what;
    EXPECT_EQ(ref.output->multicast_ports, got.output->multicast_ports)
        << what;
  }
}

// --- Kernel-selection exhaustiveness -------------------------------------------
//
// The dispatch contract (Pipeline::RunSpan): a run is classified into
// KernelShapeId(num_steps, stateful, multi_slot, wide_or_ternary) and
// executed by KernelRegistry()[shape] when non-null, else by the
// interpreted plan loop.  No shape may be a silent slow path: every id
// the classifier can emit has a registered kernel, and every id it
// cannot emit is provably routed to the fallback.

TEST(KernelSelection, EveryEmittableShapeHasARegisteredKernel) {
  const auto& registry = KernelRegistry();
  for (std::size_t id = 0; id < kKernelShapeCount; ++id) {
    const u8 steps = static_cast<u8>(id & 0x7u);
    const bool wide = (id & 0x20u) != 0;
    // BuildKernelRun emits at most one step per stage, so num_steps <=
    // kNumStages; RunSpan never dispatches wide_or_ternary plans (it
    // checks the plan bit before classifying).  Everything else is
    // emittable and must have a kernel.
    const bool emittable = steps <= params::kNumStages && !wide;
    if (emittable) {
      EXPECT_NE(registry[id], nullptr)
          << "shape " << KernelShapeName(static_cast<u8>(id))
          << " is classifier-emittable but has no registered kernel";
    } else {
      EXPECT_EQ(registry[id], nullptr)
          << "shape " << KernelShapeName(static_cast<u8>(id))
          << " is unreachable yet has a kernel registered";
    }
  }
}

TEST(KernelSelection, ShapeIdPacksAndNamesAreStable) {
  EXPECT_EQ(KernelShapeId(0, false, false, false), 0);
  EXPECT_EQ(KernelShapeId(5, false, false, false), 5);
  EXPECT_EQ(KernelShapeId(2, true, false, false), 0x0A);
  EXPECT_EQ(KernelShapeId(2, false, true, false), 0x12);
  EXPECT_EQ(KernelShapeId(1, true, true, true), 0x39);
  EXPECT_STREQ(KernelShapeName(KernelShapeId(2, true, false, false)),
               "s2+stateful");
  EXPECT_STREQ(KernelShapeName(KernelShapeId(1, false, true, true)),
               "wide/ternary:s1+multislot");
}

// Wide/ternary plans must route to the interpreter and count as
// fallback packets; kernel-shaped plans must count as kernel packets
// under the right shape id.  (A word-0-only ternary mask stays
// flow-cacheable and never reaches either — the wide mask here also
// blocks the cache, forcing the run through RunSpan.)
TEST(KernelSelection, DispatchCountersTellKernelFromFallback) {
  Pipeline pipe;
  const std::size_t row = 2;
  KeyExtractorEntry kx;
  kx.ternary = true;
  kx.selectors[5] = 1;
  pipe.stage(0).key_extractor().Write(row, kx);
  KeyMaskEntry mask;
  mask.mask.set_field(97, 16, 0xFFFF);  // bits above key word 0: kWideKey
  mask.mask.set_field(1, 16, 0xFFFF);
  pipe.stage(0).key_mask().Write(row, mask);

  std::vector<Packet> batch(
      8, PacketBuilder{}.vid(ModuleId(row)).frame_size(96).Build());
  (void)pipe.ProcessBatch(std::move(batch));
  Pipeline::KernelStats ks = pipe.KernelSnapshot();
  EXPECT_EQ(ks.pkts, 0u);
  EXPECT_EQ(ks.fallback_pkts, 8u);

  // A kernel-shaped tenant (calc: multi-slot writes block the flow
  // cache, the shape has a registered kernel) lands in the kernel
  // counters, under exactly one shape id, with the fallback untouched.
  ModuleManager mgr(pipe);
  const ModuleAllocation alloc = StandardAlloc(9);
  CompiledModule m = MustCompile(apps::CalcSpec(), alloc);
  MustLoad(mgr, m, alloc);
  EXPECT_TRUE(apps::InstallCalcEntries(m, 7));
  mgr.Update(m);
  std::vector<Packet> calc_batch;
  for (int i = 0; i < 8; ++i) {
    Packet p = PacketBuilder{}.vid(ModuleId(9)).frame_size(96).Build();
    p.bytes().set_u16(46, apps::kCalcOpAdd);
    p.bytes().set_u32(48, 1);
    p.bytes().set_u32(52, 2);
    calc_batch.push_back(std::move(p));
  }
  (void)pipe.ProcessBatch(std::move(calc_batch));
  ks = pipe.KernelSnapshot();
  EXPECT_EQ(ks.pkts, 8u);
  EXPECT_EQ(ks.fallback_pkts, 8u);  // unchanged
  u64 shaped = 0;
  for (const u64 n : ks.shape_pkts) shaped += n;
  EXPECT_EQ(shaped, 8u);
}

// --- Randomized single-pipeline differential -----------------------------------
//
// Three pipelines under the identical random configuration stream: one
// dispatching kernels (default), one with kernels disabled (interpreted
// plan path), one processing through ProcessUnplanned.  Ternary
// extractors and wide masks are thrown in so the wide/ternary fallback
// runs interleaved with kernel runs of every reachable shape.

ParserAction RandomParserAction(Rng& rng) {
  ParserAction a;
  a.valid = rng.Below(3) != 0;
  a.container = ContainerRef{static_cast<ContainerType>(rng.Below(3)),
                             static_cast<u8>(rng.Below(8))};
  a.bytes_from_head = static_cast<u8>(rng.Below(100));
  return a;
}

TEST(KernelsDifferential, RandomConfigsMatchInterpreterAndUnplanned) {
  Rng rng(0xC0FFEE);
  Pipeline kern;
  Pipeline interp;
  Pipeline reference;
  interp.SetKernelsEnabled(false);
  for (Pipeline* p : {&kern, &interp, &reference})
    p->SetMulticastGroup(5, {3, 4, 5});
  const std::vector<u16> vids = {2, 3, 9, 31};
  const auto all = {&kern, &interp, &reference};

  for (int round = 0; round < 50; ++round) {
    for (int w = 0; w < 6; ++w) {
      const std::size_t row = vids[rng.Below(vids.size())];
      switch (rng.Below(7)) {
        case 0: {
          ParserEntry e;
          for (auto& a : e.actions) a = RandomParserAction(rng);
          for (Pipeline* p : all) p->parser().table().Write(row, e);
          break;
        }
        case 1: {
          DeparserEntry e;
          for (auto& a : e.actions) a = RandomParserAction(rng);
          for (Pipeline* p : all) p->deparser().table().Write(row, e);
          break;
        }
        case 2: {
          const std::size_t s = rng.Below(params::kNumStages);
          KeyExtractorEntry kx;
          for (auto& sel : kx.selectors) sel = static_cast<u8>(rng.Below(8));
          kx.ternary = rng.Below(4) == 0;  // wide/ternary fallback shape
          if (rng.Below(3) == 0) {
            kx.cmp_op = static_cast<CmpOp>(1 + rng.Below(6));
            kx.cmp_a = Operand8::Container(
                ContainerRef{static_cast<ContainerType>(rng.Below(3)),
                             static_cast<u8>(rng.Below(8))});
            kx.cmp_b = Operand8::Immediate(static_cast<u8>(rng.Below(128)));
          }
          for (Pipeline* p : all) p->stage(s).key_extractor().Write(row, kx);
          break;
        }
        case 3: {
          const std::size_t s = rng.Below(params::kNumStages);
          KeyMaskEntry mask;
          const auto kind = rng.Below(3);
          if (kind == 1) {
            mask.mask.set_field(1, 16, 0xFFFF);
            if (rng.Below(2) == 0) mask.mask.set_bit(0, true);
          } else if (kind == 2) {
            // Wide mask: bits above key word 0 force the interpreter.
            mask.mask.set_field(97, 48, 0xFFFFFFFFFFFFull);
            mask.mask.set_field(1, 16, 0xFFFF);
          }
          for (Pipeline* p : all) p->stage(s).key_mask().Write(row, mask);
          break;
        }
        case 4: {
          const std::size_t s = rng.Below(params::kNumStages);
          const std::size_t addr = rng.Below(params::kCamDepth);
          CamEntry e;
          e.valid = rng.Below(4) != 0;
          e.key = BitVec::FromValue(params::kKeyBits,
                                    rng.Below(2) == 0 ? 0 : rng.Below(8) << 1);
          e.module = ModuleId(vids[rng.Below(vids.size())]);
          for (Pipeline* p : all) p->stage(s).cam().Write(addr, e);
          break;
        }
        case 5: {
          const std::size_t s = rng.Below(params::kNumStages);
          const std::size_t addr = rng.Below(params::kCamDepth);
          TcamEntry e;
          e.valid = rng.Below(3) != 0;
          e.key = BitVec::FromValue(params::kKeyBits, rng.Below(8) << 1);
          e.mask = BitVec::FromValue(params::kKeyBits,
                                     rng.Below(2) == 0 ? 0x0E : 0);
          e.module = ModuleId(vids[rng.Below(vids.size())]);
          for (Pipeline* p : all) p->stage(s).tcam().Write(addr, e);
          break;
        }
        default: {
          const std::size_t s = rng.Below(params::kNumStages);
          const std::size_t addr = rng.Below(params::kVliwTableDepth);
          VliwEntry v;
          for (int k = 0; k < 3; ++k) {
            const std::size_t slot = rng.Below(kNumAluContainers);
            AluAction a;
            a.op = static_cast<AluOp>(rng.Below(16));
            a.container1 = static_cast<u8>(rng.Below(kNumAluContainers));
            a.container2 = static_cast<u8>(rng.Below(kNumAluContainers));
            a.immediate = static_cast<u16>(rng.Below(64));
            if (a.op == AluOp::kMcast)
              a.immediate = rng.Below(2) == 0 ? 5 : 0;
            v.slots[slot] = a;
          }
          for (Pipeline* p : all) p->stage(s).WriteVliw(addr, v);
          break;
        }
      }
    }

    std::vector<Packet> batch;
    const std::size_t count = 8 + rng.Below(24);
    for (std::size_t i = 0; i < count; ++i) {
      Packet p = PacketBuilder{}
                     .vid(ModuleId(vids[rng.Below(vids.size())]))
                     .frame_size(64 + rng.Below(80))
                     .Build();
      for (int b = 0; b < 8; ++b)
        p.bytes().set_u8(20 + rng.Below(p.size() - 24),
                         static_cast<u8>(rng.Below(256)));
      batch.push_back(std::move(p));
    }

    std::vector<Packet> kb = batch;
    std::vector<Packet> ib = batch;
    const std::vector<PipelineResult> kern_out =
        kern.ProcessBatch(std::move(kb));
    const std::vector<PipelineResult> interp_out =
        interp.ProcessBatch(std::move(ib));
    ASSERT_EQ(kern_out.size(), batch.size());
    ASSERT_EQ(interp_out.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string what =
          "round " + std::to_string(round) + " packet " + std::to_string(i);
      const PipelineResult ref = reference.ProcessUnplanned(batch[i]);
      ExpectSameOutput(ref, kern_out[i], what + " (kernel vs unplanned)");
      ExpectSameOutput(interp_out[i], kern_out[i],
                       what + " (kernel vs interpreter)");
      // Both planned paths also expose the same final PHV.
      ASSERT_EQ(interp_out[i].final_phv.has_value(),
                kern_out[i].final_phv.has_value())
          << what;
      if (interp_out[i].final_phv) {
        EXPECT_TRUE(*interp_out[i].final_phv == *kern_out[i].final_phv)
            << what;
      }
    }
  }

  // The kernels actually ran (this differential would be vacuous if
  // every round fell back), and the fallback also ran (wide/ternary
  // rounds exist).
  const Pipeline::KernelStats ks = kern.KernelSnapshot();
  EXPECT_GT(ks.pkts, 0u);
  EXPECT_GT(ks.fallback_pkts, 0u);
  EXPECT_EQ(interp.KernelSnapshot().pkts, 0u);

  // Every CAM/TCAM/stage counter agrees between the kernel and
  // interpreter pipelines — the kernels' bulk counter flush is exact.
  for (std::size_t s = 0; s < params::kNumStages; ++s) {
    EXPECT_EQ(kern.stage(s).hits(), interp.stage(s).hits()) << "stage " << s;
    EXPECT_EQ(kern.stage(s).misses(), interp.stage(s).misses())
        << "stage " << s;
    EXPECT_EQ(kern.stage(s).cam().lookups(), interp.stage(s).cam().lookups())
        << "stage " << s;
    EXPECT_EQ(kern.stage(s).cam().hits(), interp.stage(s).cam().hits())
        << "stage " << s;
    EXPECT_EQ(kern.stage(s).tcam().lookups(), interp.stage(s).tcam().lookups())
        << "stage " << s;
    EXPECT_EQ(kern.stage(s).tcam().hits(), interp.stage(s).tcam().hits())
        << "stage " << s;
  }
  for (const u16 vid : vids) {
    EXPECT_EQ(kern.forwarded(ModuleId(vid)), interp.forwarded(ModuleId(vid)));
    EXPECT_EQ(kern.dropped(ModuleId(vid)), interp.dropped(ModuleId(vid)));
    EXPECT_EQ(kern.forwarded(ModuleId(vid)),
              reference.forwarded(ModuleId(vid)));
    EXPECT_EQ(kern.dropped(ModuleId(vid)), reference.dropped(ModuleId(vid)));
  }
  EXPECT_EQ(kern.total_processed(), reference.total_processed());
}

// --- Dataplane differential across epochs / writes / migrations / resizes ------
//
// A worker-threaded dataplane (kernels on, the default) against BOTH an
// interpreted-plan pipeline (kernels off) and the unplanned reference,
// while epochs commit, direct writes land, tenants migrate and the
// replica set resizes.  Stateful tenants (netchain sequencers) make any
// state-placement divergence visible in the output bytes.

TEST(KernelsDifferential, DataplaneMatchesAcrossEpochsWritesMigrationsResizes) {
  Rng rng(0x5EED);
  const std::vector<u16> vids = {2, 3, 4, 5};

  std::vector<CompiledModule> images;
  for (std::size_t i = 0; i < vids.size(); ++i) {
    const bool calc = i < 2;
    const ModuleAllocation alloc = UniformAllocation(
        ModuleId(vids[i]), 0, params::kNumStages, i * 4, 4,
        static_cast<u8>(i * 32), 32);
    CompiledModule m =
        MustCompile(calc ? apps::CalcSpec() : apps::NetChainSpec(), alloc);
    if (calc) {
      EXPECT_TRUE(apps::InstallCalcEntries(m, static_cast<u16>(10 + i)));
    } else {
      EXPECT_TRUE(apps::InstallNetChainEntries(m, static_cast<u16>(10 + i)));
    }
    images.push_back(std::move(m));
  }

  Dataplane dp(DataplaneConfig{.num_shards = 3});
  Pipeline interp;
  interp.SetKernelsEnabled(false);
  Pipeline reference;
  for (const CompiledModule& m : images) {
    dp.ApplyWrites(m.AllWrites());
    for (const ConfigWrite& w : m.AllWrites()) {
      interp.ApplyWrite(w);
      reference.ApplyWrite(w);
    }
  }

  const auto random_packet = [&](u16 vid) {
    Packet p = PacketBuilder{}
                   .vid(ModuleId(vid))
                   .frame_size(96 + rng.Below(32))
                   .Build();
    p.bytes().set_u16(46, static_cast<u16>(rng.Below(4) + 1));
    p.bytes().set_u32(48, static_cast<u32>(rng.Below(100)));
    p.bytes().set_u32(52, static_cast<u32>(rng.Below(100)));
    return p;
  };

  for (int round = 0; round < 30; ++round) {
    switch (rng.Below(5)) {
      case 0: {
        // Staged overlay rewrite + epoch commit.
        const CompiledModule& m = images[rng.Below(images.size())];
        dp.StageWrites(m.AllWrites());
        dp.CommitEpoch();
        for (const ConfigWrite& w : m.AllWrites()) {
          interp.ApplyWrite(w);
          reference.ApplyWrite(w);
        }
        break;
      }
      case 1: {
        // Direct (non-staged) parser rewrite for a random tenant.
        const u16 vid = vids[rng.Below(vids.size())];
        const std::size_t row = vid % params::kOverlayTableDepth;
        ParserEntry e = reference.parser().table().At(row);
        e.actions[params::kParserActionsPerEntry - 1] =
            RandomParserAction(rng);
        const ConfigWrite w{ResourceKind::kParserTable, 0,
                            static_cast<u8>(row), e.Encode()};
        dp.ApplyWrite(w);
        interp.ApplyWrite(w);
        reference.ApplyWrite(w);
        break;
      }
      case 2: {
        dp.ResizeShards(1 + rng.Below(4));
        break;
      }
      case 3: {
        dp.MigrateTenant(ModuleId(vids[rng.Below(vids.size())]),
                         rng.Below(dp.num_shards()));
        break;
      }
      default:
        break;
    }

    std::vector<Packet> batch;
    const std::size_t count = 16 + rng.Below(48);
    for (std::size_t i = 0; i < count; ++i)
      batch.push_back(random_packet(vids[rng.Below(vids.size())]));

    std::vector<Packet> dp_batch = batch;
    const std::vector<PipelineResult> got =
        dp.ProcessBatch(std::move(dp_batch));
    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string what =
          "round " + std::to_string(round) + " packet " + std::to_string(i);
      const PipelineResult iref = interp.Process(batch[i]);
      ExpectSameOutput(iref, got[i], what + " (kernels vs interpreter)");
      const PipelineResult uref = reference.ProcessUnplanned(batch[i]);
      ExpectSameOutput(uref, got[i], what + " (kernels vs unplanned)");
    }
  }

  for (const u16 vid : vids) {
    EXPECT_EQ(dp.forwarded(ModuleId(vid)), interp.forwarded(ModuleId(vid)));
    EXPECT_EQ(dp.dropped(ModuleId(vid)), interp.dropped(ModuleId(vid)));
  }
}

// --- Compiled-run coherence ---------------------------------------------------
//
// A pipeline compiles each overlay row's module run once per config
// stamp: the plan, the resolved stage contexts with their constant-key
// outcomes, the flow-cache row, the kernel steps and their last-key
// memo.  Between calls this test makes every kind of change such a cache
// could miss — CAM, VLIW, key-mask and segment-table writes through
// ApplyWrite, the same writes straight into the tables (bypassing
// ApplyWrite), tenant migrations and replica resizes — and every call
// carries many short tenant runs.  Each path's bytes must equal
// ProcessUnplanned, and every counter must equal its per-packet
// reference.

/// One-word-key router with constant actions only: flow-cache eligible.
const ModuleSpec& ConstRouterSpec() {
  static const ModuleSpec spec = [] {
    Diagnostics d;
    ModuleSpec s = ParseModuleDsl(R"(
module router {
  field tag : 2 @ 46;
  action fwd(p) { port(p); }
  action sink { drop(); }
  table routes { key = { tag }; actions = { fwd, sink }; size = 4; }
}
)",
                                  d);
    if (!d.ok()) throw std::logic_error(d.ToString());
    return s;
  }();
  return spec;
}

/// Applies `w` straight to the addressed table, bypassing
/// Pipeline::ApplyWrite (no write counter, no filter bump) — only the
/// tables' own version counters can tell a compiled run it is stale.
void DirectWrite(Pipeline& p, const ConfigWrite& w) {
  Stage& stage = p.stage(w.stage);
  switch (w.kind) {
    case ResourceKind::kCamEntry:
      stage.cam().Write(w.index, CamEntry::Decode(w.payload));
      return;
    case ResourceKind::kVliwAction:
      stage.WriteVliw(w.index, VliwEntry::Decode(w.payload));
      return;
    case ResourceKind::kKeyMask:
      stage.key_mask().Write(w.index, KeyMaskEntry::Decode(w.payload));
      return;
    case ResourceKind::kSegmentTable:
      stage.stateful().segment_table().Write(w.index,
                                             SegmentEntry::Decode(w.payload));
      return;
    default:
      throw std::logic_error("DirectWrite: unsupported resource");
  }
}

TEST(CompiledRunCoherence, ChangesBetweenCallsMatchPerPacketReference) {
  Rng rng(0xC0DE);
  // 2, 3: calc (kernel tier, constant-key stages around one probe);
  // 4: netchain (stateful kernel); 5: router (flow-cache tier);
  // 6: unconfigured (every stage a constant miss).
  constexpr u16 kNetChain = 4;
  constexpr u16 kRouter = 5;
  const std::vector<u16> vids = {2, 3, kNetChain, kRouter, 6};
  const std::vector<u16> configured = {2, 3, kNetChain, kRouter};

  std::vector<ConfigWrite> install;
  for (std::size_t i = 0; i < configured.size(); ++i) {
    const u16 vid = configured[i];
    const ModuleAllocation alloc = UniformAllocation(
        ModuleId(vid), 0, params::kNumStages, i * 4, 4, 0, 2);
    CompiledModule m =
        vid == kRouter     ? MustCompile(ConstRouterSpec(), alloc)
        : vid == kNetChain ? MustCompile(apps::NetChainSpec(), alloc)
                           : MustCompile(apps::CalcSpec(), alloc);
    if (vid == kRouter) {
      for (u16 t = 0; t < 3; ++t)
        m.AddEntry("routes", {{"tag", t}}, std::nullopt, "fwd",
                   {static_cast<u64>(40 + t)});
      m.AddEntry("routes", {{"tag", 3}}, std::nullopt, "sink", {});
      EXPECT_TRUE(m.ok()) << m.diags().ToString();
    } else if (vid == kNetChain) {
      EXPECT_TRUE(apps::InstallNetChainEntries(m, 30));
    } else {
      EXPECT_TRUE(apps::InstallCalcEntries(m, static_cast<u16>(10 + vid)));
    }
    for (const ConfigWrite& w : m.AllWrites()) install.push_back(w);
  }

  Pipeline batched;
  Pipeline stream;
  Pipeline single;
  Pipeline interp;  // kernels off: the interpreted plan path
  Pipeline reference;
  interp.SetKernelsEnabled(false);
  const std::array<Pipeline*, 5> pipes = {&batched, &stream, &single, &interp,
                                          &reference};
  Dataplane dp(DataplaneConfig{.num_shards = 3, .worker_threads = false});
  for (Pipeline* p : pipes)
    for (const ConfigWrite& w : install) p->ApplyWrite(w);
  dp.ApplyWrites(install);

  // Each tenant's installed key masks, for toggling stages between
  // probing and constant-key.
  std::map<std::pair<u16, std::size_t>, KeyMaskEntry> installed_mask;
  for (const u16 vid : vids)
    for (std::size_t s = 0; s < params::kNumStages; ++s)
      installed_mask[{vid, s}] =
          reference.stage(s).key_mask().At(vid % params::kOverlayTableDepth);

  const auto apply = [&](const ConfigWrite& w, bool direct) {
    for (Pipeline* p : pipes) {
      if (direct)
        DirectWrite(*p, w);
      else
        p->ApplyWrite(w);
    }
    // Replicas added by a later resize replay the dataplane's config
    // log, so the dataplane always takes the logged path.
    dp.ApplyWrite(w);
  };
  const auto cam_write = [&](u16 vid, std::size_t s) {
    const std::size_t block =
        4 * static_cast<std::size_t>(std::find(configured.begin(),
                                               configured.end(), vid) -
                                     configured.begin());
    const std::size_t addr = block + rng.Below(4);
    CamEntry e = reference.stage(s).cam().At(addr);
    if (e.valid && e.module == ModuleId(vid) && rng.Below(2) == 0) {
      // Retract a live entry: a key the last run hit must now miss.
      e.valid = false;
    } else {
      e.module = ModuleId(vid);
      e.valid = true;
      // A zero key matches a constant-key stage of this tenant.
      e.key = BitVec::FromValue(params::kKeyBits,
                                rng.Below(3) == 0 ? 0 : rng.Below(8) << 1);
    }
    return ConfigWrite{ResourceKind::kCamEntry, static_cast<u8>(s),
                       static_cast<u8>(addr), e.Encode()};
  };
  const auto vliw_write = [&](std::size_t s) {
    const std::size_t addr = rng.Below(params::kVliwTableDepth);
    VliwEntry v = reference.stage(s).VliwAt(addr);
    if (rng.Below(2) == 0) {
      v.slots[kNumAluContainers - 1] = AluAction{
          AluOp::kPort, 0, 0, static_cast<u16>(50 + rng.Below(8))};
    } else {
      v.slots[rng.Below(kNumAluContainers)] = AluAction{};
    }
    return ConfigWrite{ResourceKind::kVliwAction, static_cast<u8>(s),
                       static_cast<u8>(addr), v.Encode()};
  };
  const auto mask_write = [&](u16 vid, std::size_t s) {
    const std::size_t row = vid % params::kOverlayTableDepth;
    KeyMaskEntry mask;
    if (reference.stage(s).key_mask().At(row).mask.is_zero()) {
      mask = installed_mask[{vid, s}];
      if (mask.mask.is_zero()) mask.mask.set_field(1, 16, 0xFFFF);
    }
    return ConfigWrite{ResourceKind::kKeyMask, static_cast<u8>(s),
                       static_cast<u8>(row), mask.Encode()};
  };

  const auto make_packet = [&](u16 vid) {
    switch (vid) {
      case 2:
      case 3:
        return CalcPacket(vid, static_cast<u16>(1 + rng.Below(4)),
                          static_cast<u32>(rng.Below(50)),
                          static_cast<u32>(rng.Below(50)));
      case kNetChain:
        return NetChainPacket(
            vid, rng.Below(4) == 0 ? u16{1} : apps::kNetChainOpSeq);
      case kRouter: {
        Packet p = PacketBuilder{}.vid(ModuleId(vid)).frame_size(96).Build();
        p.bytes().set_u16(46, static_cast<u16>(rng.Below(6)));
        return p;
      }
      default: {
        Packet p = PacketBuilder{}
                       .vid(ModuleId(vid))
                       .frame_size(64 + rng.Below(64))
                       .Build();
        p.bytes().set_u8(46 + rng.Below(10), static_cast<u8>(rng.Below(256)));
        return p;
      }
    }
  };

  PacketArena arena;
  std::size_t next_segment = 16;  // fresh stateful window for netchain
  u64 sent = 0;
  for (int round = 0; round < 200; ++round) {
    const u16 vid = configured[rng.Below(configured.size())];
    // Half the writes land on a stage the tenant probes in.
    std::size_t s = rng.Below(params::kNumStages);
    for (std::size_t tries = 0; tries < params::kNumStages; ++tries) {
      if (rng.Below(2) == 0 || !installed_mask[{vid, s}].mask.is_zero()) break;
      s = (s + 1) % params::kNumStages;
    }
    switch (rng.Below(8)) {
      case 0:
        apply(cam_write(vid, s), false);
        break;
      case 1:
        apply(vliw_write(s), false);
        break;
      case 2:
        apply(mask_write(vid, s), false);
        break;
      case 3: {
        // Move netchain's state to a fresh window: its sequence restarts
        // from zero on every path only if no run kept the old segment
        // view.  (Fresh windows keep migrations exact: the old window is
        // never read again.)
        if (next_segment + 2 > params::kStatefulWordsPerStage) break;
        SegmentEntry seg;
        seg.offset = static_cast<u8>(next_segment);
        seg.range = 2;
        next_segment += 16;
        for (std::size_t st = 0; st < params::kNumStages; ++st)
          apply(ConfigWrite{ResourceKind::kSegmentTable, static_cast<u8>(st),
                            static_cast<u8>(kNetChain %
                                            params::kOverlayTableDepth),
                            seg.Encode()},
                rng.Below(2) == 0);
        break;
      }
      case 4: {
        const auto which = rng.Below(3);
        apply(which == 0   ? cam_write(vid, s)
              : which == 1 ? vliw_write(s)
                           : mask_write(vid, s),
              true);
        break;
      }
      case 5:
        dp.MigrateTenant(ModuleId(vids[rng.Below(vids.size())]),
                         rng.Below(dp.num_shards()));
        break;
      case 6:
        dp.ResizeShards(1 + rng.Below(4));
        break;
      default:
        break;  // no change: compiled runs carry over between calls
    }

    // Many short tenant runs, with the occasional longer one.
    std::vector<Packet> batch;
    const std::size_t count = 16 + rng.Below(48);
    u16 tenant = vids[rng.Below(vids.size())];
    for (std::size_t i = 0; i < count; ++i) {
      if (rng.Below(4) != 0) tenant = vids[rng.Below(vids.size())];
      batch.push_back(make_packet(tenant));
    }
    sent += count;
    const std::string what = "round " + std::to_string(round);

    std::vector<PipelineResult> ref;
    for (const Packet& p : batch) ref.push_back(reference.ProcessUnplanned(p));

    std::vector<Packet> copy = batch;
    const std::vector<PipelineResult> got_batched =
        batched.ProcessBatch(std::move(copy));
    copy = batch;
    const std::vector<PipelineResult> got_interp =
        interp.ProcessBatch(std::move(copy));
    for (std::size_t i = 0; i < count; ++i) {
      const std::string at = what + " packet " + std::to_string(i);
      ExpectSameOutput(ref[i], got_batched[i], at + " (batched)");
      ExpectSameOutput(ref[i], got_interp[i], at + " (interpreted)");
      ExpectSameOutput(ref[i], single.Process(batch[i]), at + " (single)");
    }

    std::vector<ArenaPacket*> bufs(count);
    ASSERT_EQ(arena.AllocateBurst(bufs.data(), count), count);
    for (std::size_t i = 0; i < count; ++i)
      bufs[i]->Assign(batch[i].bytes().bytes());
    stream.ProcessStreamBurst(bufs.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::string at = what + " packet " + std::to_string(i);
      const ArenaPacket& p = *bufs[i];
      ASSERT_TRUE(ref[i].output.has_value()) << at;
      const Packet& r = *ref[i].output;
      EXPECT_EQ(static_cast<FilterVerdict>(p.verdict), ref[i].filter_verdict)
          << at;
      const auto bytes = p.bytes().bytes();
      EXPECT_EQ(std::vector<u8>(bytes.begin(), bytes.end()),
                std::vector<u8>(r.bytes().bytes().begin(),
                                r.bytes().bytes().end()))
          << at << " (stream)";
      EXPECT_EQ(p.disposition, r.disposition) << at << " (stream)";
      EXPECT_EQ(p.egress_port, r.egress_port) << at << " (stream)";
      EXPECT_EQ(p.multicast_ports, r.multicast_ports) << at << " (stream)";
    }
    ReleaseToOwners(bufs.data(), count);

    // The dataplane takes the first half as a stream burst, the second
    // as a batched ticket.  Per-tenant order is what both keep.
    const std::size_t half = count / 2;
    for (std::size_t i = 0; i < half; ++i)
      ASSERT_NE(bufs[i] = arena.Allocate(), nullptr);
    for (std::size_t i = 0; i < half; ++i)
      bufs[i]->Assign(batch[i].bytes().bytes());
    dp.SubmitStream(bufs.data(), half);
    std::vector<ArenaPacket*> egress;
    dp.PollEgress(egress);
    std::map<u16, std::vector<std::vector<u8>>> want;
    std::map<u16, std::vector<std::vector<u8>>> egressed;
    for (std::size_t i = 0; i < half; ++i) {
      const Packet& r = *ref[i].output;
      if (r.disposition == Disposition::kDrop) continue;
      want[batch[i].vid().value()].emplace_back(r.bytes().bytes().begin(),
                                                r.bytes().bytes().end());
    }
    for (const ArenaPacket* p : egress) {
      const auto bytes = p->bytes().bytes();
      egressed[p->vid().value()].emplace_back(bytes.begin(), bytes.end());
    }
    EXPECT_EQ(egressed, want) << what << " (dataplane stream)";
    ReleaseToOwners(egress.data(), egress.size());
    EXPECT_EQ(arena.outstanding(), 0u) << what;

    std::vector<Packet> tail(batch.begin() + static_cast<std::ptrdiff_t>(half),
                             batch.end());
    const std::vector<PipelineResult> got_dp = dp.ProcessBatch(std::move(tail));
    for (std::size_t i = half; i < count; ++i)
      ExpectSameOutput(ref[i], got_dp[i - half],
                       what + " packet " + std::to_string(i) +
                           " (dataplane batched)");
  }

  // Counters: the match path against the per-packet reference, on every
  // planned path.
  for (const Pipeline* p : {&batched, &stream, &single, &interp}) {
    for (std::size_t s = 0; s < params::kNumStages; ++s) {
      const Stage& got = p->stage(s);
      const Stage& want = reference.stage(s);
      EXPECT_EQ(got.hits(), want.hits()) << "stage " << s;
      EXPECT_EQ(got.misses(), want.misses()) << "stage " << s;
      EXPECT_EQ(got.cam().lookups(), want.cam().lookups()) << "stage " << s;
      EXPECT_EQ(got.cam().hits(), want.cam().hits()) << "stage " << s;
      EXPECT_EQ(got.tcam().lookups(), want.tcam().lookups()) << "stage " << s;
      EXPECT_EQ(got.tcam().hits(), want.tcam().hits()) << "stage " << s;
    }
    for (const u16 vid : vids) {
      EXPECT_EQ(p->forwarded(ModuleId(vid)), reference.forwarded(ModuleId(vid)))
          << "tenant " << vid;
      EXPECT_EQ(p->dropped(ModuleId(vid)), reference.dropped(ModuleId(vid)))
          << "tenant " << vid;
    }
    EXPECT_EQ(p->total_processed(), reference.total_processed());
  }

  // Flow-cache and kernel counters: the batched and streaming paths
  // against packet-at-a-time Process.
  const FlowCacheStats fc = single.FlowCacheSnapshot();
  const Pipeline::KernelStats ks = single.KernelSnapshot();
  EXPECT_GT(fc.hits, 0u);
  EXPECT_GT(ks.pkts, 0u);
  for (const Pipeline* p : {&batched, &stream}) {
    const FlowCacheStats f = p->FlowCacheSnapshot();
    EXPECT_EQ(f.hits, fc.hits);
    EXPECT_EQ(f.misses, fc.misses);
    EXPECT_EQ(f.evictions, fc.evictions);
    EXPECT_EQ(f.occupancy, fc.occupancy);
    const Pipeline::KernelStats k = p->KernelSnapshot();
    EXPECT_EQ(k.pkts, ks.pkts);
    EXPECT_EQ(k.fallback_pkts, ks.fallback_pkts);
    EXPECT_EQ(k.record_fills, ks.record_fills);
    EXPECT_EQ(k.shape_pkts, ks.shape_pkts);
  }
  const FlowCacheStats fi = interp.FlowCacheSnapshot();
  EXPECT_EQ(fi.hits, fc.hits);
  EXPECT_EQ(fi.misses, fc.misses);
  EXPECT_EQ(interp.KernelSnapshot().pkts, 0u);

  // Per-tenant dataplane stats: exact (quiesced replicas plus retired
  // shards) and relaxed (per-run adds) both equal the reference.
  const DataplaneStats exact = CollectDataplaneStats(dp);
  const DataplaneStats relaxed = CollectDataplaneStatsRelaxed(dp);
  ASSERT_EQ(exact.tenants.size(), relaxed.tenants.size());
  for (std::size_t i = 0; i < exact.tenants.size(); ++i) {
    const ModuleId t = exact.tenants[i].tenant;
    EXPECT_EQ(relaxed.tenants[i].tenant, t);
    EXPECT_EQ(exact.tenants[i].forwarded, reference.forwarded(t)) << t.value();
    EXPECT_EQ(exact.tenants[i].dropped, reference.dropped(t)) << t.value();
    EXPECT_EQ(relaxed.tenants[i].forwarded, exact.tenants[i].forwarded)
        << t.value();
    EXPECT_EQ(relaxed.tenants[i].dropped, exact.tenants[i].dropped)
        << t.value();
  }
  EXPECT_EQ(dp.total_packets(), sent);
}

}  // namespace
}  // namespace menshen
