/**
 * @file
 * Tests for the core model: issue/retire width, window-limited MLP,
 * TLB-walk coalescing, stall attribution (handler vs walk vs memory),
 * posted stores, the instruction-limit plumbing, and backpressure
 * under both run loops: a core the L1 refused sleeps until the L1's
 * retry notification or a PTE remap, and an L1 send queue the L2
 * refused sleeps until the L2's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/sram_cache.hh"
#include "cpu/core.hh"
#include "dramcache/baseline_scheme.hh"

namespace nomad
{
namespace
{

/** Generator producing a fixed scripted stream (loops at the end). */
class ScriptedGen : public Generator
{
  public:
    InstrRecord
    next() override
    {
        if (script.empty())
            return InstrRecord{};
        const InstrRecord r = script[cursor];
        cursor = (cursor + 1) % script.size();
        return r;
    }

    std::vector<InstrRecord> script;
    std::size_t cursor = 0;
};

/** Memory that answers after a fixed delay. */
class FixedLatencyMem : public MemPort
{
  public:
    explicit FixedLatencyMem(Simulation &sim, Tick latency)
        : sim_(sim), latency_(latency)
    {}

    bool
    tryAccess(const MemRequestPtr &req) override
    {
        ++accesses;
        if (req->isWrite) {
            req->complete(sim_.now());
            return true;
        }
        reads.emplace_back(sim_.now(), req->addr);
        peakInFlight = std::max(peakInFlight, ++inFlight);
        auto r = req;
        const Tick done = sim_.now() + latency_;
        sim_.events().schedule(done, [this, r, done]() {
            --inFlight;
            r->complete(done);
        });
        return true;
    }

    int accesses = 0;
    std::vector<std::pair<Tick, Addr>> reads; ///< (accept tick, addr).
    int inFlight = 0;     ///< Reads accepted and not yet answered.
    int peakInFlight = 0; ///< Most reads ever in flight at once.

  private:
    Simulation &sim_;
    Tick latency_;
};

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest()
        : pt(1 << 16), ddr(sim, "ddr", DramTiming::ddr4_3200()),
          scheme(sim, "base", ddr, pt), mem(sim, 20),
          tlb(sim, "tlb", TlbParams{16, 64, 4, 4})
    {
    }

    Core &
    makeCore(std::uint64_t limit, std::uint32_t width = 4)
    {
        CoreParams p;
        p.issueWidth = width;
        p.retireWidth = width;
        p.windowSize = 64;
        p.walkLatency = 50;
        p.instructionLimit = limit;
        p.branchRatio = 0.0; // Branch tests opt in explicitly.
        core = std::make_unique<Core>(sim, "cpu", 0, p, gen, tlb, mem,
                                      scheme, pt);
        return *core;
    }

    Simulation sim;
    PageTable pt;
    DramDevice ddr;
    BaselineScheme scheme;
    FixedLatencyMem mem;
    Tlb tlb;
    ScriptedGen gen;
    std::unique_ptr<Core> core;
};

TEST_F(CoreTest, PureAluStreamRetiresAtIssueWidth)
{
    gen.script = {InstrRecord{}}; // All non-memory.
    Core &c = makeCore(4000, 4);
    while (!c.done())
        sim.run(100);
    EXPECT_NEAR(c.ipc(), 4.0, 0.05);
    EXPECT_EQ(c.retiredTotal(), 4000u);
    EXPECT_EQ(c.stallHandler.value() + c.stallMem.value(), 0.0);
}

TEST_F(CoreTest, LoadsOverlapUpToWindow)
{
    // One load per instruction to distinct pages already warm in the
    // TLB: with latency 20 and window 64, loads pipeline and IPC stays
    // far above 1/20.
    gen.script.clear();
    for (int i = 0; i < 8; ++i) {
        InstrRecord r;
        r.isMem = true;
        r.vaddr = static_cast<Addr>(i) * BlockBytes * 8;
        gen.script.push_back(r);
    }
    Core &c = makeCore(4000, 4);
    while (!c.done())
        sim.run(100);
    EXPECT_GT(c.ipc(), 1.0) << "independent loads must overlap";
    EXPECT_GT(mem.accesses, 3000);
}

TEST_F(CoreTest, NonPowerOfTwoWindowsBoundLoadsInFlight)
{
    // The window and issue queue are rings rounded up to a power of
    // two (4 and 8 here); the window limit is still windowSize. Each
    // core dispatches thousands of loads, so its ring wraps hundreds
    // of times.
    gen.script.clear();
    for (int i = 0; i < 8; ++i) {
        InstrRecord r;
        r.isMem = true;
        r.vaddr = static_cast<Addr>(i) * BlockBytes * 8;
        gen.script.push_back(r);
    }
    // The simulation outlives the loop, so the cores must too.
    std::vector<std::unique_ptr<Core>> cores;
    for (const std::uint32_t window : {3u, 5u}) {
        CoreParams p;
        p.windowSize = window;
        p.instructionLimit = 3000;
        p.branchRatio = 0.0;
        mem.peakInFlight = 0;
        cores.push_back(std::make_unique<Core>(
            sim, "cpu_w" + std::to_string(window),
            static_cast<int>(cores.size()), p, gen, tlb, mem, scheme,
            pt));
        const Core &c = *cores.back();
        while (!c.done())
            sim.run(100);
        sim.run(100); // Answer the loads dispatched past the budget.
        ASSERT_EQ(mem.inFlight, 0);
        EXPECT_EQ(c.retiredTotal(), 3000u) << "window " << window;
        EXPECT_EQ(mem.peakInFlight, static_cast<int>(window))
            << "loads in flight must fill, and never exceed, the window";
        // Every instruction is a load: 3000 pushes through a ring of
        // 4 or 8 slots.
        EXPECT_GE(c.loads.value(), 3000.0) << "window " << window;
    }
}

TEST_F(CoreTest, TlbMissesToSamePageCoalesceIntoOneWalk)
{
    // A burst of accesses to the same cold page: one walk, not N.
    gen.script.clear();
    for (int i = 0; i < 16; ++i) {
        InstrRecord r;
        r.isMem = true;
        r.vaddr = 0x5000 + i * 64;
        gen.script.push_back(r);
    }
    InstrRecord alu;
    for (int i = 0; i < 64; ++i)
        gen.script.push_back(alu);
    Core &c = makeCore(80);
    while (!c.done())
        sim.run(100);
    EXPECT_EQ(c.walks.value(), 1.0)
        << "16 concurrent misses to one page coalesce into one walk";
}

TEST_F(CoreTest, StallAttributionSeparatesWalkFromMemory)
{
    // Strided cold pages: every access is a TLB miss + memory access.
    gen.script.clear();
    for (int i = 0; i < 64; ++i) {
        InstrRecord r;
        r.isMem = true;
        r.vaddr = static_cast<Addr>(i + 1) * PageBytes;
        gen.script.push_back(r);
    }
    Core &c = makeCore(64, 1);
    while (!c.done())
        sim.run(100);
    EXPECT_GT(c.stallWalk.value(), 0.0);
    EXPECT_GT(c.stallMem.value(), 0.0);
    EXPECT_EQ(c.stallHandler.value(), 0.0)
        << "the baseline scheme runs no OS handler";
}

TEST_F(CoreTest, PostedStoresDoNotStallRetirement)
{
    gen.script.clear();
    InstrRecord st;
    st.isMem = true;
    st.isWrite = true;
    st.vaddr = 0x9000;
    gen.script.push_back(st);
    Core &c = makeCore(2000, 4);
    while (!c.done())
        sim.run(100);
    EXPECT_GT(c.ipc(), 2.0) << "stores retire without waiting on data";
    // Dispatched stores include a few beyond the retirement limit.
    EXPECT_GE(c.stores.value(), 2000.0);
}

TEST_F(CoreTest, InstructionLimitRaisesAndResumes)
{
    gen.script = {InstrRecord{}};
    Core &c = makeCore(100);
    while (!c.done())
        sim.run(50);
    EXPECT_EQ(c.retiredTotal(), 100u);
    c.setInstructionLimit(250);
    EXPECT_FALSE(c.done());
    while (!c.done())
        sim.run(50);
    EXPECT_EQ(c.retiredTotal(), 250u);
}

TEST_F(CoreTest, BranchMispredictsThrottleTheFrontEnd)
{
    gen.script = {InstrRecord{}};
    Core &fast = makeCore(20'000, 4);
    while (!fast.done())
        sim.run(100);
    const double ipc_nobranch = fast.ipc();

    CoreParams p;
    p.issueWidth = 4;
    p.retireWidth = 4;
    p.windowSize = 64;
    p.instructionLimit = 20'000;
    p.branchRatio = 0.2;
    p.mispredictRate = 0.05;
    p.flushPenalty = 20;
    Core slow(sim, "cpu_b", 1, p, gen, tlb, mem, scheme, pt);
    while (!slow.done())
        sim.run(100);
    EXPECT_GT(slow.branches.value(), 3000.0);
    EXPECT_GT(slow.mispredicts.value(), 100.0);
    EXPECT_LT(slow.ipc(), ipc_nobranch * 0.9)
        << "mispredictions must cost front-end bandwidth";
}

TEST_F(CoreTest, DirtyBitSetOnStoreTranslation)
{
    gen.script.clear();
    InstrRecord st;
    st.isMem = true;
    st.isWrite = true;
    st.vaddr = 0xA000;
    gen.script.push_back(st);
    Core &c = makeCore(4, 1);
    while (!c.done())
        sim.run(50);
    Pte *pte = pt.find(pageOf(Addr{0xA000}));
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->dirty);
}

/**
 * Samples a blocked condition at the end of every cycle: registered
 * after the components it watches, it sees what that cycle's ticks
 * (or elided edges) left behind.
 */
class BlockedCycleProbe
{
  public:
    BlockedCycleProbe(Simulation &sim, std::function<bool()> blocked)
        : blocked_(std::move(blocked))
    {
        sim.addClocked(this, 1);
    }

    void
    tick()
    {
        const bool blocked = blocked_();
        const std::uint64_t taken = detail::requestPool().recycled;
        if (blocked) {
            ++blockedCycles;
            if (wasBlocked_ && taken != lastTaken_)
                ++blockedCyclesTakingRequests;
        }
        wasBlocked_ = blocked;
        lastTaken_ = taken;
    }

    std::uint64_t blockedCycles = 0;
    /** Cycles that began and ended blocked yet took a pooled request. */
    std::uint64_t blockedCyclesTakingRequests = 0;

  private:
    std::function<bool()> blocked_;
    bool wasBlocked_ = false;
    std::uint64_t lastTaken_ = 0;
};

/** A core over a real L1 over a slow memory, on either run loop. */
struct BackpressureRig
{
    BackpressureRig(Simulation::KernelMode mode, const CacheParams &l1p,
                    Tick mem_latency, const CoreParams &cp)
        : pt(1 << 16), ddr(sim, "ddr", DramTiming::ddr4_3200()),
          scheme(sim, "base", ddr, pt), mem(sim, mem_latency),
          l1(sim, "l1", l1p, &mem),
          tlb(sim, "tlb", TlbParams{16, 64, 4, 4}),
          core(sim, "cpu", 0, cp, gen, tlb, l1, scheme, pt),
          probe(sim,
                [this]() {
                    // A head still ReadyToIssue at a cycle's end was
                    // offered to the L1 and refused in that cycle.
                    return std::string_view(core.stallReason()) ==
                           "issue-backpressure";
                })
    {
        sim.setKernelMode(mode);
        // Park spare packets in the freelist so every request taken
        // from now on shows up in the pool's recycled count.
        std::vector<MemRequestPtr> spare;
        for (int i = 0; i < 256; ++i) {
            spare.push_back(makeRequest(0, false, Category::Demand,
                                        MemSpace::OffPackage, 0));
        }
    }

    Simulation sim;
    PageTable pt;
    DramDevice ddr;
    BaselineScheme scheme;
    FixedLatencyMem mem;
    SramCache l1;
    Tlb tlb;
    ScriptedGen gen;
    Core core;
    BlockedCycleProbe probe;
};

constexpr Simulation::KernelMode BothKernels[] = {
    Simulation::KernelMode::EventDriven,
    Simulation::KernelMode::LegacyPolling,
};

TEST(CoreBackpressure, BlockedCoreSleepsYetCountsOneRejectPerCycle)
{
    // Posted stores to distinct blocks through a one-entry window: a
    // store retires as soon as the L1 takes it, so with both MSHRs
    // waiting on the slow memory the next store is refused until a
    // fill returns. The core must sleep through that wait without
    // building a request per cycle, yet l1.rejects must read one per
    // cycle spent blocked, as a per-cycle re-offer would have counted.
    CacheParams l1p{1024, 2, 4, /*mshrs=*/2, 8};
    CoreParams cp;
    cp.issueWidth = 1;
    cp.retireWidth = 1;
    cp.windowSize = 1;
    cp.walkLatency = 50;
    cp.instructionLimit = 300;
    cp.branchRatio = 0.0;

    std::vector<double> rejects;
    std::vector<double> cycles;
    for (const auto mode : BothKernels) {
        BackpressureRig rig(mode, l1p, /*mem_latency=*/150, cp);
        for (int i = 0; i < 32; ++i) {
            InstrRecord st;
            st.isMem = true;
            st.isWrite = true;
            st.vaddr = 0x10000 + static_cast<Addr>(i) * BlockBytes;
            rig.gen.script.push_back(st);
        }
        while (!rig.core.done())
            rig.sim.run(1000);

        EXPECT_GT(rig.probe.blockedCycles, 10'000u);
        EXPECT_EQ(rig.l1.rejects.value(),
                  static_cast<double>(rig.probe.blockedCycles));
        EXPECT_EQ(rig.probe.blockedCyclesTakingRequests, 0u)
            << "a blocked core must not build a request per cycle";
        rejects.push_back(rig.l1.rejects.value());
        cycles.push_back(rig.core.cycles.value());
    }
    EXPECT_EQ(rejects[0], rejects[1]);
    EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(CoreBackpressure, RemapWakesABlockedCoreOntoItsNewAddress)
{
    // Two loads to one block with one merge target per MSHR: the
    // second is refused on the full target list while three MSHRs
    // stay free. Remapping its page moves it to a block with no MSHR,
    // so a per-cycle re-offer is accepted in the remap's own cycle;
    // the remap wake must deliver exactly that, not sleep until the
    // old block's fill returns 400 cycles later.
    CacheParams l1p{1024, 2, 4, /*mshrs=*/4, /*targetsPerMshr=*/1};
    CoreParams cp;
    cp.windowSize = 4;
    cp.walkLatency = 50;
    cp.instructionLimit = 1000;
    cp.branchRatio = 0.0;
    const Addr vaddr = 0x20040;

    for (const auto mode : BothKernels) {
        BackpressureRig rig(mode, l1p, /*mem_latency=*/400, cp);
        InstrRecord ld;
        ld.isMem = true;
        ld.vaddr = vaddr;
        rig.gen.script = {ld, ld, InstrRecord{}, InstrRecord{}};
        // The one remap listener System installs, for this one core.
        rig.pt.setRemapListener([&rig]() { rig.core.recvRetry(); });

        for (int i = 0; i < 1000 && rig.l1.rejects.value() == 0; ++i)
            rig.sim.run(1);
        ASSERT_GT(rig.l1.rejects.value(), 0.0);
        ASSERT_EQ(rig.mem.reads.size(), 1u);

        const PageNum pfn = rig.pt.find(pageOf(vaddr))->frame;
        const PageNum moved = pfn + 100;
        const Tick remapAt = rig.sim.now() + 20;
        rig.sim.schedule(20, [&rig, pfn, moved]() {
            EXPECT_EQ(rig.pt.remap(pfn, moved, /*cached=*/true), 1u);
        });
        rig.sim.run(100);

        ASSERT_EQ(rig.mem.reads.size(), 2u)
            << "the remapped head must not wait for the old block's fill";
        EXPECT_EQ(rig.mem.reads[1].first, remapAt);
        EXPECT_EQ(rig.mem.reads[1].second,
                  blockAlign((static_cast<Addr>(moved) << PageShift) |
                             pageOffset(vaddr)));
    }
}

/** Counts the offers the port behind it refused; forwards the rest. */
class RefusalCounter : public MemPort
{
  public:
    explicit RefusalCounter(MemPort &inner) : inner_(inner) {}

    bool
    tryAccess(const MemRequestPtr &req) override
    {
        const bool ok = inner_.tryAccess(req);
        if (!ok)
            ++refused;
        return ok;
    }

    void chargeRejects(std::uint64_t n) override { inner_.chargeRejects(n); }

    std::uint64_t refused = 0;

  private:
    MemPort &inner_;
};

/** A core over an L1 over an L2 over a slow memory. */
struct L2BackpressureRig
{
    L2BackpressureRig(Simulation::KernelMode mode, const CacheParams &l1p,
                      const CacheParams &l2p, Tick mem_latency,
                      const CoreParams &cp)
        : pt(1 << 16), ddr(sim, "ddr", DramTiming::ddr4_3200()),
          scheme(sim, "base", ddr, pt), mem(sim, mem_latency),
          l2(sim, "l2", l2p, &mem), counter(l2), l1(sim, "l1", l1p, &counter),
          tlb(sim, "tlb", TlbParams{16, 64, 4, 4}),
          core(sim, "cpu", 0, cp, gen, tlb, l1, scheme, pt),
          probe(sim, [this]() { return l1.sendQueueSize() > 0; })
    {
        sim.setKernelMode(mode);
    }

    Simulation sim;
    PageTable pt;
    DramDevice ddr;
    BaselineScheme scheme;
    FixedLatencyMem mem;
    SramCache l2;
    RefusalCounter counter;
    SramCache l1;
    Tlb tlb;
    ScriptedGen gen;
    Core core;
    BlockedCycleProbe probe;
};

TEST(CacheBackpressure, L1SendQueueSleepsBehindAOneMshrL2)
{
    // Loads to distinct blocks: every L1 miss sends a fill to an L2
    // with one MSHR, which refuses the next fill until the slow memory
    // answers. Loads only, through a warm TLB, so nothing joins the
    // L1's send queue from an event (a writeback from a fill, an issue
    // behind a page walk): every push comes from the core's tick,
    // after the L1's own. The L1's head is then refused at most once
    // per cycle, and a cycle that ends with a non-empty send queue is
    // exactly a cycle in which it was refused. The L2's rejects must
    // count those cycles, as a per-cycle re-offer would have, while
    // the L1 sleeps through them: it re-offers only after the L2's
    // notification.
    CacheParams l1p{4096, 4, 4, /*mshrs=*/8, 8};
    CacheParams l2p{8192, 4, 8, /*mshrs=*/1, 8};
    CoreParams cp;
    cp.windowSize = 16;
    cp.walkLatency = 50;
    cp.instructionLimit = 200;
    cp.branchRatio = 0.0;

    std::vector<double> rejects;
    for (const auto mode : BothKernels) {
        L2BackpressureRig rig(mode, l1p, l2p, /*mem_latency=*/150, cp);
        for (int i = 0; i < 32; ++i) {
            InstrRecord ld;
            ld.isMem = true;
            ld.vaddr = 0x10000 + static_cast<Addr>(i) * BlockBytes;
            rig.gen.script.push_back(ld);
        }
        const PageNum vpn = pageOf(Addr{0x10000});
        rig.tlb.insert(vpn, rig.pt.touch(vpn));
        while (!rig.core.done())
            rig.sim.run(1000);

        EXPECT_GT(rig.probe.blockedCycles, 1'000u);
        EXPECT_EQ(rig.l2.rejects.value(),
                  static_cast<double>(rig.probe.blockedCycles));
        // Each L2 fill pays one notification; after it the L1 makes at
        // most one refused offer, plus one direct offer of a fill
        // pushed into its then-empty queue.
        EXPECT_LE(static_cast<double>(rig.counter.refused),
                  2 * rig.l2.misses.value() + 1)
            << "a refused L1 head must not be re-offered every cycle";
        rejects.push_back(rig.l2.rejects.value());
    }
    EXPECT_EQ(rejects[0], rejects[1]);
}

} // namespace
} // namespace nomad
