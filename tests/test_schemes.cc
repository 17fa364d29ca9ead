/**
 * @file
 * Scheme-level tests: TiD's tags-in-DRAM behaviour (metadata traffic,
 * set conflicts, MSHR merging, critical-block-first), the NOMAD
 * scheme's decoupled data-hit verification and DC controller queue,
 * translation (memAddrFor) semantics for every scheme kind, and an L3
 * that sleeps on a full TiD, Alloy or TDRAM controller queue.
 */

#include <gtest/gtest.h>

#include "cache/sram_cache.hh"
#include "dramcache/alloy_scheme.hh"
#include "dramcache/baseline_scheme.hh"
#include "dramcache/ideal_scheme.hh"
#include "dramcache/nomad_scheme.hh"
#include "dramcache/tdc_scheme.hh"
#include "dramcache/tdram_scheme.hh"
#include "dramcache/tid_scheme.hh"

namespace nomad
{
namespace
{

class SchemeTest : public ::testing::Test
{
  protected:
    SchemeTest()
        : pt(1 << 20), hbm(sim, "hbm", DramTiming::hbm2()),
          ddr(sim, "ddr", DramTiming::ddr4_3200())
    {
    }

    template <typename Pred>
    bool
    runUntil(Pred pred, Tick bound = 3'000'000)
    {
        const Tick start = sim.now();
        while (!pred() && sim.now() - start < bound)
            sim.run(256);
        return pred();
    }

    Simulation sim;
    PageTable pt;
    DramDevice hbm;
    DramDevice ddr;
};

TEST_F(SchemeTest, TidHitCostsMetadataBandwidth)
{
    TidParams p;
    p.capacityBytes = 1 << 20;
    TidScheme tid(sim, "tid", p, ddr, hbm, pt);

    // Miss fills the line, then a hit to the same line.
    Tick done = 0;
    auto miss = makeRequest(0x10000, false, Category::Demand,
                            MemSpace::OffPackage, 0,
                            [&](Tick t) { done = t; });
    ASSERT_TRUE(tid.tryAccess(miss));
    EXPECT_EQ(tid.dcMisses.value(), 1.0);
    ASSERT_TRUE(runUntil([&]() { return done != 0; }));
    ASSERT_TRUE(runUntil([&]() { return tid.idle(); }));

    const double tag_reads = tid.tagReads.value();
    Tick done2 = 0;
    auto hit = makeRequest(0x10000 + 64, false, Category::Demand,
                           MemSpace::OffPackage, sim.now(),
                           [&](Tick t) { done2 = t; });
    ASSERT_TRUE(tid.tryAccess(hit));
    EXPECT_EQ(tid.dcHits.value(), 1.0);
    EXPECT_EQ(tid.tagReads.value(), tag_reads + 1)
        << "every DC access reads a tag burst from on-package DRAM";
    EXPECT_GT(tid.tagWrites.value(), 0.0);
    ASSERT_TRUE(runUntil([&]() { return done2 != 0; }));
    // The demand hit read on-package DRAM.
    EXPECT_GT(hbm.stats()
                  .categoryBytes[static_cast<int>(Category::Demand)]
                  .value(),
              0.0);
}

TEST_F(SchemeTest, TidLineFillMovesWholeLineCriticalBlockFirst)
{
    TidParams p;
    p.capacityBytes = 1 << 20;
    p.lineBytes = 1024;
    TidScheme tid(sim, "tid", p, ddr, hbm, pt);
    Tick done = 0;
    bool fill_still_active = false;
    // Demand the 10th block of the line: critical-block-first should
    // answer while the rest of the line is still transferring.
    auto miss = makeRequest(0x20000 + 10 * 64, false, Category::Demand,
                            MemSpace::OffPackage, 0, [&](Tick t) {
                                done = t;
                                fill_still_active = !tid.idle();
                            });
    ASSERT_TRUE(tid.tryAccess(miss));
    ASSERT_TRUE(runUntil([&]() { return done != 0; }));
    EXPECT_TRUE(fill_still_active)
        << "the demand block waited for the full line";
    ASSERT_TRUE(runUntil([&]() { return tid.idle(); }));
    EXPECT_EQ(ddr.stats().readReqs.value(), 16.0);
    EXPECT_EQ(
        hbm.stats().categoryBytes[static_cast<int>(Category::Fill)]
            .value(),
        1024.0);
}

TEST_F(SchemeTest, TidConflictEvictionWritesBackDirtyLine)
{
    TidParams p;
    p.capacityBytes = 64 * 1024; // 16 sets at 4 ways of 1KB.
    TidScheme tid(sim, "tid", p, ddr, hbm, pt);
    const Addr set_stride = 16 * 1024; // 16 sets x 1KB.
    // Fill all four ways of set 0 with dirty lines.
    for (int w = 0; w < 4; ++w) {
        auto wr = makeRequest(w * set_stride, true, Category::Demand,
                              MemSpace::OffPackage, 0, nullptr);
        ASSERT_TRUE(tid.tryAccess(wr));
        ASSERT_TRUE(runUntil([&]() { return tid.idle(); }));
    }
    // A fifth line conflicts.
    auto rd = makeRequest(4 * set_stride, false, Category::Demand,
                          MemSpace::OffPackage, sim.now(), [](Tick) {});
    ASSERT_TRUE(tid.tryAccess(rd));
    ASSERT_TRUE(runUntil([&]() { return tid.idle(); }));
    EXPECT_EQ(tid.conflictEvictions.value(), 1.0);
    EXPECT_EQ(tid.dirtyWritebacks.value(), 1.0);
    EXPECT_EQ(ddr.stats()
                  .categoryBytes[static_cast<int>(Category::Writeback)]
                  .value(),
              1024.0);
}

TEST_F(SchemeTest, TidMergesAccessesToInFlightLines)
{
    TidParams p;
    p.capacityBytes = 1 << 20;
    TidScheme tid(sim, "tid", p, ddr, hbm, pt);
    int done = 0;
    for (int i = 0; i < 4; ++i) {
        auto rd = makeRequest(0x30000 + i * 64, false, Category::Demand,
                              MemSpace::OffPackage, 0,
                              [&](Tick) { ++done; });
        ASSERT_TRUE(tid.tryAccess(rd));
    }
    EXPECT_EQ(tid.dcMisses.value(), 1.0);
    EXPECT_EQ(tid.dcMissesMerged.value(), 3.0);
    ASSERT_TRUE(runUntil([&]() { return done == 4; }));
}

TEST_F(SchemeTest, NomadDataHitForwardsToHbm)
{
    NomadParams p;
    NomadScheme nomad(sim, "nomad", p, ddr, hbm, pt);
    Tick done = 0;
    auto rd = makeRequest(5ULL << PageShift, false, Category::Demand,
                          MemSpace::OnPackage, 0,
                          [&](Tick t) { done = t; });
    ASSERT_TRUE(nomad.tryAccess(rd));
    ASSERT_TRUE(runUntil([&]() { return done != 0; }));
    EXPECT_EQ(nomad.backEnd(0).dataHits.value(), 1.0);
    EXPECT_EQ(hbm.stats().readReqs.value(), 1.0);
}

TEST_F(SchemeTest, NomadControllerQueueAbsorbsSubEntryOverflow)
{
    NomadParams p;
    p.backEnd.numPcshrs = 1;
    p.backEnd.subEntriesPerPcshr = 1;
    p.backEnd.maxReadsInFlight = 1;
    p.controllerQueueDepth = 8;
    NomadScheme nomad(sim, "nomad", p, ddr, hbm, pt);
    // Start a fill, then hammer the page with reads to un-fetched
    // blocks: one parks in the sub-entry, the rest in the controller
    // queue; none bounce back while the queue has room.
    nomad.backEnd(0).sendCacheFill(9, 1234, 0, nullptr, nullptr);
    int done = 0;
    for (int i = 0; i < 6; ++i) {
        auto rd = makeRequest((9ULL << PageShift) + (40 + i) * 64,
                              false, Category::Demand,
                              MemSpace::OnPackage, 0,
                              [&](Tick) { ++done; });
        ASSERT_TRUE(nomad.tryAccess(rd)) << "i=" << i;
    }
    ASSERT_TRUE(runUntil([&]() { return done == 6; }));
}

TEST_F(SchemeTest, MemAddrForTranslatesSpaces)
{
    NomadParams p;
    NomadScheme nomad(sim, "nomad", p, ddr, hbm, pt);
    BaselineScheme base(sim, "base", ddr, pt);

    Pte pte;
    pte.present = true;
    pte.frame = 7;
    MemSpace space;

    Addr a = base.memAddrFor(pte, 0x123456, space);
    EXPECT_EQ(space, MemSpace::OffPackage);
    EXPECT_EQ(a, (7ULL << PageShift) | 0x456u);

    a = nomad.memAddrFor(pte, 0x123456, space);
    EXPECT_EQ(space, MemSpace::OffPackage) << "uncached page -> PFN";

    pte.cached = true;
    pte.frame = 3;
    a = nomad.memAddrFor(pte, 0x123456, space);
    EXPECT_EQ(space, MemSpace::OnPackage) << "cached page -> CFN";
    EXPECT_EQ(a, (3ULL << PageShift) | 0x456u);
}

TEST_F(SchemeTest, IdealCountsWouldBeTraffic)
{
    IdealScheme ideal(sim, "ideal", ddr, hbm, pt, 64);
    Pte *pte = pt.touch(1);
    Tick resumed = 0;
    ideal.finishWalk(0, 1ULL << PageShift, pte,
                     [&](Tick t) { resumed = t + 1; });
    sim.run(3);
    EXPECT_GT(resumed, 0u) << "ideal resumes with zero latency cost";
    EXPECT_LE(resumed, 3u);
    EXPECT_EQ(ideal.fillsCounted(), 1u);
    EXPECT_TRUE(pte->cached);
    EXPECT_EQ(ddr.stats().readReqs.value(), 0.0)
        << "ideal fills cost no actual traffic";
}

TEST_F(SchemeTest, TdcFinishWalkBlocksUntilCopyCompletes)
{
    TdcParams p;
    p.copyEngines = 2;
    TdcScheme tdc(sim, "tdc", p, ddr, hbm, pt);
    Pte *pte = pt.touch(1);
    Tick resumed = 0;
    tdc.finishWalk(0, 1ULL << PageShift, pte,
                   [&](Tick t) { resumed = t; });
    sim.run(500);
    EXPECT_EQ(resumed, 0u) << "TDC blocks during the page copy";
    ASSERT_TRUE(runUntil([&]() { return resumed != 0; }));
    // The copy moved a whole page.
    EXPECT_EQ(ddr.stats().readReqs.value(), 64.0);
    EXPECT_TRUE(pte->cached);
}

TEST_F(SchemeTest, NonTagMissWalkResumesImmediately)
{
    NomadParams p;
    NomadScheme nomad(sim, "nomad", p, ddr, hbm, pt);
    Pte *pte = pt.touch(2);
    pte->nonCacheable = true; // NC pages never enter the DC.
    Tick resumed = 0;
    nomad.finishWalk(0, 2ULL << PageShift, pte,
                     [&](Tick t) { resumed = t + 1; });
    EXPECT_GT(resumed, 0u);
    EXPECT_FALSE(pte->cached);
    EXPECT_EQ(nomad.frontEnd().tagMisses.value(), 0.0);
}

/**
 * Offers a read of one block per cycle to a port, walking @p stride
 * apart, and re-offers a refused one every cycle: a polling requester
 * that names no sender.
 */
class ReadStream
{
  public:
    ReadStream(Simulation &sim, MemPort &port, Addr stride,
               std::uint64_t count)
        : sim_(sim), port_(port), stride_(stride), count_(count)
    {
        sim.addClocked(this, 1);
    }

    void
    tick()
    {
        if (next_ == count_)
            return;
        auto req = makeRequest(next_ * stride_, false, Category::Demand,
                               MemSpace::OffPackage, sim_.now(),
                               [this](Tick) { ++completed; });
        if (port_.tryAccess(req))
            ++next_;
    }

    std::uint64_t completed = 0;

  private:
    Simulation &sim_;
    MemPort &port_;
    Addr stride_;
    std::uint64_t count_;
    std::uint64_t next_ = 0;
};

/**
 * An L3 behind a tags-in-DRAM controller whose queue holds one access,
 * fed one read per cycle by a requester ticked after it. The controller
 * refuses the L3's send-queue head whenever an access waits in its
 * queue, and the L3 sleeps until the controller pops it.
 */
struct L3SleepRig
{
    L3SleepRig(Simulation::KernelMode mode, SchemeKind kind)
        : pt(1 << 20), hbm(sim, "hbm", DramTiming::hbm2()),
          ddr(sim, "ddr", DramTiming::ddr4_3200())
    {
        sim.setKernelMode(mode);
        if (kind == SchemeKind::Tid) {
            TidParams p;
            p.capacityBytes = 1 << 20;
            p.controllerQueueDepth = 1;
            auto tid = std::make_unique<TidScheme>(sim, "tid", p, ddr,
                                                   hbm, pt);
            rejects = &tid->rejects;
            scheme = std::move(tid);
        } else if (kind == SchemeKind::Alloy) {
            AlloyParams p;
            p.capacityBytes = 1 << 20;
            p.controllerQueueDepth = 1;
            auto alloy = std::make_unique<AlloyScheme>(sim, "alloy", p,
                                                       ddr, hbm, pt);
            rejects = &alloy->rejects;
            scheme = std::move(alloy);
        } else {
            TdramParams p;
            p.capacityBytes = 1 << 20;
            p.controllerQueueDepth = 1;
            auto tdram = std::make_unique<TdramScheme>(sim, "tdram", p,
                                                       ddr, hbm, pt);
            rejects = &tdram->rejects;
            scheme = std::move(tdram);
        }
        l3 = std::make_unique<SramCache>(
            sim, "l3",
            CacheParams{64 * 1024, 8, 10, 16, 8},
            scheme.get());
        // Reads 1 KB apart (one TiD line), so every access misses.
        stream = std::make_unique<ReadStream>(sim, *l3, 1024, 3000);
    }

    Simulation sim;
    PageTable pt;
    DramDevice hbm;
    DramDevice ddr;
    std::unique_ptr<DramCacheScheme> scheme;
    const stats::Scalar *rejects = nullptr;
    std::unique_ptr<SramCache> l3;
    std::unique_ptr<ReadStream> stream;
};

/** Counts the cycles that end with a cache's send queue non-empty;
 *  registered last, so it sees each cycle's end state. */
class SendQueueProbe
{
  public:
    SendQueueProbe(Simulation &sim, const SramCache &cache)
        : cache_(cache)
    {
        sim.addClocked(this, 1);
    }

    void
    tick()
    {
        if (cache_.sendQueueSize() > 0)
            ++blockedCycles;
    }

    std::uint64_t blockedCycles = 0;

  private:
    const SramCache &cache_;
};

class L3Backpressure : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(L3Backpressure, RejectsCountEveryCycleTheL3HeadWasRefused)
{
    // Reads only and every push from the requester's tick, after the
    // L3's own: the L3's head is refused at most once per cycle, and a
    // cycle that ends with its send queue non-empty is exactly a cycle
    // in which it was refused. The scheme's rejects must count those
    // cycles, as a per-cycle re-offer would have, on either run loop.
    std::vector<double> rejects;
    for (const auto mode : {Simulation::KernelMode::EventDriven,
                            Simulation::KernelMode::LegacyPolling}) {
        L3SleepRig rig(mode, GetParam());
        SendQueueProbe probe(rig.sim, *rig.l3);
        for (int i = 0; i < 1'000 && rig.stream->completed < 3000; ++i)
            rig.sim.run(1'000);

        EXPECT_EQ(rig.stream->completed, 3000u);
        EXPECT_GT(probe.blockedCycles, 500u);
        EXPECT_EQ(rig.rejects->value(),
                  static_cast<double>(probe.blockedCycles));
        rejects.push_back(rig.rejects->value());
    }
    EXPECT_EQ(rejects[0], rejects[1]);
}

INSTANTIATE_TEST_SUITE_P(TagsInDram, L3Backpressure,
                         ::testing::Values(SchemeKind::Tid,
                                           SchemeKind::Alloy,
                                           SchemeKind::Tdram));

} // namespace
} // namespace nomad
