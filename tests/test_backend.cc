/**
 * @file
 * Tests for the NOMAD back-end hardware: PCSHR allocation and the
 * interface busy protocol, R/B/W vector progression, critical-data-
 * first fetch, data-hit verification, page copy buffer hits, write
 * absorption with redundant-read suppression, sub-entry handling,
 * the area-optimized buffer gating, writebacks, a randomized
 * no-lost-command property, and a pump that sleeps on a full DRAM
 * queue until its retry notification.
 */

#include <gtest/gtest.h>

#include "dram/device.hh"
#include "dramcache/nomad_backend.hh"
#include "harden/check.hh"
#include "harden/diag.hh"
#include "sim/rng.hh"

namespace nomad
{
namespace
{

class BackEndTest : public ::testing::Test
{
  protected:
    BackEndTest()
        : hbm(sim, "hbm", DramTiming::hbm2()),
          ddr(sim, "ddr", DramTiming::ddr4_3200())
    {
        // Every scenario runs with live invariant checks, so a vector
        // ordering or accounting bug aborts the test at the violation
        // point instead of surfacing as a distant wrong stat.
        ctx.checkInvariants = true;
        sim.setHarden(&ctx);
    }

    NomadBackEnd &
    makeBackEnd(NomadBackEndParams p = {})
    {
        be = std::make_unique<NomadBackEnd>(sim, "be", p, hbm, ddr);
        return *be;
    }

    /** Run until the predicate holds or the bound elapses. */
    template <typename Pred>
    bool
    runUntil(Pred pred, Tick bound = 2'000'000)
    {
        const Tick start = sim.now();
        while (!pred() && sim.now() - start < bound)
            sim.run(256);
        return pred();
    }

    /**
     * Run the back-end to idle and audit the drained state: no live
     * PCSHRs, no parked commands or sub-entries, all buffers free.
     * Appended to every scenario so a leak in any path fails loudly.
     */
    void
    expectDrained()
    {
        ASSERT_TRUE(runUntil([&]() { return be->idle(); }))
            << "back-end failed to drain to idle";
        EXPECT_NO_THROW(be->checkDrained());
    }

    harden::Context ctx; ///< Outlives sim (declared first).
    Simulation sim;
    DramDevice hbm;
    DramDevice ddr;
    std::unique_ptr<NomadBackEnd> be;
};

TEST_F(BackEndTest, FillAcceptsImmediatelyAndCompletes)
{
    auto &backend = makeBackEnd();
    Tick accepted = 0, done = 0;
    backend.sendCacheFill(
        3, 17, 5, [&](Tick t) { accepted = t + 1; },
        [&](Tick t) { done = t; });
    EXPECT_GT(accepted, 0u) << "a free PCSHR accepts synchronously";
    EXPECT_TRUE(backend.hasFillInFlight(3));
    ASSERT_TRUE(runUntil([&]() { return done != 0; }));
    EXPECT_FALSE(backend.hasFillInFlight(3));
    EXPECT_EQ(backend.fillCommands.value(), 1.0);
    // 64 sub-blocks moved: 64 reads from DDR4, 64 writes to HBM.
    EXPECT_EQ(ddr.stats().readReqs.value(), 64.0);
    EXPECT_EQ(hbm.stats().writeReqs.value(), 64.0);
    expectDrained();
}

TEST_F(BackEndTest, InterfaceBusyWhenPcshrsExhausted)
{
    NomadBackEndParams p;
    p.numPcshrs = 2;
    auto &backend = makeBackEnd(p);
    int accepts = 0;
    for (PageNum cfn = 0; cfn < 3; ++cfn) {
        backend.sendCacheFill(cfn, 100 + cfn, 0,
                              [&](Tick) { ++accepts; }, nullptr);
    }
    EXPECT_EQ(accepts, 2) << "third command waits behind the interface";
    EXPECT_TRUE(backend.interfaceBusy());
    ASSERT_TRUE(runUntil([&]() { return accepts == 3; }));
    EXPECT_GT(backend.interfaceWait.maxValue(), 0.0);
    expectDrained();
}

TEST_F(BackEndTest, CriticalDataFirstFetchesPrioritizedSubBlock)
{
    auto &backend = makeBackEnd();
    backend.sendCacheFill(1, 50, 37, nullptr, nullptr);
    // Drive one controller round so the first reads issue, then check
    // the demanded sub-block is serviceable before the whole page.
    auto read_req = makeRequest((1ULL << PageShift) + 37 * BlockBytes,
                                false, Category::Demand,
                                MemSpace::OnPackage, sim.now(),
                                nullptr);
    Tick served = 0;
    read_req->onComplete = [&](Tick t) { served = t; };
    const auto result = backend.access(read_req);
    EXPECT_EQ(result, NomadBackEnd::AccessResult::Pending);
    ASSERT_TRUE(runUntil([&]() { return served != 0; }));
    // The prioritized block arrives long before the full page copy.
    EXPECT_TRUE(backend.hasFillInFlight(1));
    EXPECT_EQ(backend.pendingServed.value(), 1.0);
    expectDrained();
}

TEST_F(BackEndTest, DataHitWhenNoPcshrMatches)
{
    auto &backend = makeBackEnd();
    backend.sendCacheFill(7, 50, 0, nullptr, nullptr);
    auto req = makeRequest(9ULL << PageShift, false, Category::Demand,
                           MemSpace::OnPackage, 0, nullptr);
    EXPECT_EQ(backend.access(req), NomadBackEnd::AccessResult::DataHit);
    expectDrained();
}

TEST_F(BackEndTest, BufferHitServesReadWithoutHbmAccess)
{
    auto &backend = makeBackEnd();
    backend.sendCacheFill(2, 60, 0, nullptr, nullptr);
    // Let sub-block 0 arrive in the buffer.
    ASSERT_TRUE(runUntil(
        [&]() { return backend.pendingServed.value() >= 0 &&
                       ddr.stats().readReqs.value() >= 1 &&
                       !ddr.idle() == false; },
        50'000));
    // Wait until at least one sub-block is buffered: probe via access.
    Tick served = 0;
    ASSERT_TRUE(runUntil([&]() {
        if (served)
            return true;
        auto req = makeRequest(2ULL << PageShift, false,
                               Category::Demand, MemSpace::OnPackage,
                               sim.now(),
                               [&](Tick t) { served = t; });
        const auto res = backend.access(req);
        if (res == NomadBackEnd::AccessResult::DataHit) {
            served = sim.now(); // Fill already completed: also fine.
            return true;
        }
        return false;
    }));
    expectDrained();
}

TEST_F(BackEndTest, WriteDataMissAbsorbedAndReadSkipped)
{
    NomadBackEndParams p;
    p.maxReadsInFlight = 1; // Slow the fetch so the write lands first.
    auto &backend = makeBackEnd(p);
    sim.run(4); // Move off tick zero so completion times are nonzero.
    backend.sendCacheFill(4, 70, 0, nullptr, nullptr);
    // Write to a sub-block far from the fetch cursor.
    Tick done = 0;
    auto wr = makeRequest((4ULL << PageShift) + 60 * BlockBytes, true,
                          Category::Demand, MemSpace::OnPackage,
                          sim.now(), [&](Tick t) { done = t; });
    EXPECT_EQ(backend.access(wr),
              NomadBackEnd::AccessResult::Serviced);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(backend.bufferWrites.value(), 1.0);
    EXPECT_EQ(backend.readsSkipped.value(), 1.0)
        << "the R vector suppresses the now-redundant source read";
    ASSERT_TRUE(runUntil([&]() { return backend.idle(); }));
    // One source read was skipped.
    EXPECT_EQ(ddr.stats().readReqs.value(), 63.0);
    EXPECT_EQ(hbm.stats().writeReqs.value(), 64.0);
    expectDrained();
}

TEST_F(BackEndTest, ReleaseWithSourceReadOutstandingDrainsClean)
{
    // Demand writes complete the fill while one source read is still
    // out, so the PCSHR is released with that read in flight. Its late
    // arrival is dropped as stale without touching the slot, so the
    // release itself must zero the in-flight count.
    NomadBackEndParams p;
    p.maxReadsInFlight = 1;
    auto &backend = makeBackEnd(p);
    backend.sendCacheFill(4, 70, 0, nullptr, nullptr);
    sim.run(2); // One pump pass: one source read out.
    for (std::uint32_t i = 0; i < SubBlocksPerPage; ++i) {
        auto wr = makeRequest((4ULL << PageShift) + i * BlockBytes, true,
                              Category::Demand, MemSpace::OnPackage,
                              sim.now());
        EXPECT_EQ(backend.access(wr),
                  NomadBackEnd::AccessResult::Serviced);
    }
    ASSERT_TRUE(runUntil([&]() { return hbm.idle() && ddr.idle(); }));
    EXPECT_FALSE(backend.hasFillInFlight(4));
    EXPECT_EQ(backend.staleReadsDropped.value(), 1.0);
    expectDrained();
}

TEST_F(BackEndTest, SubEntriesBoundedAndRejectBeyond)
{
    NomadBackEndParams p;
    p.subEntriesPerPcshr = 2;
    p.maxReadsInFlight = 1;
    auto &backend = makeBackEnd(p);
    backend.sendCacheFill(5, 80, 0, nullptr, nullptr);
    int pending = 0, rejected = 0;
    for (int i = 0; i < 3; ++i) {
        auto rd = makeRequest(
            (5ULL << PageShift) + (50 + i) * BlockBytes, false,
            Category::Demand, MemSpace::OnPackage, 0, [](Tick) {});
        const auto res = backend.access(rd);
        pending += res == NomadBackEnd::AccessResult::Pending;
        rejected += res == NomadBackEnd::AccessResult::Reject;
    }
    EXPECT_EQ(pending, 2);
    EXPECT_EQ(rejected, 1);
    EXPECT_EQ(backend.subEntryRejects.value(), 1.0);
    expectDrained();
}

TEST_F(BackEndTest, WritebackMovesPageToOffPackage)
{
    auto &backend = makeBackEnd();
    Tick done = 0;
    backend.sendWriteback(6, 90, nullptr, [&](Tick t) { done = t; });
    ASSERT_TRUE(runUntil([&]() { return done != 0; }));
    EXPECT_EQ(hbm.stats().readReqs.value(), 64.0);
    EXPECT_EQ(ddr.stats().writeReqs.value(), 64.0);
    EXPECT_EQ(backend.writebackCommands.value(), 1.0);
    expectDrained();
}

TEST_F(BackEndTest, WritebackPcshrDoesNotMatchDataAccesses)
{
    auto &backend = makeBackEnd();
    backend.sendWriteback(6, 90, nullptr, nullptr);
    auto req = makeRequest(6ULL << PageShift, false, Category::Demand,
                           MemSpace::OnPackage, 0, nullptr);
    EXPECT_EQ(backend.access(req), NomadBackEnd::AccessResult::DataHit)
        << "only cache-fill PCSHRs gate DC accesses";
    expectDrained();
}

TEST_F(BackEndTest, AreaOptimizedBufferGatesTransfers)
{
    NomadBackEndParams p;
    p.numPcshrs = 4;
    p.numBuffers = 1;
    auto &backend = makeBackEnd(p);
    int accepts = 0;
    for (PageNum cfn = 0; cfn < 4; ++cfn) {
        backend.sendCacheFill(cfn, 200 + cfn, 0,
                              [&](Tick) { ++accepts; }, nullptr);
    }
    EXPECT_EQ(accepts, 4)
        << "PCSHRs accept commands even without buffers";
    sim.run(220);
    // With one buffer, at most one page (64 reads) can be in flight at
    // a time; early on, total source reads stay within one page.
    EXPECT_LE(ddr.stats().readReqs.value(), 64.0);
    ASSERT_TRUE(runUntil([&]() { return backend.idle(); }));
    EXPECT_EQ(ddr.stats().readReqs.value(), 256.0);
    expectDrained();
}

TEST_F(BackEndTest, FillLatencyRecorded)
{
    auto &backend = makeBackEnd();
    backend.sendCacheFill(8, 100, 0, nullptr, nullptr);
    ASSERT_TRUE(runUntil([&]() { return backend.idle(); }));
    EXPECT_EQ(backend.fillLatency.count(), 1u);
    EXPECT_GT(backend.fillLatency.mean(), 100.0)
        << "a 4KB page copy costs many cycles";
    expectDrained();
}

/** Property: N randomized commands all complete, and the back-end
 *  drains to idle with conservation of sub-block transfers. */
class BackEndRandom : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BackEndRandom, AllCommandsComplete)
{
    Simulation sim;
    harden::Context ctx;
    ctx.checkInvariants = true;
    sim.setHarden(&ctx);
    DramDevice hbm(sim, "hbm", DramTiming::hbm2());
    DramDevice ddr(sim, "ddr", DramTiming::ddr4_3200());
    NomadBackEndParams p;
    p.numPcshrs = 4;
    NomadBackEnd backend(sim, "be", p, hbm, ddr);
    Rng rng(GetParam());

    const int total = 24;
    int done = 0;
    for (int i = 0; i < total; ++i) {
        const PageNum cfn = rng.nextRange(512);
        const PageNum pfn = 1000 + rng.nextRange(4096);
        if (rng.chance(0.3)) {
            backend.sendWriteback(cfn, pfn, nullptr,
                                  [&](Tick) { ++done; });
        } else {
            backend.sendCacheFill(
                cfn, pfn,
                static_cast<std::uint32_t>(rng.nextRange(64)), nullptr,
                [&](Tick) { ++done; });
        }
    }
    const Tick bound = 10'000'000;
    const Tick start = sim.now();
    while (done < total && sim.now() - start < bound)
        sim.run(1024);
    EXPECT_EQ(done, total);
    EXPECT_TRUE(backend.idle());
    EXPECT_NO_THROW(backend.checkDrained());
    // Conservation: every command moved exactly 64 sub-blocks.
    EXPECT_EQ(ddr.stats().readReqs.value() +
                  hbm.stats().readReqs.value(),
              total * 64.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackEndRandom,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

/**
 * Samples a back-end's DRAM-side state at the end of every cycle:
 * registered after the back-end and both devices, it sees what that
 * cycle left behind.
 */
class BlockedPumpProbe
{
  public:
    BlockedPumpProbe(Simulation &sim, DramDevice &ddr, DramDevice &hbm)
        : ddr_(ddr), hbm_(hbm)
    {
        sim.addClocked(this, 1);
    }

    void
    tick()
    {
        // Quiet: the DDR read queue ended the cycle full, and in the
        // cycle no read CAS left it and no page-copy write reached HBM.
        // The first quiet cycle after any activity holds the pump pass
        // that finds every offer refused; from the second on, the pump
        // has nothing to do but wait for the queue's notification.
        const bool full = ddr_.channel(0).readQueueSize() ==
                          ddr_.timing().readQueueDepth;
        const double cas = ddr_.stats().readReqs.value();
        const double writes = hbm_.stats().writeReqs.value();
        const std::uint64_t taken = detail::requestPool().recycled;
        quiet_ = full && cas == lastCas_ && writes == lastWrites_
                     ? quiet_ + 1
                     : 0;
        if (quiet_ >= 2) {
            ++blockedCycles;
            if (taken != lastTaken_)
                ++blockedCyclesTakingRequests;
        }
        lastCas_ = cas;
        lastWrites_ = writes;
        lastTaken_ = taken;
    }

    std::uint64_t blockedCycles = 0;
    /** Blocked cycles that took a pooled request. */
    std::uint64_t blockedCyclesTakingRequests = 0;

  private:
    DramDevice &ddr_;
    DramDevice &hbm_;
    std::uint64_t quiet_ = 0;
    double lastCas_ = 0;
    double lastWrites_ = 0;
    std::uint64_t lastTaken_ = 0;
};

TEST(CopyEngineBackpressure, BlockedPumpTakesNoRequestWhileTheQueueStaysFull)
{
    // A page copy whose source reads meet a full one-channel DDR read
    // queue: the pump must sleep on the queue's retry notification
    // instead of building and offering a request per blocked slot per
    // cycle, on either run loop, and still finish the copy.
    for (const auto mode : {Simulation::KernelMode::EventDriven,
                            Simulation::KernelMode::LegacyPolling}) {
        Simulation sim;
        sim.setKernelMode(mode);
        DramTiming t = DramTiming::ddr4_3200();
        t.channels = 1;
        t.readQueueDepth = 4;
        DramDevice hbm(sim, "hbm", DramTiming::hbm2());
        DramDevice ddr(sim, "ddr", t);
        NomadBackEndParams p;
        p.numPcshrs = 2;
        NomadBackEnd be(sim, "be", p, hbm, ddr);
        BlockedPumpProbe probe(sim, ddr, hbm);

        // Park spare packets so every request taken from now on shows
        // up in the pool's recycled count.
        std::vector<MemRequestPtr> spare;
        for (int i = 0; i < 256; ++i) {
            spare.push_back(makeRequest(0, false, Category::Demand,
                                        MemSpace::OffPackage, 0));
        }
        spare.clear();
        // Another requester fills the read queue first.
        for (Addr i = 0; i < t.readQueueDepth; ++i) {
            ASSERT_TRUE(ddr.tryAccess(
                makeRequest((i + 1) << 24, false, Category::Demand,
                            MemSpace::OffPackage, 0)));
        }
        int done = 0;
        be.sendCacheFill(3, 17, 0, nullptr, [&](Tick) { ++done; });
        be.sendCacheFill(4, 18, 0, nullptr, [&](Tick) { ++done; });
        for (int i = 0; i < 2'000 && done < 2; ++i)
            sim.run(256);

        EXPECT_EQ(done, 2);
        EXPECT_GT(probe.blockedCycles, 100u);
        EXPECT_EQ(probe.blockedCyclesTakingRequests, 0u)
            << "a pump blocked on a full DRAM queue must sleep";
        EXPECT_TRUE(be.idle());
    }
}

} // namespace
} // namespace nomad
