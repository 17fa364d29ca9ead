/**
 * @file
 * Unit and property tests for the DRAM timing model: address mapping,
 * single-access latency, row-buffer behaviour, write handling, refresh,
 * backpressure and its retry notifications, and a randomized
 * completeness/latency-bound property.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "dram/device.hh"
#include "sim/rng.hh"

namespace nomad
{
namespace
{

/** Issue a read and run until it completes; returns the latency. */
Tick
timedRead(Simulation &sim, DramDevice &dev, Addr addr)
{
    Tick done = 0;
    const Tick start = sim.now();
    auto req = makeRequest(addr, false, Category::Demand,
                           MemSpace::OffPackage, start,
                           [&](Tick when) { done = when; });
    EXPECT_TRUE(dev.tryAccess(req));
    while (done == 0)
        sim.run(100);
    return done - start;
}

TEST(AddressMapping, FieldsWithinBounds)
{
    const DramTiming t = DramTiming::ddr4_3200();
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.nextRange(t.capacityBytes);
        const DramCoord c =
            decodeAddress(addr, t, MappingScheme::ChBgBaCoRaRo);
        ASSERT_LT(c.channel, t.channels);
        ASSERT_LT(c.rank, t.ranksPerChannel);
        ASSERT_LT(c.bankGroup, t.bankGroups);
        ASSERT_LT(c.bank, t.banksPerGroup);
        ASSERT_LT(c.column, t.blocksPerRow());
        ASSERT_LT(c.row, t.rowsPerBank());
    }
}

TEST(AddressMapping, DistinctBlocksDecodeDistinctly)
{
    const DramTiming t = DramTiming::hbm2();
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                        std::uint32_t, std::uint64_t, std::uint64_t>,
             Addr>
        seen;
    for (Addr a = 0; a < 1024 * BlockBytes; a += BlockBytes) {
        const DramCoord c =
            decodeAddress(a, t, MappingScheme::ChBgBaCoRaRo);
        auto key = std::make_tuple(c.channel, c.rank, c.bankGroup,
                                   c.bank, c.row, c.column);
        ASSERT_EQ(seen.count(key), 0u)
            << "aliased with addr " << seen[key];
        seen[key] = a;
    }
}

TEST(AddressMapping, ConsecutiveBlocksInterleaveChannels)
{
    const DramTiming t = DramTiming::hbm2(2);
    const auto c0 =
        decodeAddress(0, t, MappingScheme::ChBgBaCoRaRo).channel;
    const auto c1 =
        decodeAddress(BlockBytes, t, MappingScheme::ChBgBaCoRaRo)
            .channel;
    EXPECT_NE(c0, c1);
}

TEST(AddressMapping, Co1MappingAlternatesBankGroupsKeepsRowLocality)
{
    const DramTiming t = DramTiming::ddr4_3200();
    // Consecutive 128B chunks alternate bank groups (hides tCCD_L)...
    const auto a =
        decodeAddress(0, t, MappingScheme::Co1ChBgBaCoRaRo);
    const auto b =
        decodeAddress(128, t, MappingScheme::Co1ChBgBaCoRaRo);
    EXPECT_NE(a.bankGroup, b.bankGroup);
    // ...while a whole 4KB page still lands in one row per bank.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>
        bank_row;
    for (Addr addr = 0; addr < PageBytes; addr += BlockBytes) {
        const auto c =
            decodeAddress(addr, t, MappingScheme::Co1ChBgBaCoRaRo);
        auto key = std::make_pair(c.flatBank(t), c.rank);
        auto [it, inserted] = bank_row.try_emplace(key, c.row);
        EXPECT_EQ(it->second, c.row)
            << "page blocks must share one row per bank";
    }
}

TEST(AddressMapping, Co1MappingIsABijectionOverBlocks)
{
    const DramTiming t = DramTiming::hbm2();
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                        std::uint32_t, std::uint64_t, std::uint64_t>>
        seen;
    for (Addr a = 0; a < 4096 * BlockBytes; a += BlockBytes) {
        const auto c =
            decodeAddress(a, t, MappingScheme::Co1ChBgBaCoRaRo);
        EXPECT_TRUE(seen.emplace(c.channel, c.rank, c.bankGroup,
                                 c.bank, c.row, c.column)
                        .second)
            << "alias at " << a;
    }
}

/** Property: every mapping scheme is a bounded bijection over blocks,
 *  for both device presets. */
class MappingProperty
    : public ::testing::TestWithParam<std::tuple<MappingScheme, bool>>
{
};

TEST_P(MappingProperty, BoundedBijection)
{
    const auto [scheme, use_hbm] = GetParam();
    const DramTiming t =
        use_hbm ? DramTiming::hbm2() : DramTiming::ddr4_3200();
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                        std::uint32_t, std::uint64_t, std::uint64_t>>
        seen;
    for (Addr a = 0; a < 2048 * BlockBytes; a += BlockBytes) {
        const DramCoord c = decodeAddress(a, t, scheme);
        ASSERT_LT(c.channel, t.channels);
        ASSERT_LT(c.rank, t.ranksPerChannel);
        ASSERT_LT(c.bankGroup, t.bankGroups);
        ASSERT_LT(c.bank, t.banksPerGroup);
        ASSERT_LT(c.column, t.blocksPerRow());
        ASSERT_LT(c.row, t.rowsPerBank());
        ASSERT_TRUE(seen.emplace(c.channel, c.rank, c.bankGroup,
                                 c.bank, c.row, c.column)
                        .second)
            << "alias at " << a;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, MappingProperty,
    ::testing::Combine(
        ::testing::Values(MappingScheme::ChBgBaCoRaRo,
                          MappingScheme::ChCoBgBaRaRo,
                          MappingScheme::CoChBgBaRaRo,
                          MappingScheme::Co1ChBgBaCoRaRo),
        ::testing::Bool()));

TEST(DramDevice, EnergyAccumulatesPerOperation)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    const DramTiming &t = dev.timing();
    Tick done = 0;
    dev.tryAccess(makeRequest(0, false, Category::Demand,
                              MemSpace::OffPackage, 0,
                              [&](Tick when) { done = when; }));
    while (done == 0)
        sim.run(100);
    // One ACT + one RD at minimum.
    EXPECT_GE(dev.stats().energyPj.value(), t.eActPre + t.eRead);
    const double after_read = dev.stats().energyPj.value();
    dev.tryAccess(makeRequest(64, true, Category::Demand,
                              MemSpace::OffPackage, 0));
    sim.run(200);
    EXPECT_GE(dev.stats().energyPj.value(), after_read + t.eWrite);
}

TEST(Timing, PresetsAreSane)
{
    const DramTiming ddr = DramTiming::ddr4_3200();
    const DramTiming hbm = DramTiming::hbm2();
    EXPECT_GT(ddr.rowsPerBank(), 0u);
    EXPECT_GT(hbm.rowsPerBank(), 0u);
    // 25.6 GB/s and 204.8 GB/s at a 3.2 GHz CPU clock.
    EXPECT_NEAR(ddr.peakBytesPerTick() * 3.2e9 / 1e9, 25.6, 0.1);
    EXPECT_NEAR(hbm.peakBytesPerTick() * 3.2e9 / 1e9, 204.8, 1.0);
}

TEST(DramDevice, ColdReadLatencyMatchesActRcdClBl)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    const DramTiming &t = dev.timing();
    const Tick lat = timedRead(sim, dev, 0);
    // ACT -> tRCD -> RD -> tCL -> tBL, plus up to two controller-cycle
    // alignment slops.
    const Tick ideal =
        static_cast<Tick>(t.tRCD + t.tCL + t.burstCycles) * t.clkRatio;
    EXPECT_GE(lat, ideal);
    EXPECT_LE(lat, ideal + 3 * t.clkRatio);
    EXPECT_EQ(dev.stats().rowMisses.value(), 1.0);
}

TEST(DramDevice, RowHitIsFasterThanConflict)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    const DramTiming &t = dev.timing();
    timedRead(sim, dev, 0);
    // Same row, next block: a row hit.
    const Addr same_row = static_cast<Addr>(t.channels) *
                          t.bankGroups * t.banksPerGroup * BlockBytes *
                          0; // Column bits sit above bank bits.
    (void)same_row;
    const Tick hit_lat = timedRead(sim, dev, 0 + BlockBytes * 512);
    // Same bank, different row: decode row stride.
    const std::uint64_t row_stride =
        t.channels * t.bankGroups * t.banksPerGroup *
        t.blocksPerRow() * t.ranksPerChannel * BlockBytes;
    const Tick conflict_lat = timedRead(sim, dev, row_stride);
    EXPECT_GT(dev.stats().rowHits.value(), 0.0);
    EXPECT_GT(dev.stats().rowConflicts.value(), 0.0);
    EXPECT_LT(hit_lat, conflict_lat);
}

TEST(DramDevice, WritesCompleteOnAcceptance)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    bool done = false;
    auto req = makeRequest(0, true, Category::Demand,
                           MemSpace::OffPackage, 0,
                           [&](Tick) { done = true; });
    EXPECT_TRUE(dev.tryAccess(req));
    EXPECT_TRUE(done) << "posted write must complete at acceptance";
    EXPECT_EQ(dev.stats().writeReqs.value(), 1.0);
}

TEST(DramDevice, ReadForwardsFromWriteQueue)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    dev.tryAccess(makeRequest(128, true, Category::Demand,
                              MemSpace::OffPackage, 0));
    Tick done = 0;
    dev.tryAccess(makeRequest(128, false, Category::Demand,
                              MemSpace::OffPackage, 0,
                              [&](Tick when) { done = when; }));
    sim.run(10);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(dev.stats().forwards.value(), 1.0);
}

TEST(DramDevice, DuplicateWritesMerge)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    dev.tryAccess(makeRequest(64, true, Category::Demand,
                              MemSpace::OffPackage, 0));
    dev.tryAccess(makeRequest(64 + 8, true, Category::Demand,
                              MemSpace::OffPackage, 0));
    EXPECT_EQ(dev.stats().mergedWrites.value(), 1.0);
}

TEST(DramDevice, BackpressureWhenQueueFull)
{
    Simulation sim;
    DramTiming t = DramTiming::ddr4_3200();
    t.readQueueDepth = 4;
    t.channels = 1;
    DramDevice dev(sim, "dram", t);
    int accepted = 0;
    for (int i = 0; i < 10; ++i) {
        if (dev.tryAccess(makeRequest(
                static_cast<Addr>(i) * (1 << 20), false,
                Category::Demand, MemSpace::OffPackage, 0))) {
            ++accepted;
        }
    }
    EXPECT_EQ(accepted, 4);
}

TEST(DramDevice, RefreshHappens)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    // Keep the device non-idle so clock edges advance it.
    Tick done = 0;
    dev.tryAccess(makeRequest(0, false, Category::Demand,
                              MemSpace::OffPackage, 0,
                              [&](Tick when) { done = when; }));
    const Tick refi_ticks =
        static_cast<Tick>(dev.timing().tREFI) * dev.timing().clkRatio;
    sim.run(3 * refi_ticks);
    // Issue another access so post-refresh work happens.
    dev.tryAccess(makeRequest(BlockBytes, false, Category::Demand,
                              MemSpace::OffPackage, 0));
    sim.run(refi_ticks);
    EXPECT_GE(dev.stats().refreshes.value(), 1.0);
}

TEST(DramDevice, CategoryAccounting)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    dev.tryAccess(makeRequest(0, false, Category::Fill,
                              MemSpace::OffPackage, 0));
    dev.tryAccess(makeRequest(1 << 20, true, Category::Writeback,
                              MemSpace::OffPackage, 0));
    sim.run(500);
    const auto &s = dev.stats();
    EXPECT_EQ(
        s.categoryBytes[static_cast<int>(Category::Fill)].value(),
        64.0);
    EXPECT_EQ(s.categoryBytes[static_cast<int>(Category::Writeback)]
                  .value(),
              64.0);
}

/**
 * A sender that records each retry notification and the channel
 * queue depths it found, i.e. the state the notification was paid
 * against (MemPort: pay before the state change).
 */
class RecordingSender : public RetrySender
{
  public:
    explicit RecordingSender(const DramChannel &ch) : ch_(ch) {}

    void
    recvRetry() override
    {
        readQAtRetry.push_back(ch_.readQueueSize());
        writeQAtRetry.push_back(ch_.writeQueueSize());
    }

    std::size_t retries() const { return readQAtRetry.size(); }

    std::vector<std::size_t> readQAtRetry;
    std::vector<std::size_t> writeQAtRetry;

  private:
    const DramChannel &ch_;
};

/** One channel with four-entry queues: small enough to fill by hand. */
DramTiming
tinyQueues()
{
    DramTiming t = DramTiming::ddr4_3200();
    t.channels = 1;
    t.readQueueDepth = 4;
    t.writeQueueDepth = 4;
    return t;
}

MemRequestPtr
sentBy(RetrySender *sender, Addr addr, bool is_write)
{
    auto req = makeRequest(addr, is_write, Category::Demand,
                           MemSpace::OffPackage, 0);
    req->sender = sender;
    return req;
}

TEST(DramRetry, EachRefusedReadSenderIsPaidOnceBeforeTheReadCas)
{
    Simulation sim;
    const DramTiming t = tinyQueues();
    DramDevice dev(sim, "dram", t);
    DramChannel &ch = dev.channel(0);
    for (Addr i = 0; i < t.readQueueDepth; ++i)
        ASSERT_TRUE(dev.tryAccess(sentBy(nullptr, i << 20, false)));

    // A is refused twice, B once: one notification each is owed.
    RecordingSender a(ch), b(ch);
    EXPECT_FALSE(dev.tryAccess(sentBy(&a, 5 * BlockBytes, false)));
    EXPECT_FALSE(dev.tryAccess(sentBy(&a, 6 * BlockBytes, false)));
    EXPECT_FALSE(dev.tryAccess(sentBy(&b, 7 * BlockBytes, false)));
    EXPECT_EQ(a.retries(), 0u);

    for (int i = 0; i < 10'000 && a.retries() == 0; ++i)
        sim.run(1);
    ASSERT_EQ(a.retries(), 1u);
    ASSERT_EQ(b.retries(), 1u);
    // Paid before the read CAS took its entry out of the queue.
    EXPECT_EQ(a.readQAtRetry[0], t.readQueueDepth);
    EXPECT_EQ(b.readQAtRetry[0], t.readQueueDepth);
    EXPECT_EQ(ch.readQueueSize(), t.readQueueDepth - 1);

    // Neither re-offered, so nothing more is owed through the drain.
    sim.run(20'000);
    EXPECT_TRUE(dev.idle());
    EXPECT_EQ(a.retries(), 1u);
    EXPECT_EQ(b.retries(), 1u);
}

TEST(DramRetry, RefusedReadIsPaidWhenAWriteToItsBlockIsAccepted)
{
    Simulation sim;
    const DramTiming t = tinyQueues();
    DramDevice dev(sim, "dram", t);
    DramChannel &ch = dev.channel(0);
    for (Addr i = 0; i < t.readQueueDepth; ++i)
        ASSERT_TRUE(dev.tryAccess(sentBy(nullptr, i << 20, false)));

    RecordingSender a(ch);
    const Addr block = 5 * BlockBytes;
    EXPECT_FALSE(dev.tryAccess(sentBy(&a, block, false)));
    // A write to another block gives the refused read nothing to
    // forward from.
    EXPECT_TRUE(dev.tryAccess(sentBy(nullptr, 6 * BlockBytes, true)));
    EXPECT_EQ(a.retries(), 0u);

    // A write to its block does: paid before the write is queued.
    EXPECT_TRUE(dev.tryAccess(sentBy(nullptr, block, true)));
    ASSERT_EQ(a.retries(), 1u);
    EXPECT_EQ(a.writeQAtRetry[0], 1u);
    EXPECT_EQ(ch.readQueueSize(), t.readQueueDepth);
    EXPECT_TRUE(dev.tryAccess(sentBy(&a, block, false)));
    EXPECT_EQ(dev.stats().forwards.value(), 1.0);
}

TEST(DramRetry, RefusedWriteIsPaidByTheWriteCasThatFreesItsQueue)
{
    Simulation sim;
    const DramTiming t = tinyQueues();
    DramDevice dev(sim, "dram", t);
    DramChannel &ch = dev.channel(0);
    for (Addr i = 0; i < t.writeQueueDepth; ++i)
        ASSERT_TRUE(dev.tryAccess(sentBy(nullptr, i << 20, true)));

    RecordingSender a(ch);
    EXPECT_FALSE(dev.tryAccess(sentBy(&a, 5 * BlockBytes, true)));
    for (int i = 0; i < 10'000 && a.retries() == 0; ++i)
        sim.run(1);
    ASSERT_EQ(a.retries(), 1u);
    EXPECT_EQ(a.writeQAtRetry[0], t.writeQueueDepth);
    EXPECT_EQ(ch.writeQueueSize(), t.writeQueueDepth - 1);
    EXPECT_TRUE(dev.tryAccess(sentBy(&a, 5 * BlockBytes, true)));
}

/** Property: under random traffic every read completes, never faster
 *  than the device's minimum latency, and total data moved never
 *  exceeds the peak-bandwidth bound. */
class DramRandomTraffic
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>>
{
};

TEST_P(DramRandomTraffic, AllReadsCompleteWithinBounds)
{
    const auto [seed, use_hbm] = GetParam();
    Simulation sim;
    const DramTiming t =
        use_hbm ? DramTiming::hbm2() : DramTiming::ddr4_3200();
    DramDevice dev(sim, "dram", t);
    Rng rng(seed);

    const int total = 2000;
    int completed = 0;
    Tick min_lat = MaxTick;
    const Tick start_all = sim.now();
    int issued = 0;
    std::vector<MemRequestPtr> pending;
    while (completed < total) {
        if (issued < total && pending.size() < 64) {
            const Addr addr =
                blockAlign(rng.nextRange(t.capacityBytes));
            const bool is_write = rng.chance(0.3);
            const Tick issue_tick = sim.now();
            auto req = makeRequest(
                addr, is_write, Category::Demand,
                MemSpace::OffPackage, issue_tick,
                [&, issue_tick](Tick when) {
                    ++completed;
                    if (when > issue_tick)
                        min_lat = std::min(min_lat, when - issue_tick);
                });
            if (dev.tryAccess(req))
                ++issued;
        }
        sim.run(8);
    }
    EXPECT_EQ(completed, total);
    const double elapsed =
        static_cast<double>(sim.now() - start_all);
    const double moved = dev.stats().bytesRead.value() +
                         dev.stats().bytesWritten.value();
    EXPECT_LE(moved, t.peakBytesPerTick() * elapsed * 1.01 + 4096);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DramRandomTraffic,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Bool()));

} // namespace
} // namespace nomad
