/**
 * @file
 * Unit and property tests for the DRAM timing model: address mapping,
 * single-access latency, row-buffer behaviour, the FR-FCFS scheduling
 * rules, write handling, refresh, backpressure and its retry
 * notifications, a randomized completeness/latency-bound property,
 * and pinned command streams under saturating mixed traffic.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <sstream>
#include <string>
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
        const DramCoord c = decodeAddress(addr, t);
        ASSERT_LT(c.channel, t.channels);
        ASSERT_LT(c.rank, t.ranksPerChannel);
        ASSERT_LT(c.bankGroup, t.bankGroups);
        ASSERT_LT(c.bank, t.banksPerGroup);
        ASSERT_LT(c.column, t.blocksPerRow());
        ASSERT_LT(c.row, t.rowsPerBank());
    }
}

TEST(AddressMapping, BlockPairsInterleaveChannels)
{
    // One 128B column bit sits below the channel bits: a 128B pair
    // shares its channel and the next pair moves on.
    const DramTiming t = DramTiming::hbm2(2);
    const auto c0 = decodeAddress(0, t).channel;
    EXPECT_EQ(decodeAddress(BlockBytes, t).channel, c0);
    EXPECT_NE(decodeAddress(2 * BlockBytes, t).channel, c0);
}

TEST(AddressMapping, Co1MappingAlternatesBankGroupsKeepsRowLocality)
{
    const DramTiming t = DramTiming::ddr4_3200();
    // Consecutive 128B chunks alternate bank groups (hides tCCD_L)...
    const auto a = decodeAddress(0, t);
    const auto b = decodeAddress(128, t);
    EXPECT_NE(a.bankGroup, b.bankGroup);
    // ...while a whole 4KB page still lands in one row per bank.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>
        bank_row;
    for (Addr addr = 0; addr < PageBytes; addr += BlockBytes) {
        const auto c = decodeAddress(addr, t);
        auto key = std::make_pair(c.flatBank(t), c.rank);
        auto [it, inserted] = bank_row.try_emplace(key, c.row);
        EXPECT_EQ(it->second, c.row)
            << "page blocks must share one row per bank";
    }
}

/** Property: the address map is a bounded bijection over blocks, for
 *  both device presets (true = HBM2, false = DDR4-3200). */
class MappingProperty : public ::testing::TestWithParam<bool>
{
};

TEST_P(MappingProperty, BoundedBijection)
{
    const DramTiming t =
        GetParam() ? DramTiming::hbm2() : DramTiming::ddr4_3200();
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                        std::uint32_t, std::uint64_t, std::uint64_t>>
        seen;
    for (Addr a = 0; a < 4096 * BlockBytes; a += BlockBytes) {
        const DramCoord c = decodeAddress(a, t);
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

INSTANTIATE_TEST_SUITE_P(BothPresets, MappingProperty, ::testing::Bool());

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

/** Records every command a channel issues. */
class CommandLog : public DramCommandObserver
{
  public:
    struct Issued
    {
        DramCommand cmd;
        Tick tick;
        std::uint32_t rank, bankGroup, bank;
        std::uint64_t row;
    };

    void
    command(DramCommand cmd, Tick tick, std::uint32_t rank,
            std::uint32_t bank_group, std::uint32_t bank,
            std::uint64_t row) override
    {
        cmds.push_back({cmd, tick, rank, bank_group, bank, row});
    }

    /** "RD 0.0 r1, PRE 0.0 r1, ...": kind, bank group.bank, row. */
    std::string
    str() const
    {
        static const char *const kinds[] = {"ACT", "PRE", "RD", "WR",
                                            "REF"};
        std::ostringstream os;
        for (const auto &c : cmds) {
            if (&c != &cmds.front())
                os << ", ";
            os << kinds[static_cast<int>(c.cmd)] << ' ' << c.bankGroup
               << '.' << c.bank << " r" << c.row;
        }
        return os.str();
    }

    std::vector<Issued> cmds;
};

/** A block of channel 0, rank 0, bank (@p group, @p bank) in @p row. */
Addr
blockIn(const DramTiming &t, std::uint32_t group, std::uint32_t bank,
        std::uint64_t row, std::uint64_t column = 0)
{
    const Addr stride = static_cast<Addr>(t.channels) *
                        t.ranksPerChannel * t.banksPerRank() *
                        t.rowBytes;
    for (Addr a = row * stride; a < (row + 1) * stride;
         a += BlockBytes) {
        const DramCoord c = decodeAddress(a, t);
        if (c.channel == 0 && c.rank == 0 && c.bankGroup == group &&
            c.bank == bank && c.row == row && c.column == column)
            return a;
    }
    ADD_FAILURE() << "no block in bank " << group << '.' << bank
                  << " row " << row;
    return 0;
}

/** Offer a read that sets @p done when it completes. */
void
offerRead(DramDevice &dev, Addr addr, Tick &done)
{
    ASSERT_TRUE(dev.tryAccess(
        makeRequest(addr, false, Category::Demand, MemSpace::OffPackage,
                    0, [&done](Tick when) { done = when; })));
}

/** Open row 1 of bank 0.0, then idle until every bank gate passed. */
void
openRowOneOfBankZero(Simulation &sim, DramDevice &dev)
{
    timedRead(sim, dev, blockIn(dev.timing(), 0, 0, 1));
    sim.run(2000);
}

// FR-FCFS, first ready: a younger row hit issues before an older
// request that must first precharge the same bank.
TEST(DramDevice, YoungerRowHitIssuesBeforeOlderRowMiss)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    const DramTiming &t = dev.timing();
    openRowOneOfBankZero(sim, dev);
    CommandLog log;
    dev.channel(0).setCommandObserver(&log);

    Tick miss = 0, hit = 0;
    offerRead(dev, blockIn(t, 0, 0, 2), miss);
    offerRead(dev, blockIn(t, 0, 0, 1, 2), hit);
    while (miss == 0 || hit == 0)
        sim.run(100);
    EXPECT_LT(hit, miss);
    EXPECT_EQ(log.str(), "RD 0.0 r1, PRE 0.0 r1, ACT 0.0 r2, RD 0.0 r2");
}

// A bank's oldest request claims it: a younger request to another
// row may not precharge the bank while that oldest request is a row
// hit waiting on CAS timing (here a long tCCD after another hit).
TEST(DramDevice, YoungerRequestDoesNotPrechargeAWaitingRowHit)
{
    Simulation sim;
    DramTiming slow_ccd = DramTiming::ddr4_3200();
    slow_ccd.tCCD = 200;
    DramDevice dev(sim, "dram", slow_ccd);
    const DramTiming &t = dev.timing();
    openRowOneOfBankZero(sim, dev);
    CommandLog log;
    dev.channel(0).setCommandObserver(&log);

    Tick first = 0, waiting = 0, other_row = 0;
    offerRead(dev, blockIn(t, 0, 0, 1, 2), first);
    offerRead(dev, blockIn(t, 0, 0, 1, 4), waiting);
    offerRead(dev, blockIn(t, 0, 0, 2), other_row);
    while (first == 0 || waiting == 0 || other_row == 0)
        sim.run(100);
    EXPECT_LT(waiting, other_row);
    EXPECT_EQ(log.str(), "RD 0.0 r1, RD 0.0 r1, PRE 0.0 r1, "
                         "ACT 0.0 r2, RD 0.0 r2");
}

// FCFS among banks: of two closed banks that may both activate, the
// one holding the older request activates first, whatever the bank
// order.
TEST(DramDevice, OlderRequestActivatesFirst)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    const DramTiming &t = dev.timing();
    CommandLog log;
    dev.channel(0).setCommandObserver(&log);

    Tick older = 0, younger = 0;
    offerRead(dev, blockIn(t, 3, 3, 5), older);
    offerRead(dev, blockIn(t, 0, 0, 5), younger);
    while (older == 0 || younger == 0)
        sim.run(100);
    EXPECT_LT(older, younger);
    EXPECT_EQ(log.str(), "ACT 3.3 r5, ACT 0.0 r5, RD 3.3 r5, RD 0.0 r5");
}

// The scheduler's busy-bank masks are 64 bits wide.
TEST(DramDevice, MoreThan64BanksPerChannelIsFatal)
{
    DramTiming t = DramTiming::ddr4_3200();
    t.ranksPerChannel = 5; // 80 banks.
    EXPECT_EXIT(
        {
            Simulation sim;
            DramDevice dev(sim, "dram", t);
        },
        ::testing::ExitedWithCode(1), "80 banks per channel");
}

TEST(DramDevice, OddBlockRowsAreFatal)
{
    // The address map takes one 128B column bit below the channel: a
    // 64B row would decode column 1 of a one-block row, and a 192B row
    // would decode rows past rowsPerBank().
    for (const std::uint64_t row_bytes : {64, 192}) {
        DramTiming t = DramTiming::ddr4_3200();
        t.rowBytes = row_bytes;
        EXPECT_EXIT(
            {
                Simulation sim;
                DramDevice dev(sim, "dram", t);
            },
            ::testing::ExitedWithCode(1),
            std::to_string(row_bytes) + "B rows hold an odd number of "
                                        "blocks")
            << row_bytes;
    }
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

/** The run-loop kernels, for tests that run under both. */
const auto BothKernels =
    ::testing::Values(Simulation::KernelMode::EventDriven,
                      Simulation::KernelMode::LegacyPolling);

std::string
kernelName(Simulation::KernelMode k)
{
    return k == Simulation::KernelMode::EventDriven ? "Event" : "PollLoop";
}

/**
 * Channel 0's queues are filled once, with no later traffic: every
 * edge the channel wakes on (its first at or after nextWorkTick())
 * issues exactly one ACT, PRE, RD or WR, or starts a refresh.
 */
class DramExactWake
    : public ::testing::TestWithParam<
          std::tuple<bool, Simulation::KernelMode>>
{
};

TEST_P(DramExactWake, EveryWakeIssuesOneCommand)
{
    const auto [use_hbm, kernel] = GetParam();
    Simulation sim;
    sim.setKernelMode(kernel);
    const DramTiming t =
        use_hbm ? DramTiming::hbm2() : DramTiming::ddr4_3200();
    DramDevice dev(sim, "dram", t);
    DramChannel &ch = dev.channel(0);
    CommandLog log;
    ch.setCommandObserver(&log);

    // Reads and writes over four banks in two bank groups, three rows
    // each: hits, misses and conflicts in both directions.
    for (std::uint64_t col = 0; col < 3; ++col)
        for (std::uint64_t row = 1; row <= 3; ++row)
            for (std::uint32_t group : {0u, 1u})
                for (std::uint32_t bank : {0u, 2u})
                    ASSERT_TRUE(dev.tryAccess(makeRequest(
                        blockIn(t, group, bank, row, col),
                        (row + col + bank) % 3 == 0, Category::Demand,
                        MemSpace::OffPackage, 0)));
    ASSERT_EQ(ch.readQueueSize(), 24u);
    ASSERT_EQ(ch.writeQueueSize(), 12u);

    const Tick period = t.clkRatio; // Channels tick from tick 0.
    int wakes = 0;
    while (!ch.idle()) {
        ASSERT_LT(++wakes, 1000);
        const Tick edge =
            (std::max(ch.nextWorkTick(), sim.now()) + period - 1) /
            period * period;
        const std::size_t before = log.cmds.size();
        sim.run(edge + 1 - sim.now());
        int issued = 0, refreshes = 0;
        for (std::size_t i = before; i < log.cmds.size(); ++i) {
            if (log.cmds[i].cmd == DramCommand::Ref) {
                ++refreshes;
                continue;
            }
            ++issued;
            EXPECT_EQ(log.cmds[i].tick, edge);
        }
        EXPECT_TRUE(issued == 1 || (issued == 0 && refreshes == 1))
            << "edge " << edge << ": " << issued << " commands, "
            << refreshes << " refreshes";
    }
    // 36 CAS, and an ACT or a PRE and an ACT for each row change.
    EXPECT_GE(wakes, 36 + 8);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, DramExactWake,
    ::testing::Combine(::testing::Bool(), BothKernels),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "HBM2" : "DDR4") +
               kernelName(std::get<1>(info.param));
    });

/**
 * The write-drain hysteresis is path-dependent: reads == 0 with
 * writes waiting enters drain mode, and a read arriving later does
 * not leave it above the low watermark. So the edges a sleeping
 * channel skips must still see it. Here the last read's CAS leaves
 * ten writes waiting on a long tCCD; the channel sleeps; a read then
 * arrives, and its CAS gates open on the same edge as the writes'.
 * Drain mode, entered on a slept-through edge, sends two writes
 * first. The second parameter adds a component that works on every
 * edge: the poll loop then ticks the sleeping channel on each one
 * instead of skipping them.
 */
class DramDrainMode
    : public ::testing::TestWithParam<
          std::tuple<Simulation::KernelMode, bool>>
{
};

/** A clocked component with work on every edge. */
struct EveryEdge
{
    void tick() {}
};

TEST_P(DramDrainMode, SkippedEdgesEnterDrainMode)
{
    const auto [kernel, busy] = GetParam();
    Simulation sim;
    sim.setKernelMode(kernel);
    EveryEdge every_edge;
    if (busy)
        sim.addClocked(&every_edge);
    DramTiming slow_ccd = DramTiming::ddr4_3200();
    slow_ccd.tCCD = 200;
    DramDevice dev(sim, "dram", slow_ccd);
    const DramTiming &t = dev.timing();
    openRowOneOfBankZero(sim, dev);
    CommandLog log;
    dev.channel(0).setCommandObserver(&log);

    for (std::uint64_t col = 1; col <= 10; ++col)
        ASSERT_TRUE(dev.tryAccess(
            makeRequest(blockIn(t, 0, 0, 1, col), true, Category::Demand,
                        MemSpace::OffPackage, 0)));
    Tick first = 0, late = 0;
    offerRead(dev, blockIn(t, 0, 0, 1, 11), first);
    while (log.cmds.empty())
        sim.run(1);
    ASSERT_EQ(log.str(), "RD 0.0 r1");
    const Tick cas = log.cmds.front().tick;

    sim.run(20); // Ten edges on which nothing can issue.
    offerRead(dev, blockIn(t, 0, 0, 1, 12), late);
    while (late == 0 || !dev.idle())
        sim.run(100);

    EXPECT_EQ(log.str(), "RD 0.0 r1, WR 0.0 r1, WR 0.0 r1, RD 0.0 r1, "
                         "WR 0.0 r1, WR 0.0 r1, WR 0.0 r1, WR 0.0 r1, "
                         "WR 0.0 r1, WR 0.0 r1, WR 0.0 r1, WR 0.0 r1");
    std::vector<Tick> after;
    for (const auto &c : log.cmds)
        after.push_back(c.tick - cas);
    EXPECT_EQ(after, (std::vector<Tick>{0, 400, 800, 1200, 1600, 2000,
                                        2400, 2800, 3200, 3600, 4000,
                                        4400}));
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, DramDrainMode,
    ::testing::Combine(BothKernels, ::testing::Bool()),
    [](const auto &info) {
        return kernelName(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "Busy" : "Alone");
    });

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

constexpr std::uint64_t FnvBasis = 0xcbf29ce484222325ULL;

/** 64-bit FNV-1a of @p v's bytes, low byte first, onto @p hash. */
std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i, v >>= 8)
        hash = (hash ^ (v & 0xff)) * 0x100000001b3ULL;
    return hash;
}

/**
 * A clocked sender that offers up to PerTick requests a tick until
 * its stop tick: 4 KB page streams, a few hot rows per bank and
 * repeats of recently touched blocks, about 35% of them writes. A
 * refused request is kept and re-offered after recvRetry(), so the
 * device's queues stay full. Hashes every read completion.
 */
class MixedTraffic : public RetrySender
{
  public:
    static constexpr int PerTick = 3;
    static constexpr std::uint64_t HotRows = 3;

    MixedTraffic(Simulation &sim, DramDevice &dev, std::uint64_t seed,
                 Tick stop)
        : sim_(sim), dev_(dev), rng_(seed), stop_(stop)
    {
        const DramTiming &t = dev.timing();
        rowStride_ = static_cast<Addr>(t.channels) * t.ranksPerChannel *
                     t.banksPerRank() * t.rowBytes;
        for (auto &s : streams_)
            s = {newPage(), 0};
        handle_ = sim.addClocked(this);
    }

    void
    tick()
    {
        if (sim_.now() >= stop_) {
            stopped_ = true;
            return;
        }
        for (int i = 0; i < PerTick; ++i) {
            if (!held_)
                held_ = next();
            if (!dev_.tryAccess(held_)) {
                ++refusals;
                blocked_ = true;
                return;
            }
            readsAccepted += !held_->isWrite;
            held_ = nullptr;
        }
    }

    bool idle() const { return blocked_ || stopped_; }
    Tick nextWorkTick() const { return idle() ? MaxTick : 0; }

    void
    recvRetry() override
    {
        sim_.pokeClocked(handle_);
        blocked_ = false;
    }

    std::uint64_t readHash = FnvBasis;
    std::uint64_t readsAccepted = 0, readsDone = 0, refusals = 0;

  private:
    struct Stream
    {
        Addr page;
        std::uint64_t block;
    };

    Addr
    newPage()
    {
        return rng_.nextRange(dev_.timing().capacityBytes / PageBytes) *
               PageBytes;
    }

    MemRequestPtr
    next()
    {
        const double pick = rng_.nextDouble();
        Addr addr;
        if (pick < 0.15) {
            addr = recent_[rng_.nextRange(recent_.size())];
        } else if (pick < 0.7) {
            Stream &s = streams_[rng_.nextRange(streams_.size())];
            addr = s.page + s.block * BlockBytes;
            if (++s.block == PageBytes / BlockBytes)
                s = {newPage(), 0};
        } else {
            // Rows 0..HotRows-1 of every bank hold the lowest
            // addresses under the default mapping.
            addr = blockAlign(rng_.nextRange(HotRows * rowStride_));
        }
        recent_[recentIdx_++ % recent_.size()] = addr;
        const bool is_write = rng_.chance(0.35);
        InlineFn<void(Tick)> done;
        if (!is_write) {
            const std::uint64_t id = readIds_++;
            done = [this, id](Tick when) {
                readHash = fnv1a(fnv1a(readHash, id), when);
                ++readsDone;
            };
        }
        auto req = makeRequest(addr, is_write, Category::Demand,
                               MemSpace::OffPackage, sim_.now(),
                               std::move(done));
        req->sender = this;
        return req;
    }

    Simulation &sim_;
    DramDevice &dev_;
    Rng rng_;
    const Tick stop_;
    Addr rowStride_ = 0;
    std::array<Stream, 4> streams_{};
    std::array<Addr, 16> recent_{};
    std::size_t recentIdx_ = 0;
    std::uint64_t readIds_ = 0;
    MemRequestPtr held_;
    bool blocked_ = false;
    bool stopped_ = false;
    Simulation::ClockedHandle handle_ = Simulation::InvalidClockedHandle;
};

/**
 * The exact command stream (every ACT, PRE, RD, WR and REF with its
 * tick and coordinates) and every read-completion tick under
 * saturating mixed traffic for four refresh intervals, pinned per
 * preset and identical under both run loops. A scheduler change that
 * reorders any command fails here.
 */
class DramCommandStream
    : public ::testing::TestWithParam<
          std::tuple<bool, Simulation::KernelMode>>
{
};

TEST_P(DramCommandStream, MatchesPinnedHashes)
{
    const auto [use_hbm, kernel] = GetParam();
    Simulation sim;
    sim.setKernelMode(kernel);
    const DramTiming t =
        use_hbm ? DramTiming::hbm2() : DramTiming::ddr4_3200();
    DramDevice dev(sim, "dram", t);
    std::vector<CommandLog> channels(t.channels);
    for (std::uint32_t c = 0; c < t.channels; ++c)
        dev.channel(c).setCommandObserver(&channels[c]);

    const Tick refi = static_cast<Tick>(t.tREFI) * t.clkRatio;
    MixedTraffic traffic(sim, dev, 20260225, 4 * refi);
    sim.run(5 * refi);
    ASSERT_TRUE(dev.idle());
    ASSERT_EQ(traffic.readsDone, traffic.readsAccepted);

    // The traffic exercises what it is meant to.
    const DramStats &s = dev.stats();
    EXPECT_GT(traffic.refusals, 100u);
    EXPECT_GT(s.forwards.value(), 10.0);
    EXPECT_GT(s.mergedWrites.value(), 10.0);
    EXPECT_GT(s.rowHits.value(), 1000.0);
    EXPECT_GT(s.rowConflicts.value(), 1000.0);
    EXPECT_GE(s.refreshes.value(), 3.0 * t.channels * t.ranksPerChannel);

    std::uint64_t commands = FnvBasis;
    for (const auto &ch : channels) {
        std::uint64_t hash = FnvBasis;
        for (const auto &c : ch.cmds)
            for (std::uint64_t v :
                 {static_cast<std::uint64_t>(c.cmd), c.tick,
                  static_cast<std::uint64_t>(c.rank),
                  static_cast<std::uint64_t>(c.bankGroup),
                  static_cast<std::uint64_t>(c.bank), c.row})
                hash = fnv1a(hash, v);
        commands = fnv1a(commands, hash);
    }
    const std::uint64_t want_commands =
        use_hbm ? 0x938aff9704f6b749ULL : 0xe466662cb7cfa94dULL;
    const std::uint64_t want_reads =
        use_hbm ? 0xe8b2f2aff02d8679ULL : 0xcb37639950ab11cbULL;
    EXPECT_EQ(commands, want_commands) << std::hex << "0x" << commands;
    EXPECT_EQ(traffic.readHash, want_reads)
        << std::hex << "0x" << traffic.readHash;
}

INSTANTIATE_TEST_SUITE_P(
    Presets, DramCommandStream,
    ::testing::Combine(::testing::Bool(), BothKernels),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "HBM2" : "DDR4") +
               kernelName(std::get<1>(info.param));
    });

} // namespace
} // namespace nomad
