/**
 * @file
 * Unit tests for the non-blocking SRAM cache: hits/misses, MSHR
 * merging and exhaustion, write-back behaviour, full-line writeback
 * installs, LRU replacement, range invalidation, and the
 * dual-address-space tagging OS-managed DC schemes rely on.
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "cache/sram_cache.hh"
#include "sim/rng.hh"

namespace nomad
{
namespace
{

/** Scripted downstream memory with manual response control. */
class ScriptedMemory : public MemPort
{
  public:
    bool
    tryAccess(const MemRequestPtr &req) override
    {
        if (rejectAll) {
            refused.owe(*req);
            return false;
        }
        if (req->isWrite) {
            writes.push_back(req);
            req->complete(0);
            return true;
        }
        reads.push_back(req);
        return true;
    }

    /** Complete the oldest outstanding read. */
    void
    respondOne(Tick when)
    {
        ASSERT_FALSE(reads.empty());
        auto req = reads.front();
        reads.pop_front();
        req->complete(when);
    }

    /** Stop refusing, notifying every refused sender (MemPort). */
    void
    acceptAgain()
    {
        refused.pay();
        rejectAll = false;
    }

    std::deque<MemRequestPtr> reads;
    std::deque<MemRequestPtr> writes;
    bool rejectAll = false;
    RetryList refused;
};

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest()
    {
        params.sizeBytes = 4 * 1024; // 64 lines.
        params.assoc = 4;
        params.hitLatency = 2;
        params.mshrs = 4;
        params.targetsPerMshr = 2;
        cache = std::make_unique<SramCache>(sim, "c", params, &mem);
    }

    MemRequestPtr
    read(Addr addr, bool *done = nullptr)
    {
        auto req = makeRequest(addr, false, Category::Demand,
                               MemSpace::OffPackage, sim.now(),
                               done ? [done](Tick) { *done = true; }
                                    : MemRequest::Callback{});
        return req;
    }

    Simulation sim;
    ScriptedMemory mem;
    CacheParams params;
    std::unique_ptr<SramCache> cache;
};

TEST_F(CacheTest, ColdMissFetchesAndInstalls)
{
    bool done = false;
    ASSERT_TRUE(cache->tryAccess(read(0x100, &done)));
    EXPECT_EQ(cache->misses.value(), 1.0);
    ASSERT_EQ(mem.reads.size(), 1u);
    EXPECT_EQ(mem.reads.front()->addr, blockAlign(Addr{0x100}));
    mem.respondOne(50);
    EXPECT_TRUE(done);
    EXPECT_TRUE(cache->isCached(MemSpace::OffPackage, 0x100));
}

TEST_F(CacheTest, HitCompletesAfterHitLatency)
{
    bool done = false;
    cache->tryAccess(read(0x100));
    mem.respondOne(10);
    ASSERT_TRUE(cache->tryAccess(read(0x108, &done)));
    EXPECT_EQ(cache->hits.value(), 1.0);
    EXPECT_FALSE(done) << "hit completes after hitLatency, not inline";
    sim.run(params.hitLatency + 1);
    EXPECT_TRUE(done);
}

TEST_F(CacheTest, ConcurrentMissesMergeIntoOneFill)
{
    bool a = false, b = false;
    cache->tryAccess(read(0x200, &a));
    cache->tryAccess(read(0x210, &b));
    EXPECT_EQ(cache->misses.value(), 1.0);
    EXPECT_EQ(cache->missesMerged.value(), 1.0);
    ASSERT_EQ(mem.reads.size(), 1u);
    mem.respondOne(30);
    EXPECT_TRUE(a);
    EXPECT_TRUE(b);
}

TEST_F(CacheTest, MergeTargetsBounded)
{
    cache->tryAccess(read(0x200));
    ASSERT_TRUE(cache->tryAccess(read(0x208)));
    // targetsPerMshr = 2: the third access to the block is refused.
    EXPECT_FALSE(cache->tryAccess(read(0x210)));
    EXPECT_EQ(cache->rejects.value(), 1.0);
}

TEST_F(CacheTest, MshrPoolBounded)
{
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(cache->tryAccess(
            read(static_cast<Addr>(i) * BlockBytes)));
    EXPECT_FALSE(cache->tryAccess(read(0x10000)));
    EXPECT_EQ(cache->rejects.value(), 1.0);
    mem.respondOne(10);
    EXPECT_TRUE(cache->tryAccess(read(0x10000)));
}

TEST_F(CacheTest, DirtyVictimWritesBack)
{
    // 16 sets: fill one set's 4 ways with writes, then evict.
    const Addr set_stride = 16 * BlockBytes;
    for (int w = 0; w < 4; ++w) {
        auto wr = makeRequest(w * set_stride, true, Category::Demand,
                              MemSpace::OffPackage, sim.now());
        cache->tryAccess(wr);
        mem.respondOne(10); // Write-allocate fill.
    }
    EXPECT_EQ(mem.writes.size(), 0u);
    cache->tryAccess(read(4 * set_stride));
    mem.respondOne(20); // Fill for the new line evicts the LRU way.
    ASSERT_EQ(mem.writes.size(), 1u);
    EXPECT_EQ(mem.writes.front()->addr, 0u);
    EXPECT_TRUE(mem.writes.front()->fullLine);
    EXPECT_EQ(cache->writebacks.value(), 1.0);
}

TEST_F(CacheTest, FullLineWritebackInstallsWithoutFill)
{
    auto wb = makeRequest(0x300, true, Category::Demand,
                          MemSpace::OffPackage, sim.now());
    wb->fullLine = true;
    ASSERT_TRUE(cache->tryAccess(wb));
    EXPECT_EQ(mem.reads.size(), 0u) << "no fetch for a full-line write";
    EXPECT_TRUE(cache->isCached(MemSpace::OffPackage, 0x300));
    EXPECT_EQ(cache->misses.value(), 0.0);
}

TEST_F(CacheTest, AddressSpacesDoNotAlias)
{
    cache->tryAccess(read(0x400));
    mem.respondOne(10);
    EXPECT_TRUE(cache->isCached(MemSpace::OffPackage, 0x400));
    EXPECT_FALSE(cache->isCached(MemSpace::OnPackage, 0x400));
    auto req = makeRequest(0x400, false, Category::Demand,
                           MemSpace::OnPackage, sim.now(), nullptr);
    cache->tryAccess(req);
    EXPECT_EQ(cache->misses.value(), 2.0)
        << "the on-package copy misses independently";
}

TEST_F(CacheTest, InvalidateRangeFlushesDirtyAndDiscardsFills)
{
    // Dirty line in the range.
    auto wr = makeRequest(0x500, true, Category::Demand,
                          MemSpace::OffPackage, sim.now());
    cache->tryAccess(wr);
    mem.respondOne(10);
    // In-flight fill into the range.
    cache->tryAccess(read(0x540));
    const auto killed =
        cache->invalidateRange(MemSpace::OffPackage, 0x500, 0x100);
    EXPECT_EQ(killed, 1u);
    EXPECT_EQ(mem.writes.size(), 1u) << "dirty line flushed";
    EXPECT_FALSE(cache->isCached(MemSpace::OffPackage, 0x500));
    mem.respondOne(30);
    EXPECT_FALSE(cache->isCached(MemSpace::OffPackage, 0x540))
        << "fill into an invalidated range must not install";
}

TEST_F(CacheTest, LruPolicyEvictsLeastRecent)
{
    const Addr set_stride = 16 * BlockBytes;
    for (int w = 0; w < 4; ++w) {
        cache->tryAccess(read(w * set_stride));
        mem.respondOne(10);
    }
    // Touch way 0 so way 1 becomes LRU.
    cache->tryAccess(read(0));
    cache->tryAccess(read(4 * set_stride));
    mem.respondOne(20);
    EXPECT_TRUE(cache->isCached(MemSpace::OffPackage, 0));
    EXPECT_FALSE(cache->isCached(MemSpace::OffPackage, set_stride));
}

TEST_F(CacheTest, InvalidatedWayRefillsBeforeAnyEviction)
{
    // A range invalidation frees one way of a full set: the next fill
    // takes it without evicting, and LRU order among the survivors is
    // kept for the eviction after that.
    const Addr set_stride = 16 * BlockBytes;
    for (int w = 0; w < 4; ++w) {
        cache->tryAccess(read(w * set_stride));
        mem.respondOne(10);
    }
    cache->tryAccess(read(0)); // Way 1 becomes LRU.
    cache->invalidateRange(MemSpace::OffPackage, 2 * set_stride,
                           BlockBytes);
    cache->tryAccess(read(4 * set_stride));
    mem.respondOne(20);
    for (int w : {0, 1, 3, 4}) {
        EXPECT_TRUE(cache->isCached(MemSpace::OffPackage, w * set_stride))
            << w;
    }
    cache->tryAccess(read(5 * set_stride));
    mem.respondOne(30);
    EXPECT_FALSE(cache->isCached(MemSpace::OffPackage, set_stride));
    for (int w : {0, 3, 4, 5}) {
        EXPECT_TRUE(cache->isCached(MemSpace::OffPackage, w * set_stride))
            << w;
    }
}

TEST_F(CacheTest, DownstreamBackpressureRetries)
{
    mem.rejectAll = true;
    cache->tryAccess(read(0x600));
    EXPECT_EQ(mem.reads.size(), 0u);
    sim.run(3);
    mem.acceptAgain();
    sim.run(3); // tick() retries the send queue.
    EXPECT_EQ(mem.reads.size(), 1u);
}

/** Counts the retry notifications a refused sender receives. */
class CountingSender : public RetrySender
{
  public:
    void recvRetry() override { ++retries; }

    int retries = 0;
};

TEST_F(CacheTest, RefusedSendersArePaidOnceWhenTheCacheCouldAdmitThem)
{
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(cache->tryAccess(
            read(static_cast<Addr>(i) * BlockBytes)));
    // Every MSHR is busy: A is refused twice and B once, and each is
    // owed one notification.
    CountingSender a, b;
    auto from_a = read(0x10000);
    from_a->sender = &a;
    auto from_b = read(0x20000);
    from_b->sender = &b;
    EXPECT_FALSE(cache->tryAccess(from_a));
    EXPECT_FALSE(cache->tryAccess(from_a));
    EXPECT_FALSE(cache->tryAccess(from_b));

    // A third sender's full-line writeback installs A's block, so A's
    // read would now hit: both owed senders are paid.
    auto wb = makeRequest(0x10000, true, Category::Demand,
                          MemSpace::OffPackage, sim.now());
    wb->fullLine = true;
    ASSERT_TRUE(cache->tryAccess(wb));
    EXPECT_EQ(a.retries, 1);
    EXPECT_EQ(b.retries, 1);
    EXPECT_TRUE(cache->tryAccess(from_a));
    EXPECT_EQ(cache->hits.value(), 2.0);

    // B is refused again, and the fill that frees an MSHR pays it.
    EXPECT_FALSE(cache->tryAccess(from_b));
    mem.respondOne(10);
    EXPECT_EQ(b.retries, 2);
    EXPECT_EQ(a.retries, 1);
    EXPECT_TRUE(cache->tryAccess(from_b));
}

/** Property: under random traffic with eager responses, accounting is
 *  conserved and isCached() only reports blocks that were accessed. */
class CacheRandomTraffic
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint64_t>>
{
};

TEST_P(CacheRandomTraffic, ConservationAndReachability)
{
    const auto [assoc, seed] = GetParam();
    Simulation sim;
    ScriptedMemory mem;
    CacheParams p;
    p.sizeBytes = 8 * 1024;
    p.assoc = assoc;
    p.mshrs = 8;
    p.targetsPerMshr = 4;
    SramCache cache(sim, "c", p, &mem);
    Rng rng(seed);
    std::set<Addr> touched;
    int accepted = 0;
    for (int i = 0; i < 4000; ++i) {
        const Addr addr = rng.nextRange(64 * 1024) & ~Addr{63};
        auto req = makeRequest(addr, rng.chance(0.3), Category::Demand,
                               MemSpace::OffPackage, sim.now(),
                               nullptr);
        if (cache.tryAccess(req)) {
            ++accepted;
            touched.insert(addr);
        }
        while (!mem.reads.empty())
            mem.respondOne(sim.now() + 10);
        sim.run(2);
    }
    EXPECT_EQ(cache.hits.value() + cache.misses.value() +
                  cache.missesMerged.value(),
              accepted);
    // Everything cached was genuinely accessed.
    int cached = 0;
    for (Addr a = 0; a < 64 * 1024; a += 64) {
        if (cache.isCached(MemSpace::OffPackage, a)) {
            ++cached;
            EXPECT_EQ(touched.count(a), 1u) << a;
        }
    }
    EXPECT_LE(cached, static_cast<int>(p.sizeBytes / 64));
    EXPECT_GT(cached, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheRandomTraffic,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(3, 7)));

} // namespace
} // namespace nomad
