/**
 * @file
 * Unit tests for the hot-path data structures introduced by the
 * raw-speed overhaul (docs/PERFORMANCE.md): the open-addressed
 * FlatMap (growth, probe wraparound, backward-shift deletion), the
 * intrusive pooled MemRequest (recycling, leak accounting), the
 * InlineFn small-buffer callable, and the fixed-capacity RingBuffer
 * (indexing across the wrap, overflow).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "mem/request.hh"
#include "sim/flat_map.hh"
#include "sim/inline_fn.hh"
#include "sim/ring_buffer.hh"

namespace nomad
{
namespace
{

/**
 * The FlatMap hash, replicated so tests can craft keys that probe a
 * chosen slot. The mixer is part of the determinism contract (a fixed
 * splitmix64 finalizer, src/sim/flat_map.hh), so pinning it here is
 * intentional: changing it silently would change golden stats files.
 */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** First @p n keys >= 1 whose probe index is @p idx at @p capacity. */
std::vector<std::uint64_t>
keysHashingTo(std::size_t idx, std::size_t capacity, std::size_t n)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; keys.size() < n; ++k) {
        if ((static_cast<std::size_t>(mix64(k)) & (capacity - 1)) ==
            idx)
            keys.push_back(k);
    }
    return keys;
}

TEST(FlatMap, InsertFindEraseBasics)
{
    FlatMap<int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(42), nullptr);

    map.insert(42, 7);
    ASSERT_NE(map.find(42), nullptr);
    EXPECT_EQ(*map.find(42), 7);
    EXPECT_EQ(map.size(), 1u);

    map.insert(42, 9); // Overwrite, not duplicate.
    EXPECT_EQ(*map.find(42), 9);
    EXPECT_EQ(map.size(), 1u);

    EXPECT_TRUE(map.erase(42));
    EXPECT_FALSE(map.erase(42));
    EXPECT_EQ(map.find(42), nullptr);
    EXPECT_TRUE(map.empty());
}

TEST(FlatMap, GrowthPreservesEveryEntry)
{
    // Far past the initial capacity (16) and through several doublings.
    FlatMap<std::uint64_t> map;
    constexpr std::uint64_t N = 5000;
    for (std::uint64_t k = 0; k < N; ++k)
        map.insert(k * 0x10001, k);
    EXPECT_EQ(map.size(), N);
    for (std::uint64_t k = 0; k < N; ++k) {
        auto *v = map.find(k * 0x10001);
        ASSERT_NE(v, nullptr) << k;
        EXPECT_EQ(*v, k);
    }
}

TEST(FlatMap, ReserveAvoidsLaterGrowthAndKeepsLookups)
{
    FlatMap<int> map;
    map.reserve(1000);
    for (int k = 0; k < 1000; ++k)
        map.insert(static_cast<std::uint64_t>(k), k);
    for (int k = 0; k < 1000; ++k)
        ASSERT_NE(map.find(static_cast<std::uint64_t>(k)), nullptr);
}

TEST(FlatMap, ProbeChainWrapsAroundTableEnd)
{
    // Pile colliding keys onto the last slot of the initial 16-slot
    // table so the probe chain must wrap to index 0 and beyond.
    FlatMap<int> map;
    const auto keys = keysHashingTo(15, 16, 6);
    for (std::size_t i = 0; i < keys.size(); ++i)
        map.insert(keys[i], static_cast<int>(i));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        auto *v = map.find(keys[i]);
        ASSERT_NE(v, nullptr) << i;
        EXPECT_EQ(*v, static_cast<int>(i));
    }
    // Erase from the middle of the wrapped chain: backward shifting
    // must keep the tail reachable.
    EXPECT_TRUE(map.erase(keys[2]));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i == 2) {
            EXPECT_EQ(map.find(keys[i]), nullptr);
        } else {
            ASSERT_NE(map.find(keys[i]), nullptr) << i;
            EXPECT_EQ(*map.find(keys[i]), static_cast<int>(i));
        }
    }
}

TEST(FlatMap, ChurnMatchesReferenceMap)
{
    // Deterministic insert/erase churn cross-checked against std::map;
    // exercises backward-shift deletion across many chain shapes.
    FlatMap<std::uint64_t> map;
    std::map<std::uint64_t, std::uint64_t> ref;
    std::uint64_t rng = 0x853c49e6748fea9bULL;
    auto next = [&rng] {
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        return rng * 0x2545f4914f6cdd1dULL;
    };
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t key = next() % 512; // Dense: lots of churn.
        if (next() % 3 == 0) {
            EXPECT_EQ(map.erase(key), ref.erase(key) == 1u);
        } else {
            const std::uint64_t val = next();
            map.insert(key, val);
            ref[key] = val;
        }
    }
    EXPECT_EQ(map.size(), ref.size());
    for (const auto &[key, val] : ref) {
        auto *v = map.find(key);
        ASSERT_NE(v, nullptr) << key;
        EXPECT_EQ(*v, val);
    }
    for (std::uint64_t key = 0; key < 512; ++key) {
        if (ref.count(key) == 0) {
            EXPECT_EQ(map.find(key), nullptr) << key;
        }
    }
}

TEST(RequestPool, RecyclesReleasedRequests)
{
    detail::RequestPool &pool = detail::requestPool();
    const std::uint64_t live0 = pool.live;

    MemRequest *raw = nullptr;
    {
        MemRequestPtr req = makeRequest(0x1000, false,
                                        Category::Demand,
                                        MemSpace::OffPackage, 0);
        raw = req.get();
        EXPECT_EQ(pool.live, live0 + 1);
    }
    EXPECT_EQ(pool.live, live0);

    // The freelist is LIFO: the very next allocation reuses the slab.
    MemRequestPtr again = makeRequest(0x2000, true, Category::Fill,
                                      MemSpace::OnPackage, 5);
    EXPECT_EQ(again.get(), raw);
    EXPECT_EQ(again->addr, 0x2000u);
    EXPECT_TRUE(again->isWrite);
    EXPECT_FALSE(again->onComplete) << "recycled callback must be gone";
}

TEST(RequestPool, LiveCountDrainsToBaselineAfterChurn)
{
    detail::RequestPool &pool = detail::requestPool();
    const std::uint64_t live0 = pool.live;
    {
        std::vector<MemRequestPtr> held;
        for (int i = 0; i < 1000; ++i) {
            MemRequestPtr r = makeRequest(
                static_cast<Addr>(i) * 64, i % 2 == 0,
                Category::Demand, MemSpace::OffPackage, 0);
            MemRequestPtr copy = r; // Shared handle, one live packet.
            if (i % 3 == 0)
                held.push_back(std::move(copy));
        }
        EXPECT_EQ(pool.live, live0 + held.size());
    }
    // The drain-time leak audit: every packet back in the pool.
    EXPECT_EQ(pool.live, live0);
}

TEST(RequestPool, CompletionFiresOnceAndMayRecycleSelf)
{
    int fired = 0;
    Tick seen = 0;
    MemRequestPtr req = makeRequest(
        0x40, false, Category::Demand, MemSpace::OffPackage, 10,
        [&fired, &seen](Tick when) {
            ++fired;
            seen = when;
        });
    req->complete(123);
    req->complete(456); // Callback moved out: second call is a no-op.
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(seen, 123u);
}

// A completion callback is built in the request and moved once more,
// out of it, when it fires (the callback may recycle the request).
TEST(RequestPool, CallbackIsBuiltInPlace)
{
    struct CountsMoves
    {
        int *moves;
        explicit CountsMoves(int *m) : moves(m) {}
        CountsMoves(CountsMoves &&o) noexcept : moves(o.moves) { ++*moves; }
    };
    int moves = 0;
    int fired = 0;
    MemRequestPtr req =
        makeRequest(0x40, false, Category::Demand, MemSpace::OffPackage,
                    0, [c = CountsMoves(&moves), &fired](Tick) {
                        ++fired;
                    });
    EXPECT_EQ(moves, 1);
    req->complete(5);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(moves, 2);
}

TEST(InlineFn, SmallCapturesStayInlineAndInvoke)
{
    int hits = 0;
    InlineFn<void(int)> fn([&hits](int d) { hits += d; });
    ASSERT_TRUE(fn);
    fn(3);
    fn(4);
    EXPECT_EQ(hits, 7);
    fn = nullptr;
    EXPECT_FALSE(fn);
}

TEST(InlineFn, MoveTransfersOwnershipExactlyOnce)
{
    auto counter = std::make_shared<int>(0);
    InlineFn<void()> a([counter] { ++*counter; });
    InlineFn<void()> b = std::move(a);
    EXPECT_FALSE(a); // NOLINT(bugprone-use-after-move): tested on purpose.
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(*counter, 1);
    // Destroying both wrappers must release the capture.
    b = nullptr;
    EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineFn, LargeCapturesFallBackToHeapCorrectly)
{
    struct Big
    {
        std::uint64_t pad[12]; // 96 bytes > InlineFnCapacity (48).
    };
    Big big{};
    big.pad[11] = 77;
    InlineFn<std::uint64_t()> fn([big] { return big.pad[11]; });
    static_assert(sizeof(big) > InlineFnCapacity);
    InlineFn<std::uint64_t()> moved = std::move(fn);
    EXPECT_EQ(moved(), 77u);
}

TEST(RingBuffer, CapacityRoundsUpToAPowerOfTwo)
{
    EXPECT_EQ(RingBuffer<int>(0).capacity(), 1u);
    EXPECT_EQ(RingBuffer<int>(3).capacity(), 4u);
    EXPECT_EQ(RingBuffer<int>(5).capacity(), 8u);
    EXPECT_EQ(RingBuffer<int>(192).capacity(), 256u);
}

TEST(RingBuffer, PushPopAndIndexAcrossTheWrapMatchADeque)
{
    // Occupancy swings between empty and full of a 4-slot ring, so
    // the front passes the array's end hundreds of times; every
    // element, front and back must match a std::deque throughout.
    RingBuffer<std::uint64_t> ring(3);
    std::deque<std::uint64_t> ref;
    std::uint64_t next = 0;
    std::uint64_t pops = 0;
    for (int round = 0; round < 500; ++round) {
        const std::size_t fill = 1 + round % ring.capacity();
        while (ref.size() < fill) {
            ring.push_back(next);
            ref.push_back(next++);
        }
        ASSERT_EQ(ring.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(ring[i], ref[i]) << "round " << round;
        ASSERT_EQ(ring.front(), ref.front());
        ASSERT_EQ(ring.back(), ref.back());
        ring[0] += 1000; // Writes through the index land in place.
        ref[0] += 1000;
        EXPECT_EQ(ring.front(), ref.front());
        const std::size_t drop = 1 + round % ref.size();
        for (std::size_t i = 0; i < drop; ++i) {
            ring.pop_front();
            ref.pop_front();
            ++pops;
        }
    }
    EXPECT_EQ(ring.empty(), ref.empty());
    EXPECT_GT(pops / ring.capacity(), 100u) << "the ring must wrap";
}

TEST(RingBuffer, PushPastCapacityPanics)
{
    RingBuffer<int> ring(2);
    ring.push_back(1);
    ring.push_back(2);
    ring.pop_front();
    ring.push_back(3);
    EXPECT_DEATH(ring.push_back(4), "ring buffer overflow \\(capacity 2\\)");
}

} // namespace
} // namespace nomad
