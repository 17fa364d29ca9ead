/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, the run
 * loop with clocked components and its skip to the next event, statistics,
 * configuration parsing, and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "mem/request.hh"
#include "sim/config.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"

namespace nomad
{
namespace
{

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&]() { order.push_back(5); });
    q.schedule(3, [&]() { order.push_back(3); });
    q.schedule(4, [&]() { order.push_back(4); });
    q.advanceTo(10);
    EXPECT_EQ(order, (std::vector<int>{3, 4, 5}));
}

TEST(EventQueue, SameTickFiresInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(7, [&, i]() { order.push_back(i); });
    q.advanceTo(7);
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&]() {
        ++fired;
        // Callbacks observe the advanceTo() target as "now"; further
        // events may be scheduled at or after it.
        q.scheduleIn(2, [&]() { ++fired; });
    });
    q.advanceTo(3);
    EXPECT_EQ(fired, 1);
    q.advanceTo(5);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, NextEventTick)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventTick(), MaxTick);
    q.schedule(42, []() {});
    EXPECT_EQ(q.nextEventTick(), 42u);
}

TEST(EventQueue, SeededChurnFiresByTickThenInsertion)
{
    // Thousands of events at near and far ticks, many scheduled from
    // inside callbacks (some at the tick being drained), a quarter
    // with captures too big for InlineFn's inline buffer. Slots are
    // freed and reused throughout; the firing order must still be
    // the reference order: by tick, then by insertion.
    EventQueue q;
    Rng rng(20230225);
    struct Scheduled
    {
        Tick when;
        std::uint64_t id;
    };
    std::vector<Scheduled> scheduled;
    std::vector<std::uint64_t> fired;
    std::size_t peakPending = 0;
    const auto token = std::make_shared<int>(0);

    std::function<void()> scheduleOne = [&]() {
        const std::uint64_t id = scheduled.size();
        const Tick when = q.now() + (rng.chance(0.5) ? rng.nextRange(3)
                                                     : rng.nextRange(4000));
        scheduled.push_back({when, id});
        const bool spawn = scheduled.size() < 6000 && rng.chance(0.4);
        auto onFire = [&, id, spawn]() {
            EXPECT_LE(scheduled[id].when, q.now());
            fired.push_back(id);
            if (spawn) {
                scheduleOne();
                scheduleOne();
            }
        };
        if (rng.chance(0.25)) {
            std::array<std::uint64_t, 8> pad{};
            static_assert(sizeof(pad) > InlineFnCapacity);
            pad[7] = id;
            q.schedule(when, [onFire, pad, id, token]() mutable {
                EXPECT_EQ(pad[7], id);
                onFire();
            });
        } else {
            q.schedule(when, onFire);
        }
        peakPending = std::max(peakPending, q.size());
    };

    for (int i = 0; i < 1500; ++i)
        scheduleOne();
    while (!q.empty()) {
        if (rng.chance(0.3))
            scheduleOne();
        q.advanceTo(q.now() + 1 + rng.nextRange(50));
    }

    ASSERT_GT(scheduled.size(), 4000u);
    EXPECT_LT(peakPending, scheduled.size() / 2)
        << "slots must have been reused";
    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const Scheduled &a, const Scheduled &b) {
                         return a.when < b.when;
                     });
    std::vector<std::uint64_t> want;
    for (const Scheduled &s : scheduled)
        want.push_back(s.id);
    EXPECT_EQ(fired, want);
    EXPECT_EQ(q.fired(), scheduled.size());
    EXPECT_EQ(token.use_count(), 1) << "heap captures leaked";
}

TEST(EventQueue, ThrowingCallbackLeavesQueueUsable)
{
    EventQueue q;
    std::vector<int> order;
    const auto token = std::make_shared<int>(0);
    q.schedule(1, [&]() { order.push_back(1); });
    q.schedule(2, [&order, token]() {
        order.push_back(2);
        throw std::runtime_error("callback failed");
    });
    q.schedule(2, [&]() { order.push_back(3); });
    q.schedule(5, [&]() { order.push_back(5); });
    EXPECT_THROW(q.advanceTo(3), std::runtime_error);
    EXPECT_EQ(token.use_count(), 1) << "thrower's captures kept";
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.nextEventTick(), 2u);
    q.schedule(4, [&]() { order.push_back(4); });
    q.advanceTo(10);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(q.fired(), 5u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DestroyingWithPendingEventsReleasesRequests)
{
    const std::uint64_t live0 = liveRequestCount();
    {
        EventQueue q;
        // More events than one slot chunk holds; odd ones carry a
        // capture large enough to live on the heap.
        for (int i = 0; i < 700; ++i) {
            MemRequestPtr r =
                makeRequest(static_cast<Addr>(i) * 64, false,
                            Category::Demand, MemSpace::OffPackage, 0);
            const Tick when = 10 + static_cast<Tick>(i);
            if (i % 2 == 0) {
                q.schedule(when, [r]() { r->complete(0); });
            } else {
                std::array<std::uint64_t, 8> pad{};
                q.schedule(when, [r, pad]() { r->complete(pad[0]); });
            }
        }
        q.advanceTo(200);
        EXPECT_EQ(q.size(), 509u);
        EXPECT_EQ(liveRequestCount(), live0 + 509);
    }
    EXPECT_EQ(liveRequestCount(), live0);
}

/** Counts its ticks; while idle it has no work until an event. */
struct CountingClocked
{
    void tick() { ++ticks; }
    Tick nextWorkTick() const { return idle ? MaxTick : Tick(0); }
    int ticks = 0;
    bool idle = false;
};

TEST(Simulation, ClockedTicksEveryPeriod)
{
    Simulation sim;
    CountingClocked fast, slow;
    sim.addClocked(&fast, 1);
    sim.addClocked(&slow, 4);
    sim.run(16);
    EXPECT_EQ(fast.ticks, 16);
    EXPECT_EQ(slow.ticks, 4);
}

TEST(Simulation, IdleFastForwardToEvent)
{
    Simulation sim;
    CountingClocked idle_obj;
    idle_obj.idle = true;
    sim.addClocked(&idle_obj, 1);
    bool fired = false;
    sim.schedule(1000, [&]() { fired = true; });
    sim.run(2000);
    EXPECT_TRUE(fired);
    // Far fewer ticks than 2000 thanks to the fast-forward.
    EXPECT_LT(idle_obj.ticks, 100);
    EXPECT_EQ(sim.now(), 2000u);
}

TEST(Simulation, ClockedEdgesResumeAfterIdleRun)
{
    // Regression test: stale clock edges after a fully idle run()
    // previously wedged every clocked component forever.
    Simulation sim;
    CountingClocked obj;
    obj.idle = true;
    sim.addClocked(&obj, 1);
    sim.run(500); // Skips to the end with no events.
    obj.idle = false;
    const int before = obj.ticks;
    sim.run(100);
    EXPECT_GE(obj.ticks - before, 99);
}

TEST(Simulation, RequestStop)
{
    Simulation sim;
    CountingClocked obj;
    sim.addClocked(&obj, 1);
    sim.schedule(10, [&]() { sim.requestStop(); });
    sim.run(1000);
    EXPECT_LE(sim.now(), 12u);
}

TEST(Stats, ScalarArithmetic)
{
    stats::Scalar s("s", "");
    s += 2.5;
    ++s;
    s -= 0.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, AverageTracksMoments)
{
    stats::Average a("a", "");
    a.sample(1);
    a.sample(2);
    a.sample(9);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(a.maxValue(), 9.0);
    a.reset();
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Stats, DistributionBuckets)
{
    stats::Distribution d("d", "", 10.0, 4);
    d.sample(5);
    d.sample(15);
    d.sample(35);
    d.sample(1000); // Overflow bucket.
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.bucketCount(1), 1u);
    EXPECT_EQ(d.bucketCount(3), 1u);
    EXPECT_EQ(d.bucketCount(4), 1u);
    EXPECT_EQ(d.count(), 4u);
}

TEST(Stats, RegistryDumpAndFind)
{
    stats::StatRegistry reg;
    stats::Scalar s("x.y", "desc");
    s += 7;
    reg.add(&s);
    EXPECT_EQ(reg.find("x.y"), &s);
    EXPECT_EQ(reg.find("nope"), nullptr);
    std::ostringstream oss;
    reg.dump(oss);
    EXPECT_NE(oss.str().find("x.y"), std::string::npos);
    EXPECT_NE(oss.str().find("7"), std::string::npos);
    reg.resetAll();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, ScalarMutatorsChain)
{
    stats::Scalar s("s", "");
    ((s = 1) += 2) -= 0.5;
    ++ ++s;
    --s;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
}

TEST(Stats, JsonExportGolden)
{
    stats::StatRegistry reg;
    stats::Scalar s("x.y", "desc");
    s = 7;
    reg.add(&s);
    std::ostringstream oss;
    reg.dumpJson(oss);
    EXPECT_EQ(oss.str(), "{\n"
                         "  \"x\": {\n"
                         "    \"y\": {\n"
                         "      \"kind\": \"scalar\",\n"
                         "      \"desc\": \"desc\",\n"
                         "      \"value\": 7\n"
                         "    }\n"
                         "  }\n"
                         "}\n");
}

TEST(Stats, JsonExportValidatesAndNests)
{
    stats::StatRegistry reg;
    stats::Scalar s("a.b.count", "weird \"desc\"\n");
    s = 3;
    stats::Average a("a.b.lat", "");
    a.sample(2);
    a.sample(4);
    stats::Distribution d("a.dist", "", 10.0, 4);
    d.sample(5);
    d.sample(1000);
    stats::Lambda l("top", "", []() { return 1.0 / 0.0; });
    // A leaf whose name is also a group prefix: children must merge
    // next to the metadata keys.
    stats::Scalar g("a.b", "group leaf");
    reg.add(&s);
    reg.add(&a);
    reg.add(&d);
    reg.add(&l);
    reg.add(&g);

    std::ostringstream oss;
    reg.dumpJson(oss);
    const std::string text = oss.str();
    std::string err;
    EXPECT_TRUE(json::validate(text, &err)) << err << "\n" << text;
    // The non-finite Lambda value degrades to null, never "inf".
    EXPECT_EQ(text.find("inf"), std::string::npos);
    EXPECT_NE(text.find("null"), std::string::npos);
    EXPECT_NE(text.find("\"buckets\""), std::string::npos);
    EXPECT_NE(text.find("\"mean\": 3"), std::string::npos);
}

TEST(Json, EscapeAndNumbers)
{
    EXPECT_EQ(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    std::ostringstream oss;
    json::writeNumber(oss, 1e18);
    oss << " ";
    json::writeNumber(oss, 0.5);
    oss << " ";
    json::writeNumber(oss, -3);
    EXPECT_EQ(oss.str(), "1e+18 0.5 -3");
    std::string err;
    EXPECT_TRUE(json::validate("{\"a\": [1, 2.5, null, \"x\"]}", &err))
        << err;
    EXPECT_FALSE(json::validate("{\"a\": }", nullptr));
    EXPECT_FALSE(json::validate("[1, 2] trailing", nullptr));
}

TEST(Config, FromArgs)
{
    // Both spellings of a value option; a switch before a value
    // option does not swallow it.
    const char *argv[] = {"prog", "--stats-json=out.json",
                          "--trace-dram", "--sample-period", "123",
                          "--seed=7"};
    const Config cfg = Config::fromArgs(
        6, const_cast<char **>(argv),
        {{"stats-json", true}, {"sample-period", true},
         {"seed", true}, {"trace-dram", false}},
        "docs/X.md");
    EXPECT_EQ(cfg.getString("stats-json"), "out.json");
    EXPECT_TRUE(cfg.getBool("trace-dram", false));
    EXPECT_EQ(cfg.getUint("sample-period", 0), 123u);
    EXPECT_EQ(cfg.getUint("seed", 0), 7u);
    EXPECT_EQ(cfg.entries().size(), 4u);
}

TEST(Config, FromArgsRejectsUnknownOrIncompleteOptions)
{
    const char *unknown[] = {"prog", "--seed", "7", "--bogus=1"};
    EXPECT_EXIT(Config::fromArgs(4, const_cast<char **>(unknown),
                                 {{"seed", true}}, "docs/X.md"),
                ::testing::ExitedWithCode(1),
                "unknown option --bogus \\(see docs/X.md\\)");
    // A trailing value option is an error, not the value "true": a
    // trailing --stats-json would otherwise write a file named true.
    const char *trailing[] = {"prog", "--seed"};
    EXPECT_EXIT(Config::fromArgs(2, const_cast<char **>(trailing),
                                 {{"seed", true}}, "docs/X.md"),
                ::testing::ExitedWithCode(1),
                "option --seed needs a value");
}

TEST(Config, ParsesSectionsAndTypes)
{
    const auto cfg = Config::fromString(R"(
        top = 1
        [dram]
        channels = 2       # comment
        ratio = 0.5
        enable = true
        name = hbm2
    )");
    EXPECT_EQ(cfg.getInt("top", 0), 1);
    EXPECT_EQ(cfg.getUint("dram.channels", 0), 2u);
    EXPECT_DOUBLE_EQ(cfg.getDouble("dram.ratio", 0), 0.5);
    EXPECT_TRUE(cfg.getBool("dram.enable", false));
    EXPECT_EQ(cfg.getString("dram.name"), "hbm2");
    EXPECT_EQ(cfg.getInt("missing", 42), 42);
    EXPECT_FALSE(cfg.has("missing"));
}

TEST(Config, UnsignedValuesRejectSigns)
{
    // std::stoull alone reads "-1" as 2^64 - 1: --cores=-1 would ask
    // for 4294967295 cores and --instr=-1 for an endless budget.
    Config cfg;
    for (const char *bad : {"-1", " -5"}) {
        cfg.set("cores", bad);
        EXPECT_EXIT(cfg.getUint("cores", 0), ::testing::ExitedWithCode(1),
                    "config key 'cores': bad integer");
    }
    // The environment default goes through the same checks.
    for (const char *bad : {"abc", "-1"}) {
        ::setenv("NOMAD_BENCH_CORES", bad, 1);
        EXPECT_EXIT(cfg.getUintOrEnv("instr", "NOMAD_BENCH_CORES", 4),
                    ::testing::ExitedWithCode(1),
                    "environment variable NOMAD_BENCH_CORES: bad integer");
    }
    ::setenv("NOMAD_BENCH_CORES", "2", 1);
    EXPECT_EQ(cfg.getUintOrEnv("instr", "NOMAD_BENCH_CORES", 4), 2u);
    ::unsetenv("NOMAD_BENCH_CORES");
}

TEST(Config, NarrowKeysRejectValuesTheyCannotHold)
{
    // A 32-bit key must refuse 2^32 and 2^32 + 2 instead of wrapping
    // them to 0 and 2; the 64-bit getter still takes them.
    Config cfg;
    for (const char *big : {"4294967296", "4294967298"}) {
        cfg.set("cores", big);
        EXPECT_EXIT(cfg.getUint<std::uint32_t>("cores", 0),
                    ::testing::ExitedWithCode(1),
                    "config key 'cores': [0-9]+ is out of range "
                    "\\(max 4294967295\\)");
        EXPECT_GT(cfg.getUint("cores", 0), 0xffffffffu);
        ::setenv("NOMAD_BENCH_CORES", big, 1);
        EXPECT_EXIT(cfg.getUintOrEnv<std::uint32_t>(
                        "instr", "NOMAD_BENCH_CORES", 4),
                    ::testing::ExitedWithCode(1),
                    "environment variable NOMAD_BENCH_CORES: [0-9]+ is "
                    "out of range");
        ::unsetenv("NOMAD_BENCH_CORES");
    }
    cfg.set("cores", "4294967295");
    EXPECT_EQ(cfg.getUint<std::uint32_t>("cores", 0), 4294967295u);
}

TEST(Config, SetOverrides)
{
    Config cfg;
    cfg.set("a.b", "3");
    EXPECT_EQ(cfg.getInt("a.b", 0), 3);
    cfg.set("a.b", "4");
    EXPECT_EQ(cfg.getInt("a.b", 0), 4);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123), c(124);
    bool all_equal = true, any_diff = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        all_equal = all_equal && (va == b.next());
        any_diff = any_diff || (va != c.next());
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff);
}

TEST(Rng, RangeBounds)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.nextRange(13), 13u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i) {
        const double d = r.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(Rng, ZipfBoundsAndSkew)
{
    Rng r(11);
    std::uint64_t low = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const auto v = r.nextZipf(1000, 0.9);
        ASSERT_LT(v, 1000u);
        if (v < 100)
            ++low;
    }
    // A 0.9-skew Zipf concentrates well over 10% of mass in the top
    // decile of ranks.
    EXPECT_GT(low, static_cast<std::uint64_t>(0.3 * n));
}

class BernoulliChance : public ::testing::TestWithParam<double>
{
};

TEST_P(BernoulliChance, MatchesProbability)
{
    const double p = GetParam();
    Rng r(static_cast<std::uint64_t>(p * 1e6) + 1);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(p) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BernoulliChance,
                         ::testing::Values(0.0, 0.1, 0.35, 0.5, 0.9,
                                           1.0));

} // namespace
} // namespace nomad
