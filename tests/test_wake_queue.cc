/**
 * @file
 * Unit tests for the event-driven kernel: same-tick firing order,
 * rescheduling a pending wake, cancellation, pokes from the resume
 * walk and from inside a tick, near and far strides, entries spread
 * over several armed-bit words, and a randomized legacy-vs-event
 * equivalence check that diffs the stats JSON of twin runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/rng.hh"
#include "sim/simulation.hh"

namespace nomad
{
namespace
{

/** Fires every cycle; records its id in a shared firing log. */
class OrderProbe
{
  public:
    OrderProbe(std::vector<int> *log, int id) : log_(log), id_(id) {}
    void tick() { log_->push_back(id_); }
    Tick nextWorkTick() const { return 0; }

  private:
    std::vector<int> *log_;
    int id_;
};

TEST(WakeQueue, SameTickOrderIsRegistrationOrder)
{
    // 70 probes span more than one 64-bit armed-bit word, so the walk
    // has to keep registration order across word boundaries too.
    constexpr int kProbes = 70;
    Simulation sim;
    std::vector<int> log;
    std::vector<std::unique_ptr<OrderProbe>> probes;
    for (int i = 0; i < kProbes; ++i) {
        probes.push_back(std::make_unique<OrderProbe>(&log, i));
        sim.addClocked(probes.back().get(), 1);
    }
    sim.run(3);
    ASSERT_EQ(log.size(), 3u * kProbes);
    for (int t = 0; t < 3; ++t)
        for (int i = 0; i < kProbes; ++i)
            ASSERT_EQ(log[t * kProbes + i], i)
                << "tick " << t << " position " << i;
}

/**
 * One-shot component whose next-work tick is mutated externally;
 * every mutation pokes first, per the addClocked() contract.
 */
class Retargetable
{
  public:
    explicit Retargetable(Simulation &sim, Tick work = 100)
        : sim_(sim), work_(work)
    {
    }

    void
    attach()
    {
        handle_ = sim_.addClocked(this, 1);
    }

    void
    tick()
    {
        if (sim_.now() < work_)
            return; // Elided/poked edge before the target: no-op.
        fires.push_back(sim_.now());
        work_ = MaxTick;
    }

    Tick nextWorkTick() const { return work_; }

    void
    retarget(Tick t)
    {
        sim_.pokeClocked(handle_);
        work_ = t;
    }

    std::vector<Tick> fires;

  private:
    Simulation &sim_;
    Simulation::ClockedHandle handle_ =
        Simulation::InvalidClockedHandle;
    Tick work_;
};

TEST(WakeQueue, RescheduleWhilePendingMovesEarlier)
{
    Simulation sim;
    Retargetable c(sim);
    c.attach();
    sim.schedule(50, [&]() { c.retarget(60); });
    sim.run(300);
    EXPECT_EQ(c.fires, (std::vector<Tick>{60}));
}

TEST(WakeQueue, RescheduleWhilePendingMovesLater)
{
    // The wake for tick 100 is already set when the target moves to
    // 160. The poke fires a no-op edge at 50, whose requeue must
    // replace the wake at 100, not keep it.
    Simulation sim;
    Retargetable c(sim);
    c.attach();
    sim.schedule(50, [&]() { c.retarget(160); });
    sim.run(300);
    EXPECT_EQ(c.fires, (std::vector<Tick>{160}));
}

TEST(WakeQueue, CancelAndRearm)
{
    Simulation sim;
    Retargetable c(sim);
    c.attach();
    sim.schedule(50, [&]() { c.retarget(MaxTick); });
    sim.schedule(200, [&]() { c.retarget(250); });
    sim.run(400);
    EXPECT_EQ(c.fires, (std::vector<Tick>{250}));
}

/** Gives @p target work five ticks out on its first tick; sleeps for
 *  good after its second. */
class DelayedPoker
{
  public:
    DelayedPoker(Simulation &sim, Retargetable &target)
        : sim_(sim), target_(target)
    {
        sim.addClocked(this, 1);
    }

    void
    tick()
    {
        if (ticks_++ == 0)
            target_.retarget(sim_.now() + 5);
    }

    Tick nextWorkTick() const { return ticks_ >= 2 ? MaxTick : Tick{0}; }

  private:
    Simulation &sim_;
    Retargetable &target_;
    int ticks_ = 0;
};

TEST(WakeQueue, PokeDuringResumeWalkIsNotSleptThrough)
{
    // The first tick of a run() call walks every component in
    // registration order. A, walked first, has no work; B, walked
    // second, then gives A work. The wake calendar must be built from
    // A's answer after the walk, or the kernel sleeps through A's
    // work.
    for (const auto mode : {Simulation::KernelMode::EventDriven,
                            Simulation::KernelMode::LegacyPolling}) {
        Simulation sim;
        sim.setKernelMode(mode);
        Retargetable a(sim, MaxTick);
        a.attach();
        DelayedPoker b(sim, a);
        sim.run(100);
        EXPECT_EQ(a.fires, (std::vector<Tick>{5}))
            << (mode == Simulation::KernelMode::EventDriven
                    ? "event kernel"
                    : "poll loop");
    }
}

/** At tick @p at, retargets every target to the current tick from
 *  inside its own tick(); sleeps for good after that. */
class InTickPoker
{
  public:
    InTickPoker(Simulation &sim, Tick at,
                std::vector<Retargetable *> targets)
        : sim_(sim), at_(at), targets_(std::move(targets))
    {
        sim.addClocked(this, 1);
    }

    void
    tick()
    {
        if (sim_.now() < at_)
            return;
        for (Retargetable *t : targets_)
            t->retarget(sim_.now());
        at_ = MaxTick;
    }

    Tick nextWorkTick() const { return at_; }

  private:
    Simulation &sim_;
    Tick at_;
    std::vector<Retargetable *> targets_;
};

TEST(WakeQueue, PokeFromATickFiresAheadNowAndBehindNextEdge)
{
    // A tick that pokes gives work to one entry behind the fire
    // cursor, one ahead of it in the same 64-handle word, and one in
    // the next word. The legacy loop reaches the two ahead in the same
    // tick and the one behind on its next edge; with nothing else
    // armed, only the poke can bring the one behind back.
    for (const auto mode : {Simulation::KernelMode::EventDriven,
                            Simulation::KernelMode::LegacyPolling}) {
        Simulation sim;
        sim.setKernelMode(mode);
        Retargetable behind(sim, MaxTick);
        behind.attach();
        Retargetable ahead(sim, MaxTick);
        Retargetable far(sim, MaxTick);
        InTickPoker poker(sim, 10, {&behind, &ahead, &far});
        ahead.attach();
        std::vector<std::unique_ptr<Retargetable>> idle;
        for (int i = 0; i < 70; ++i) {
            idle.push_back(std::make_unique<Retargetable>(sim, MaxTick));
            idle.back()->attach();
        }
        far.attach();
        sim.run(100);
        const char *kernel = mode == Simulation::KernelMode::EventDriven
                                 ? "event kernel"
                                 : "poll loop";
        EXPECT_EQ(ahead.fires, (std::vector<Tick>{10})) << kernel;
        EXPECT_EQ(far.fires, (std::vector<Tick>{10})) << kernel;
        EXPECT_EQ(behind.fires, (std::vector<Tick>{11})) << kernel;
    }
}

/** Sleeps a cycling stride after each firing; records firing ticks. */
class Strider
{
  public:
    explicit Strider(Simulation &sim) : sim_(sim) {}

    void
    tick()
    {
        if (sim_.now() < next_)
            return; // Elided/poked edge before the stride target.
        fires.push_back(sim_.now());
        // Strides from 1 to 200 ticks: each is one stored wake edge,
        // and the twin run checks that the kernel lands on every one.
        static constexpr Tick strides[] = {1,   63, 64,  65, 127,
                                           128, 2,  200, 64, 5};
        next_ = sim_.now() + strides[fires.size() % 10];
    }

    Tick nextWorkTick() const { return next_; }

    std::vector<Tick> fires;

  private:
    Simulation &sim_;
    Tick next_ = 0;
};

TEST(WakeQueue, WheelWrapAndFarStrides)
{
    auto runOnce = [](Simulation::KernelMode mode) {
        Simulation sim;
        sim.setKernelMode(mode);
        Strider s(sim);
        sim.addClocked(&s, 1);
        sim.run(5000);
        return s.fires;
    };
    const std::vector<Tick> event =
        runOnce(Simulation::KernelMode::EventDriven);
    const std::vector<Tick> legacy =
        runOnce(Simulation::KernelMode::LegacyPolling);
    EXPECT_EQ(event, legacy);

    // Cross-check the head of the sequence against the stride table.
    static constexpr Tick strides[] = {1,   63, 64,  65, 127,
                                       128, 2,  200, 64, 5};
    ASSERT_GE(event.size(), 25u);
    Tick expect = 0;
    for (std::size_t i = 0; i < 25; ++i) {
        ASSERT_EQ(event[i], expect) << "firing " << i;
        expect += strides[(i + 1) % 10];
    }
}

/**
 * Busy-burst/sleep pattern driven by a private deterministic RNG.
 * The RNG is consumed only inside real work edges, which both
 * kernels deliver at identical ticks, so twin runs stay in lockstep.
 * Work and elided-edge counts are published as statistics so twin
 * runs can be diffed as stats JSON.
 */
class PatternClocked
{
  public:
    PatternClocked(Simulation &sim, std::uint64_t seed, Tick period,
                   int index)
        : sim_(sim), rng_(seed), period_(period),
          work_("comp." + std::to_string(index) + ".work", ""),
          skipped_("comp." + std::to_string(index) + ".skipped", "")
    {
        sim_.statistics().add(&work_);
        sim_.statistics().add(&skipped_);
    }

    void
    attach()
    {
        handle_ = sim_.addClocked(this, period_);
    }

    void
    tick()
    {
        const Tick t = sim_.now();
        if (busyLeft_ == 0) {
            if (t < sleepUntil_) {
                // Spurious edge: identical accounting to skipTicks(1),
                // per the nextWorkTick() contract.
                skipped_ += 1;
                return;
            }
            busyLeft_ = 1 + rng_.nextRange(6);
        }
        work_ += 1;
        fireHash = fireHash * 1099511628211ull + t;
        if (--busyLeft_ == 0)
            sleepUntil_ = t + period_ * (1 + rng_.nextRange(64));
    }

    Tick
    nextWorkTick() const
    {
        return busyLeft_ > 0 ? Tick{0} : sleepUntil_;
    }

    void skipTicks(Tick n) { skipped_ += static_cast<double>(n); }

    /** External stimulus: extend the burst (poke-before-mutate). */
    void
    wake(int amount)
    {
        sim_.pokeClocked(handle_);
        busyLeft_ += amount;
    }

    double workCount() const { return work_.value(); }
    double skipCount() const { return skipped_.value(); }

    std::uint64_t fireHash = 1469598103934665603ull;

  private:
    Simulation &sim_;
    Rng rng_;
    Tick period_;
    Simulation::ClockedHandle handle_ =
        Simulation::InvalidClockedHandle;
    int busyLeft_ = 0;
    Tick sleepUntil_ = 0;
    stats::Scalar work_;
    stats::Scalar skipped_;
};

struct TwinResult
{
    std::vector<double> work, skipped;
    std::vector<std::uint64_t> hashes;
    std::string statsJson;
};

TwinResult
runPatternFleet(Simulation::KernelMode mode, std::uint64_t seed,
                int components, Tick horizon)
{
    Simulation sim;
    sim.setKernelMode(mode);
    Rng topo(seed);
    std::vector<std::unique_ptr<PatternClocked>> comps;
    for (int i = 0; i < components; ++i) {
        const Tick period = 1 + topo.nextRange(3);
        comps.push_back(std::make_unique<PatternClocked>(
            sim, seed * 1000 + i, period, i));
        comps.back()->attach();
    }
    // Random external wakes, including pokes to sleeping components.
    for (int i = 0; i < 50; ++i) {
        const Tick at = 1 + topo.nextRange(horizon - 2);
        const int c = static_cast<int>(
            topo.nextRange(static_cast<std::uint64_t>(components)));
        sim.schedule(at,
                     [&comps, c]() { comps[c]->wake(1 + (c % 5)); });
    }
    sim.run(horizon);

    TwinResult r;
    for (const auto &c : comps) {
        r.work.push_back(c->workCount());
        r.skipped.push_back(c->skipCount());
        r.hashes.push_back(c->fireHash);
    }
    std::ostringstream oss;
    sim.statistics().dumpJson(oss);
    r.statsJson = oss.str();
    return r;
}

TEST(WakeQueue, RandomizedLegacyEventEquivalence)
{
    for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
        const TwinResult ev = runPatternFleet(
            Simulation::KernelMode::EventDriven, seed, 24, 6000);
        const TwinResult lg = runPatternFleet(
            Simulation::KernelMode::LegacyPolling, seed, 24, 6000);
        EXPECT_EQ(ev.work, lg.work) << "seed " << seed;
        EXPECT_EQ(ev.skipped, lg.skipped) << "seed " << seed;
        EXPECT_EQ(ev.hashes, lg.hashes) << "seed " << seed;
        EXPECT_EQ(ev.statsJson, lg.statsJson) << "seed " << seed;
        // Sanity: the fleet actually did something.
        double total = 0;
        for (const double w : ev.work)
            total += w;
        EXPECT_GT(total, 1000) << "seed " << seed;
    }
}

TEST(WakeQueue, GrowthChurnEquivalence)
{
    // 150 components need three armed-bit words, with pokes from
    // events landing in every word; the twin comparison catches a
    // wake lost in any of them.
    const TwinResult ev = runPatternFleet(
        Simulation::KernelMode::EventDriven, 7, 150, 2500);
    const TwinResult lg = runPatternFleet(
        Simulation::KernelMode::LegacyPolling, 7, 150, 2500);
    EXPECT_EQ(ev.work, lg.work);
    EXPECT_EQ(ev.skipped, lg.skipped);
    EXPECT_EQ(ev.hashes, lg.hashes);
    EXPECT_EQ(ev.statsJson, lg.statsJson);
}

} // namespace
} // namespace nomad
