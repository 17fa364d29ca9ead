/**
 * @file
 * The top-level simulation driver.
 *
 * Simulation owns the event queue, the statistics registry, and the list
 * of clocked components, and advances time with one of two kernels:
 *
 *  - EventDriven (default): a wake-queue scheduler. Each component
 *    registers the exact tick of its next real work in a wake array
 *    (one tick per component, with a bitset of the finite ones) and is
 *    not touched at all until that tick fires; a tick fires its due
 *    components in registration order. External state changes lower
 *    the component's wake through pokeClocked(). Elided no-op clock
 *    edges are batch-accounted through skipTicks() exactly as the
 *    polling kernel would, so output is byte-identical
 *    (docs/PERFORMANCE.md has the soundness argument).
 *
 *  - LegacyPolling: the historical loop that advances a global tick and
 *    polls every component's nextWorkTick()/skipTicks() hooks. Kept as
 *    the reference for the equivalence tests and selectable with
 *    --legacy-kernel.
 *
 * Both advance time only through events and registered wakes: a loop
 * skips exactly the clock edges before the earliest pending event or
 * nextWorkTick() answer, and stops for good once neither exists.
 */

#ifndef NOMAD_SIM_SIMULATION_HH
#define NOMAD_SIM_SIMULATION_HH

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <string>
#include <vector>

#include "event_queue.hh"
#include "stats.hh"
#include "types.hh"

namespace nomad
{

namespace trace
{
class TraceSink;
} // namespace trace

namespace harden
{
struct Context;
} // namespace harden

/** Top-level driver owning simulated time. */
class Simulation
{
  public:
    /** Which run-loop implementation drives the clocked components. */
    enum class KernelMode
    {
        EventDriven,  ///< Per-component wake ticks (default).
        LegacyPolling ///< Global-tick poll loop (reference kernel).
    };

    /** Identifies a registered clocked component (see addClocked). */
    using ClockedHandle = std::uint32_t;
    static constexpr ClockedHandle InvalidClockedHandle = ~0u;

    Simulation() = default;

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    EventQueue &events() { return events_; }
    stats::StatRegistry &statistics() { return stats_; }

    /** Select the run-loop kernel. Must not be changed mid-run. */
    void
    setKernelMode(KernelMode mode)
    {
        kernel_ = mode;
        pokeArmed_ =
            kernel_ == KernelMode::EventDriven && !rebuildPending_;
    }

    /**
     * Attach an event tracer. The sink is not owned and may be shared
     * by several simulations; @p pid distinguishes this simulation's
     * events (one Perfetto process group per run). Null detaches.
     */
    void
    setTrace(trace::TraceSink *sink, std::uint32_t pid = 0)
    {
        trace_ = sink;
        tracePid_ = pid;
    }

    /** The attached tracer, or nullptr when tracing is off. */
    trace::TraceSink *trace() const { return trace_; }
    std::uint32_t tracePid() const { return tracePid_; }

    /**
     * Attach the hardening context (invariant checking, fault
     * injection, watchdog; see src/harden/check.hh). Not owned; must
     * be set before components that read it are constructed, since
     * they may latch feature decisions (e.g. extra statistics) at
     * build time. Null detaches. Defined in harden/check.hh (it needs
     * Context's members to cache the checks-enabled decision).
     */
    void setHarden(harden::Context *ctx);

    /** The hardening context, or nullptr when hardening is off. */
    harden::Context *harden() const { return harden_; }

    /**
     * Cached `harden() && harden()->checkInvariants`, maintained by
     * setHarden() so every NOMAD_CHECK site costs one bool load
     * instead of two dependent pointer chases.
     */
    bool invariantChecksOn() const { return checksOn_; }

    /** Schedule @p fn (any `void()` callable) @p delay ticks from
     *  now; it is forwarded, not wrapped, so the queue builds it once
     *  in its slot. */
    template <typename F>
    void
    schedule(Tick delay, F &&fn)
    {
        events_.schedule(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Register a clocked component: any type with a `void tick()` that
     * advances it by one of its own clock cycles. @p period is in CPU
     * ticks (1 runs at the CPU clock, 2 at half of it); the first edge
     * is now(). The object must outlive the simulation run. Returns the
     * component's handle for pokeClocked().
     *
     * The template binds T::tick and the hooks below through
     * non-virtual trampolines, so the run loop calls the concrete
     * type's methods directly.
     *
     * Components may additionally opt into wake scheduling (and the
     * legacy loop's skip-ahead) by providing either or both of:
     *
     *   Tick nextWorkTick() const;
     *     The earliest tick at which tick() does real work. A value
     *     <= now means "this cycle"; MaxTick means "only after some
     *     event callback mutates my state". Every clock edge strictly
     *     before the returned tick must be a no-op apart from the
     *     accounting replicated by skipTicks().
     *
     *   void skipTicks(Tick n);
     *     Batch-account @p n elided no-op edges (cycle/stall
     *     counters). Components whose no-op edges have no accounting
     *     at all simply omit it. Required for the event-driven kernel:
     *     skipTicks must be a pure function of component state that is
     *     frozen while edges are being elided.
     *
     * A component without nextWorkTick() is ticked on every edge.
     *
     * A component that provides nextWorkTick() MUST call pokeClocked()
     * with its handle at the top of every externally-invoked method
     * (and every event callback body) that can change the answer —
     * before mutating any state. The event-driven kernel relies on
     * those pokes to flush elided-edge accounting against pre-mutation
     * state and to lower the wake tick; the legacy kernel treats pokes
     * as no-ops.
     */
    template <typename T>
    ClockedHandle
    addClocked(T *obj, Tick period = 1)
    {
        panic_if(period == 0, "clock period must be nonzero");
        Entry e{obj,
                [](void *p) { static_cast<T *>(p)->tick(); },
                nullptr, nullptr, period, now_};
        if constexpr (requires(const T &t) {
                          { t.nextWorkTick() } -> std::same_as<Tick>;
                      }) {
            e.nextWork = [](const void *p) {
                return static_cast<const T *>(p)->nextWorkTick();
            };
        }
        if constexpr (requires(T &t, Tick n) { t.skipTicks(n); }) {
            e.skip = [](void *p, Tick n) {
                static_cast<T *>(p)->skipTicks(n);
            };
        }
        const auto h = static_cast<ClockedHandle>(clocked_.size());
        clocked_.push_back(e);
        wakes_.push_back(MaxTick);
        armed_.resize((clocked_.size() + 63) / 64, 0);
        return h;
    }

    /**
     * Notify the event-driven kernel that component @p h is about to
     * be mutated from outside its own tick(). Must be called BEFORE
     * the mutation: it batch-accounts the component's elided no-op
     * edges against the still-unmutated state and lowers its wake to
     * the earliest clock edge the legacy loop could tick it, so a
     * state change can never be slept through. Spurious pokes are
     * harmless (a wake whose tick() turns out to be a no-op is
     * accounted exactly like an elided edge). No-op under the legacy
     * kernel, between run() calls, and during the walk that opens a
     * run() call (the calendar rebuild after it re-reads every
     * component's nextWorkTick()).
     */
    void
    pokeClocked(ClockedHandle h)
    {
        if (!pokeArmed_)
            return;
        if (static_cast<std::int64_t>(h) == firingIdx_)
            return; // Self-poke mid-tick: the fire path re-registers.
        Entry &e = clocked_[h];
        // An entry the fire cursor already passed had its chance at
        // now_; the legacy loop would next tick it at its following
        // edge. Everyone else can still be ticked this very tick.
        const bool passed = static_cast<std::int64_t>(h) < firingIdx_;
        // Edges strictly before the mutation are no-ops under the
        // pre-mutation state; account them now, while it holds.
        settleTail(e, passed ? now_ + 1 : now_);
        // Every wake is on the entry's grid and no earlier than the
        // edge e.next now holds (the walk fires each wake it
        // reaches), so e.next can only lower it.
        if (e.next < wakes_[h]) {
            wakes_[h] = e.next;
            armed_[h >> 6] |= 1ULL << (h & 63);
            // The walk folds wakes ahead of the cursor into the next
            // target itself; behind it, the poke has to.
            if (passed)
                nextWake_ = std::min(nextWake_, e.next);
        }
    }

    /**
     * Flush all batch-deferred skip accounting up to now(). Mid-run
     * statistics readers (the sampler's probes above all) call this so
     * they observe exactly the state the legacy loop would have
     * materialized at this event. No-op on the legacy kernel.
     */
    void
    flushAccounting()
    {
        if (!pokeArmed_)
            return;
        finalizeAll(now_);
    }

    /** Ask the run loop to return after finishing the current tick. */
    void requestStop() { stopRequested_ = true; }

    /**
     * Run until requestStop() is called or @p max_ticks have elapsed.
     * @return the number of ticks simulated by this call.
     */
    Tick
    run(Tick max_ticks = MaxTick)
    {
        return kernel_ == KernelMode::EventDriven ? runEvent(max_ticks)
                                                  : runLegacy(max_ticks);
    }

  private:
    struct Entry
    {
        void *obj;
        void (*tick)(void *);
        /** Optional skip-ahead hooks (see addClocked); may be null. */
        Tick (*nextWork)(const void *);
        void (*skip)(void *, Tick n);
        Tick period;
        /**
         * First clock edge not yet ticked or skip-accounted. The
         * legacy kernel advances it eagerly; the event-driven kernel
         * lets it lag behind now_ (a lazy tail of provable no-op
         * edges) and settles the account when the entry next fires.
         */
        Tick next;
    };

    /**
     * Batch-account @p e's elided edges strictly before @p bound and
     * advance it to its first edge at or after @p bound.
     */
    static void
    settleTail(Entry &e, Tick bound)
    {
        if (e.next < bound) {
            const Tick n = e.period == 1
                               ? bound - e.next
                               : (bound - 1 - e.next) / e.period + 1;
            if (e.skip)
                e.skip(e.obj, n);
            e.next += n * e.period;
        }
    }

    /**
     * Settle entry @p h's lazy tail through the edge at @p T (which
     * must lie on its clock grid), consume that edge with a real
     * tick(), and re-register it from its fresh nextWorkTick().
     */
    void
    fireEntry(ClockedHandle h, Tick T)
    {
        Entry &e = clocked_[h];
        settleTail(e, T);
        // Advance past this edge before ticking so self-scheduled
        // callbacks observe the edge as consumed.
        e.next = T + e.period;
        firingIdx_ = static_cast<std::int64_t>(h);
        e.tick(e.obj);
        firingIdx_ = -1;
        requeueEntry(h);
    }

    /** Set @p h's wake to the first clock edge that can do real
     *  work, or to MaxTick (disarmed) until a poke. */
    void
    requeueEntry(ClockedHandle h)
    {
        Entry &e = clocked_[h];
        const Tick w = e.nextWork ? e.nextWork(e.obj) : Tick(0);
        const std::uint64_t bit = 1ULL << (h & 63);
        if (w == MaxTick) {
            wakes_[h] = MaxTick;
            armed_[h >> 6] &= ~bit;
            return;
        }
        Tick edge = e.next;
        if (w > edge) {
            edge = e.period == 1
                       ? w
                       : edge + (w - edge + e.period - 1) /
                                    e.period * e.period;
        }
        wakes_[h] = edge;
        armed_[h >> 6] |= bit;
    }

    /**
     * Fire every component due at tick @p T in registration order,
     * and fold every wake left into nextWake_. Pokes during the walk
     * may lower the wake of entries ahead of the cursor to T; they
     * fire in the same pass, exactly where the legacy loop would have
     * reached them. A poke never lowers a wake behind the cursor to
     * T: a passed entry's next chance is its following edge.
     */
    void
    firePhase(Tick T)
    {
        nextWake_ = MaxTick;
        for (std::size_t w = 0; w < armed_.size(); ++w) {
            std::uint64_t m = armed_[w];
            while (m != 0) {
                const int b = std::countr_zero(m);
                const auto h = static_cast<ClockedHandle>((w << 6) + b);
                if (wakes_[h] <= T) {
                    fireEntry(h, T);
                    // Re-read the word: the tick may have armed
                    // entries ahead of the cursor.
                    m = armed_[w] & (~1ULL << b);
                } else {
                    m &= m - 1;
                }
                nextWake_ = std::min(nextWake_, wakes_[h]);
            }
        }
    }

    /**
     * Replicate the legacy loop's first iteration of a run() call:
     * tick every entry whose edge is due at now_, in position order,
     * then rebuild every wake from fresh nextWorkTick() answers. The
     * rebuild absorbs any mutation made before it (by an external
     * caller between runs, or by a later entry's tick during the
     * walk), which is why pokes stay disarmed until it is done.
     */
    void
    resumeVisit(Tick T)
    {
        for (Entry &e : clocked_) {
            if (e.next <= T) {
                e.next = T + e.period;
                e.tick(e.obj);
            }
        }
        nextWake_ = MaxTick;
        for (ClockedHandle h = 0; h < clocked_.size(); ++h) {
            requeueEntry(h);
            nextWake_ = std::min(nextWake_, wakes_[h]);
        }
    }

    /** settleTail() every entry through @p bound. */
    void
    finalizeAll(Tick bound)
    {
        for (auto &e : clocked_)
            settleTail(e, bound);
    }

    /** The event-driven kernel. */
    Tick
    runEvent(Tick max_ticks)
    {
        stopRequested_ = false;
        const Tick start = now_;
        const Tick end =
            (max_ticks == MaxTick) ? MaxTick : now_ + max_ticks;
        rebuildPending_ = true;

        while (!stopRequested_ && now_ < end) {
            events_.advanceTo(now_);

            const Tick T = now_;
            if (rebuildPending_) {
                resumeVisit(T);
                rebuildPending_ = false;
                pokeArmed_ = kernel_ == KernelMode::EventDriven;
            } else {
                firePhase(T);
            }

            const Tick target =
                std::min({events_.nextEventTick(), end, nextWake_});
            if (target == MaxTick) {
                // Dead stop: no pending event and every component
                // waiting on one, so nothing can ever happen again.
                // The poll loop has consumed every edge through T;
                // settle the lazy tails through T to match.
                finalizeAll(T + 1);
                break;
            }
            now_ = std::max(target, T + 1);
        }
        finalizeAll(now_);
        rebuildPending_ = true; // Between-run pokes are no-ops.
        pokeArmed_ = false;
        return now_ - start;
    }

    /** The historical global-tick polling kernel (reference). */
    Tick
    runLegacy(Tick max_ticks)
    {
        stopRequested_ = false;
        const Tick start = now_;
        const Tick end =
            (max_ticks == MaxTick) ? MaxTick : now_ + max_ticks;

        while (!stopRequested_ && now_ < end) {
            events_.advanceTo(now_);

            for (auto &entry : clocked_) {
                if (entry.next <= now_) {
                    entry.tick(entry.obj);
                    entry.next = now_ + entry.period;
                }
            }

            // Skip-ahead: when every component either has nothing to
            // do before a known future tick (cores stalled on an
            // outstanding miss, DRAM waiting out a timing gate) or
            // waits on an event callback, jump straight to the
            // earliest of those wakeups and the next event. Edges
            // elided this way are batch-accounted via skipTicks(), so
            // statistics stay bit-identical to ticking through.
            Tick next_tick = now_ + 1;
            Tick target = std::min(events_.nextEventTick(), end);
            for (const auto &entry : clocked_) {
                if (target <= next_tick)
                    break; // Cannot beat the normal path.
                const Tick w =
                    entry.nextWork ? entry.nextWork(entry.obj) : Tick(0);
                if (w == MaxTick)
                    continue; // Woken by an event, not a clock.
                // First clock edge at or after w (entry.next is this
                // entry's earliest unticked edge, > now_).
                Tick c = entry.next;
                if (w > c) {
                    c += (w - c + entry.period - 1) / entry.period *
                         entry.period;
                }
                target = std::min(target, c);
            }
            if (target == MaxTick)
                break; // Dead stop: nothing can ever happen again.
            if (target > next_tick) {
                for (auto &entry : clocked_) {
                    if (entry.next >= target)
                        continue;
                    const Tick n =
                        (target - 1 - entry.next) / entry.period + 1;
                    if (entry.skip)
                        entry.skip(entry.obj, n);
                    entry.next += n * entry.period;
                }
                next_tick = target;
            }
            now_ = next_tick;
        }
        return now_ - start;
    }

    EventQueue events_;
    stats::StatRegistry stats_;
    std::vector<Entry> clocked_;
    Tick now_ = 0;
    bool stopRequested_ = false;
    bool checksOn_ = false;
    trace::TraceSink *trace_ = nullptr;
    std::uint32_t tracePid_ = 0;
    harden::Context *harden_ = nullptr;

    // Event-driven kernel state ----------------------------------------
    KernelMode kernel_ = KernelMode::EventDriven;
    /** Per entry: the clock edge it fires at next, or MaxTick while
     *  it waits for a poke. */
    std::vector<Tick> wakes_;
    /** One bit per entry whose wake is finite: the fire walk's set. */
    std::vector<std::uint64_t> armed_;
    /** Earliest wake after the current tick: the next target. */
    Tick nextWake_ = MaxTick;
    std::int64_t firingIdx_ = -1; ///< Fire cursor; -1 outside a tick().
    bool rebuildPending_ = true;  ///< Calendar invalid; rebuild on run.
    /** Cached kernel_ == EventDriven && !rebuildPending_: the poke
     *  hot path's single-load guard. */
    bool pokeArmed_ = false;
};

/** Base class for named simulation components. */
class SimObject
{
  public:
    SimObject(Simulation &sim, std::string name)
        : sim_(sim), name_(std::move(name))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Simulation &sim() const { return sim_; }
    Tick curTick() const { return sim_.now(); }

    /**
     * The simulation's tracer (nullptr when tracing is off). Every
     * trace point guards on this pointer before evaluating any event
     * arguments; under -DNOMAD_DISABLE_TRACING=ON it is a compile-
     * time nullptr so those guarded blocks fold away entirely.
     */
    trace::TraceSink *
    tracer() const
    {
#ifdef NOMAD_DISABLE_TRACING
        return nullptr;
#else
        return sim_.trace();
#endif
    }
    std::uint32_t tracePid() const { return sim_.tracePid(); }

  protected:
    /** Schedule a member callback @p delay ticks from now. */
    template <typename F>
    void
    schedule(Tick delay, F &&fn)
    {
        sim_.schedule(delay, std::forward<F>(fn));
    }

    Simulation &sim_;
    std::string name_;
};

} // namespace nomad

#endif // NOMAD_SIM_SIMULATION_HH
