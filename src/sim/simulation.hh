/**
 * @file
 * The top-level simulation driver.
 *
 * Simulation owns the event queue, the statistics registry, and the list
 * of clocked components, and advances time with one of two kernels:
 *
 *  - EventDriven (default): a wake-queue scheduler. Each component
 *    registers the exact tick of its next real work (a short timing
 *    wheel of per-tick bitsets for near wakes, backed by a binary-heap
 *    calendar for far ones; FIFO-stable within a tick in registration
 *    order) and is not touched at all until that tick fires. External
 *    state changes re-register the component through pokeClocked().
 *    Elided no-op clock edges are batch-accounted through skipTicks()
 *    exactly as the polling kernel would, so output is byte-identical
 *    (docs/PERFORMANCE.md has the soundness argument).
 *
 *  - LegacyPolling: the historical loop that advances a global tick and
 *    polls every component's nextWorkTick()/skipTicks() hooks. Kept as
 *    the reference for the equivalence tests and selectable with
 *    --legacy-kernel.
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

/**
 * Interface of components driven on a fixed clock.
 *
 * The clock period is expressed in CPU ticks; a period of 1 means the
 * component runs at the CPU clock, a period of 2 at half of it, etc.
 */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Advance the component by one of its own clock cycles. */
    virtual void tick() = 0;

    /**
     * True when the component has no pending work; used to fast-forward
     * over globally idle periods. Components that are cheap to tick can
     * simply keep the default.
     */
    virtual bool idle() const { return false; }
};

/** Top-level driver owning simulated time. */
class Simulation
{
  public:
    /** Which run-loop implementation drives the clocked components. */
    enum class KernelMode
    {
        EventDriven,  ///< Wake-queue scheduler (default).
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
    KernelMode kernelMode() const { return kernel_; }

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

    /** Schedule a callback @p delay ticks from now. */
    void
    schedule(Tick delay, EventQueue::Callback cb)
    {
        events_.schedule(now_ + delay, std::move(cb));
    }

    /**
     * Register a clocked component. @p period is in CPU ticks and
     * @p phase offsets the first edge. The object must outlive the
     * simulation run. Returns the component's handle for pokeClocked().
     *
     * Dispatch is devirtualized at registration: the template binds
     * T::tick / T::idle through non-virtual trampolines, so a final
     * (or non-virtual) tick() on the concrete component type is a
     * direct call — the run loop never goes through the Clocked
     * vtable. Registering through a Clocked* still works and simply
     * keeps the virtual hop.
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
     *     frozen while edges are being elided, and a no-op whenever
     *     idle() is true (all current implementations are).
     *
     * A component that provides nextWorkTick() MUST call pokeClocked()
     * with its handle at the top of every externally-invoked method
     * (and every event callback body) that can change the answer —
     * before mutating any state. The event-driven kernel relies on
     * those pokes to flush elided-edge accounting against pre-mutation
     * state and to re-register the wake tick; the legacy kernel treats
     * pokes as no-ops.
     */
    template <typename T>
    ClockedHandle
    addClocked(T *obj, Tick period = 1, Tick phase = 0)
    {
        panic_if(period == 0, "clock period must be nonzero");
        Entry e{obj,
                [](void *p) { static_cast<T *>(p)->tick(); },
                [](const void *p) {
                    return static_cast<const T *>(p)->idle();
                },
                nullptr, nullptr, period, now_ + phase,
                /*wakeEdge=*/0, /*queued=*/false, /*idleFlag=*/false};
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
        const std::size_t words = (clocked_.size() + 63) / 64;
        dueBits_.resize(words, 0);
        dirtyBits_.resize(words, 0);
        latePoked_.resize(words, 0);
        for (auto &slot : wheel_)
            slot.resize(words, 0);
        return h;
    }

    /**
     * Notify the event-driven kernel that component @p h is about to
     * be mutated from outside its own tick(). Must be called BEFORE
     * the mutation: it batch-accounts the component's elided no-op
     * edges against the still-unmutated state and re-registers the
     * component at the earliest clock edge the legacy loop could tick
     * it, so a state change can never be slept through. Spurious pokes
     * are harmless (a wake whose tick() turns out to be a no-op is
     * accounted exactly like an elided edge). No-op under the legacy
     * kernel and between run() calls.
     */
    void
    pokeClocked(ClockedHandle h)
    {
        // Kept to the three checks that retire almost every call so
        // the whole prologue inlines at the (very hot) poke sites:
        // disarmed kernel, self-poke, and the repeat-poke of an entry
        // already firing this tick. Everything else is out of line.
        if (!pokeArmed_)
            return;
        if (static_cast<std::int64_t>(h) == firingIdx_)
            return; // Self-poke mid-tick: the fire path re-registers.
        const Entry &e = clocked_[h];
        if (static_cast<std::int64_t>(h) > firingIdx_) {
            // Repeat-poke of an entry already firing this tick.
            if (e.next == now_ && testBit(dueBits_, h))
                return;
        } else if (e.queued && e.wakeEdge == e.next) {
            // Passed entry already registered at its earliest
            // reachable edge (its settled e.next): nothing to account
            // or move; only the idle re-read is owed after the branch
            // decision.
            setBit(latePoked_, h);
            return;
        }
        pokeSlow(h);
    }

  private:
    void
    pokeSlow(ClockedHandle h)
    {
        if (resumeWalk_) {
            // The resume visit re-reads everything after the walk; a
            // mutation of an already-visited entry must only defer its
            // idle re-read past this tick's branch decision, exactly
            // like the legacy loop's position-ordered idle reads.
            if (static_cast<std::int64_t>(h) < firingIdx_)
                setBit(latePoked_, h);
            return;
        }
        Entry &e = clocked_[h];
        const bool passed = static_cast<std::int64_t>(h) < firingIdx_;
        // The prologue's repeat-poke test can miss an entry with an
        // unsettled lazy tail (e.next < now_); that tail is accounted
        // below while the pre-mutation state still holds.
        if (!passed && e.next == now_ && testBit(dueBits_, h))
            return;
        // An entry the fire cursor already passed had its chance at
        // now_; the legacy loop would next tick it at its following
        // edge. Everyone else can still be ticked this very tick.
        const Tick bound = passed ? now_ + 1 : now_;
        Tick edge = e.next;
        if (bound > edge) {
            edge = e.period == 1
                       ? bound
                       : edge + (bound - edge + e.period - 1) /
                                    e.period * e.period;
        }
        if (e.next < edge) {
            // Edges strictly before the mutation are no-ops under the
            // pre-mutation state; account them now, while it holds.
            const Tick n = e.period == 1
                               ? edge - e.next
                               : (edge - e.next) / e.period;
            if (e.skip)
                e.skip(e.obj, n);
            e.next = edge;
        }
        if (edge == now_) {
            if (!testBit(dueBits_, h)) {
                setBit(dueBits_, h);
                if (e.queued) {
                    // A near token lives in a wheel slot: clear it
                    // eagerly so slot scans never see stale bits. A
                    // far token is a heap node; those invalidate
                    // lazily through the wakeEdge equality check.
                    if (e.wakeEdge > now_ &&
                        e.wakeEdge - now_ <= WheelSize)
                        clearWheelToken(e.wakeEdge, h);
                    e.queued = false;
                }
            }
        } else if (!e.queued || e.wakeEdge > edge) {
            if (e.queued && e.wakeEdge > now_ &&
                e.wakeEdge - now_ <= WheelSize)
                clearWheelToken(e.wakeEdge, h);
            scheduleWake(edge, h);
        }
        // Idle bookkeeping mirrors the legacy loop's interleaved
        // reads: an entry behind the cursor was read pre-mutation this
        // tick (re-read only after the branch decision); an entry
        // ahead is re-read when the cursor crosses it.
        if (passed)
            setBit(latePoked_, h);
        else if (!testBit(dueBits_, h))
            setBit(dirtyBits_, h);
    }

  public:
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
        bool (*idle)(const void *);
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
        /** Calendar position while queued (see heap_). */
        Tick wakeEdge;
        /** A heap node with t == wakeEdge is live for this entry. */
        bool queued;
        /** Cached idle(); maintained at fires/pokes (busyCount_). */
        bool idleFlag;
    };

    struct HeapNode
    {
        Tick t;
        ClockedHandle h;
    };

    static bool
    heapLater(const HeapNode &a, const HeapNode &b)
    {
        return a.t > b.t; // std::*_heap with "later" = a min-heap.
    }

    static bool
    testBit(const std::vector<std::uint64_t> &bits, ClockedHandle h)
    {
        return (bits[h >> 6] >> (h & 63)) & 1ULL;
    }

    static void
    setBit(std::vector<std::uint64_t> &bits, ClockedHandle h)
    {
        bits[h >> 6] |= 1ULL << (h & 63);
    }

    static void
    clearBit(std::vector<std::uint64_t> &bits, ClockedHandle h)
    {
        bits[h >> 6] &= ~(1ULL << (h & 63));
    }

    static bool
    slotNonempty(const std::vector<std::uint64_t> &bits)
    {
        for (const std::uint64_t w : bits)
            if (w != 0)
                return true;
        return false;
    }

    /**
     * Register entry @p h's wake at @p edge (which must be > now_).
     * Near wakes land in the timing wheel — a per-tick bitset ring
     * that makes the ubiquitous "again next cycle" reschedule two bit
     * operations instead of a heap push/pop round trip — and far
     * wakes in the binary heap. Within a tick both containers replay
     * registration order (the due-bit walk sorts by handle).
     */
    void
    scheduleWake(Tick edge, ClockedHandle h)
    {
        Entry &e = clocked_[h];
        e.queued = true;
        e.wakeEdge = edge;
        if (edge - now_ <= WheelSize) {
            const Tick s = edge & WheelMask;
            setBit(wheel_[s], h);
            wheelSummary_ |= 1ULL << s;
        } else {
            heap_.push_back({edge, h});
            std::push_heap(heap_.begin(), heap_.end(), heapLater);
        }
    }

    /** Drop entry @p h's wheel token at @p edge (eager, so the
     *  occupancy summary never over-reports). */
    void
    clearWheelToken(Tick edge, ClockedHandle h)
    {
        const Tick s = edge & WheelMask;
        auto &slot = wheel_[s];
        clearBit(slot, h);
        if (!slotNonempty(slot))
            wheelSummary_ &= ~(1ULL << s);
    }

    void
    popHeap()
    {
        std::pop_heap(heap_.begin(), heap_.end(), heapLater);
        heap_.pop_back();
    }

    /** Earliest live calendar entry; discards stale nodes. */
    Tick
    heapMinEdge()
    {
        while (!heap_.empty()) {
            const HeapNode &top = heap_.front();
            const Entry &e = clocked_[top.h];
            if (e.queued && e.wakeEdge == top.t)
                return top.t;
            popHeap();
        }
        return MaxTick;
    }

    void
    updateIdleFlag(ClockedHandle h)
    {
        Entry &e = clocked_[h];
        const bool v = e.idle(e.obj);
        if (v != e.idleFlag) {
            e.idleFlag = v;
            busyCount_ += v ? -1 : +1;
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
        if (e.next < T) {
            const Tick n = (T - e.next) / e.period;
            if (e.skip)
                e.skip(e.obj, n);
        }
        // Advance past this edge before ticking so self-scheduled
        // callbacks observe the edge as consumed.
        e.next = T + e.period;
        firingIdx_ = static_cast<std::int64_t>(h);
        e.tick(e.obj);
        firingIdx_ = -1;
        requeueEntry(h);
        updateIdleFlag(h);
    }

    /** Queue @p h at the first clock edge that can do real work. */
    void
    requeueEntry(ClockedHandle h)
    {
        Entry &e = clocked_[h];
        const Tick w = e.nextWork ? e.nextWork(e.obj) : Tick(0);
        if (w == MaxTick) {
            e.queued = false; // Woken only by a poke.
            return;
        }
        Tick edge = e.next;
        if (w > edge) {
            edge = e.period == 1
                       ? w
                       : edge + (w - edge + e.period - 1) /
                                    e.period * e.period;
        }
        scheduleWake(edge, h);
    }

    /**
     * Fire every component due at tick @p T in registration order.
     * Pokes during the walk may mark entries ahead of the cursor due
     * or dirty; they are picked up in the same pass (bits behind the
     * cursor are never set — those pokes defer to latePoked_).
     */
    void
    firePhase(Tick T)
    {
        // Promote the wheel slots the clock has reached, visiting only
        // occupied ones via the summary mask. A promoted bit whose
        // entry is still registered for a later tick (a wrapped future
        // edge sharing the slot) is kept in place; one whose
        // registration moved or fired is dropped.
        if (wheelSummary_ != 0 && wheelPos_ < T) {
            const Tick span = T - wheelPos_;
            std::uint64_t range = ~0ULL;
            if (span < WheelSize) {
                range = (1ULL << span) - 1;
                range = std::rotl(range,
                                  static_cast<int>((wheelPos_ + 1) &
                                                   WheelMask));
            }
            std::uint64_t todo = wheelSummary_ & range;
            while (todo != 0) {
                const int s = std::countr_zero(todo);
                todo &= todo - 1;
                auto &slot = wheel_[s];
                std::uint64_t any = 0;
                for (std::size_t w = 0; w < slot.size(); ++w) {
                    std::uint64_t m = slot[w];
                    if (m == 0)
                        continue;
                    std::uint64_t keep = 0;
                    while (m != 0) {
                        const std::uint64_t bit = m & (~m + 1);
                        m ^= bit;
                        const auto h = static_cast<ClockedHandle>(
                            (w << 6) + std::countr_zero(bit));
                        Entry &e = clocked_[h];
                        if (e.queued && e.wakeEdge <= T) {
                            e.queued = false;
                            dueBits_[w] |= bit;
                        } else if (e.queued && e.wakeEdge > T) {
                            keep |= bit;
                        }
                    }
                    slot[w] = keep;
                    any |= keep;
                }
                if (any == 0)
                    wheelSummary_ &= ~(1ULL << s);
            }
        }
        wheelPos_ = T;
        while (!heap_.empty() && heap_.front().t <= T) {
            const HeapNode top = heap_.front();
            popHeap();
            Entry &e = clocked_[top.h];
            if (e.queued && e.wakeEdge == top.t) {
                e.queued = false;
                setBit(dueBits_, top.h);
            }
        }
        for (std::size_t w = 0; w < dueBits_.size(); ++w) {
            // Both words re-read every iteration: a fired entry's
            // tick() may poke entries ahead of the cursor due or
            // dirty, and those must be handled this same pass, in
            // handle order, exactly where the legacy loop would have
            // reached them.
            while (true) {
                const std::uint64_t due = dueBits_[w];
                const std::uint64_t dirty = dirtyBits_[w];
                const std::uint64_t m = due | dirty;
                if (m == 0)
                    break;
                const std::uint64_t bit = m & (~m + 1);
                const auto h = static_cast<ClockedHandle>(
                    (w << 6) + std::countr_zero(bit));
                if ((due & bit) != 0) {
                    dueBits_[w] = due ^ bit;
                    dirtyBits_[w] = dirty & ~bit;
                    fireEntry(h, T);
                } else {
                    dirtyBits_[w] = dirty ^ bit;
                    updateIdleFlag(h);
                }
            }
        }
    }

    /**
     * Replicate the legacy loop's first iteration of a run() call:
     * tick every entry whose pending edge is at or behind now_ (edges
     * stranded by a dead stop catch up with no accounting, exactly as
     * the poll loop drops them), refresh every idle flag in position
     * order, then rebuild the wake calendar from fresh nextWorkTick()
     * answers. Also absorbs any between-run external mutations, which
     * is why pokes outside run() can be ignored entirely.
     */
    void
    resumeVisit(Tick T)
    {
        heap_.clear();
        std::fill(dueBits_.begin(), dueBits_.end(), 0);
        std::fill(dirtyBits_.begin(), dirtyBits_.end(), 0);
        for (auto &slot : wheel_)
            std::fill(slot.begin(), slot.end(), 0);
        wheelSummary_ = 0;
        wheelPos_ = T;
        std::fill(latePoked_.begin(), latePoked_.end(), 0);
        busyCount_ = 0;
        resumeWalk_ = true;
        for (ClockedHandle h = 0; h < clocked_.size(); ++h) {
            Entry &e = clocked_[h];
            if (e.next <= T) {
                e.next = T + e.period;
                firingIdx_ = static_cast<std::int64_t>(h);
                e.tick(e.obj);
                firingIdx_ = -1;
            }
            e.idleFlag = e.idle(e.obj);
            if (!e.idleFlag)
                ++busyCount_;
        }
        resumeWalk_ = false;
        for (ClockedHandle h = 0; h < clocked_.size(); ++h) {
            clocked_[h].queued = false;
            requeueEntry(h);
        }
    }

    /**
     * Batch-account every entry's elided edges strictly before
     * @p bound and advance it to its first edge at or after @p bound.
     */
    void
    finalizeAll(Tick bound)
    {
        for (auto &e : clocked_) {
            if (e.next < bound) {
                const Tick n = (bound - 1 - e.next) / e.period + 1;
                if (e.skip)
                    e.skip(e.obj, n);
                e.next += n * e.period;
            }
        }
    }

    void
    processLatePoked()
    {
        for (std::size_t w = 0; w < latePoked_.size(); ++w) {
            std::uint64_t m = latePoked_[w];
            if (m == 0)
                continue;
            latePoked_[w] = 0;
            while (m != 0) {
                const auto h = static_cast<ClockedHandle>(
                    (w << 6) + std::countr_zero(m));
                m &= m - 1;
                updateIdleFlag(h);
            }
        }
    }

    /** The event-driven wake-queue kernel. */
    Tick
    runEvent(Tick max_ticks)
    {
        stopRequested_ = false;
        const Tick start = now_;
        const Tick end =
            (max_ticks == MaxTick) ? MaxTick : now_ + max_ticks;
        rebuildPending_ = true;
        bool flushed = false;

        while (!stopRequested_ && now_ < end) {
            events_.advanceTo(now_);

            const Tick T = now_;
            if (rebuildPending_) {
                // Armed before the walk: a component poked by a later
                // one inside it must have its idle flag re-read.
                pokeArmed_ = kernel_ == KernelMode::EventDriven;
                resumeVisit(T);
                rebuildPending_ = false;
            } else {
                firePhase(T);
            }

            Tick next_tick = T + 1;
            if (busyCount_ == 0) {
                // All idle: only an event can create work, so clock
                // edges up to the next event carry none. The legacy
                // loop re-aligns without accounting; skipTicks() is a
                // no-op on an idle component (a registration-time
                // contract), so settling the account later at the
                // next fire charges exactly the same nothing.
                Tick target = events_.nextEventTick();
                if (target == MaxTick) {
                    // Nothing can ever happen again.
                    finalizeAll(T + 1);
                    flushed = true;
                    std::fill(latePoked_.begin(), latePoked_.end(), 0);
                    if (end != MaxTick)
                        now_ = end;
                    break;
                }
                if (target > end)
                    target = end;
                if (target > next_tick)
                    next_tick = target;
            } else {
                Tick target = events_.nextEventTick();
                if (target > end)
                    target = end;
                // Earliest registered wake. Wheel slots hold edges in
                // (T, T + WheelSize], so rotating the occupancy mask
                // to put slot T+1 at bit 0 turns "first nonempty
                // slot" into one count-trailing-zeros. The heap can
                // still hold an earlier edge (inserted far, reached
                // near), so it is consulted unless the wheel already
                // answers with the unbeatable T+1.
                Tick wake = MaxTick;
                if (wheelSummary_ != 0) {
                    wake = T + 1 +
                           std::countr_zero(std::rotr(
                               wheelSummary_,
                               static_cast<int>((T + 1) & WheelMask)));
                }
                if (wake > T + 1) {
                    const Tick hm = heapMinEdge();
                    if (hm < wake)
                        wake = hm;
                }
                if (wake < target)
                    target = wake;
                if (target == MaxTick) {
                    // No pending event and every component waiting on
                    // one: mirrors the all-idle dead stop above.
                    finalizeAll(T + 1);
                    flushed = true;
                    std::fill(latePoked_.begin(), latePoked_.end(), 0);
                    if (end != MaxTick)
                        now_ = end;
                    break;
                }
                if (target > next_tick)
                    next_tick = target;
            }
            // Idle reads the legacy loop would only see next tick.
            processLatePoked();
            now_ = next_tick;
        }
        if (!flushed)
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

            bool all_idle = true;
            for (auto &entry : clocked_) {
                // '<=' (not '==') so edges stranded behind now_ by an
                // idle fast-forward in a previous run() catch up.
                if (entry.next <= now_) {
                    entry.tick(entry.obj);
                    entry.next = now_ + entry.period;
                }
                all_idle = all_idle && entry.idle(entry.obj);
            }

            Tick next_tick = now_ + 1;
            if (all_idle) {
                // Fast-forward to the next event; clock edges carry no
                // work while every component is idle, but re-align each
                // component's next edge so phases stay consistent.
                Tick target = events_.nextEventTick();
                if (target == MaxTick) {
                    // Nothing can ever happen again.
                    if (end != MaxTick)
                        now_ = end;
                    break;
                }
                if (target > end)
                    target = end;
                if (target > next_tick) {
                    for (auto &entry : clocked_) {
                        // Arithmetic re-alignment to the first edge at
                        // or after target (the equivalent loop was
                        // O(span/period) across long idle stretches).
                        if (entry.next < target) {
                            const Tick behind = target - entry.next;
                            entry.next +=
                                (behind + entry.period - 1) /
                                entry.period * entry.period;
                        }
                    }
                    next_tick = target;
                }
            } else {
                // Skip-ahead: when every component either has nothing
                // to do before a known future tick (cores stalled on
                // an outstanding miss, DRAM waiting out a timing gate)
                // or waits on an event callback, jump straight to the
                // earliest of those wakeups and the next event. Edges
                // elided this way are batch-accounted via skipTicks(),
                // so statistics stay bit-identical to ticking through.
                Tick target = events_.nextEventTick();
                if (target > end)
                    target = end;
                for (const auto &entry : clocked_) {
                    if (target <= next_tick)
                        break; // Cannot beat the normal path.
                    const Tick w =
                        entry.nextWork ? entry.nextWork(entry.obj)
                                       : Tick(0);
                    if (w == MaxTick)
                        continue; // Woken by an event, not a clock.
                    // First clock edge at or after w (entry.next is
                    // this entry's earliest unticked edge, > now_).
                    Tick c = entry.next;
                    if (w > c) {
                        c += (w - c + entry.period - 1) /
                             entry.period * entry.period;
                    }
                    if (c < target)
                        target = c;
                }
                if (target == MaxTick) {
                    // No pending event and every component waiting on
                    // one: nothing can ever happen again (mirrors the
                    // all-idle dead stop above).
                    if (end != MaxTick)
                        now_ = end;
                    break;
                }
                if (target > next_tick) {
                    for (auto &entry : clocked_) {
                        if (entry.next >= target)
                            continue;
                        const Tick n =
                            (target - 1 - entry.next) / entry.period +
                            1;
                        if (entry.skip)
                            entry.skip(entry.obj, n);
                        entry.next += n * entry.period;
                    }
                    next_tick = target;
                }
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
    /**
     * Near-wake timing wheel: slot (t & WheelMask) holds a bitset of
     * entries registered to wake at tick t, for t within WheelSize
     * ticks of now_. The dominant reschedule — a busy component's
     * "again next cycle", or a DRAM timing gate a few ticks out —
     * costs two bit operations here instead of a heap push/pop pair.
     * Bit (t & WheelMask) of wheelSummary_ mirrors whether the slot
     * holds anything, so finding the next wake is one rotate plus a
     * count-trailing-zeros. Wakes beyond the window go to heap_.
     */
    static constexpr Tick WheelSize = 64;
    static constexpr Tick WheelMask = WheelSize - 1;
    std::vector<std::uint64_t> wheel_[WheelSize];
    std::uint64_t wheelSummary_ = 0; ///< Slot-occupancy bitmask.
    Tick wheelPos_ = 0; ///< Last tick whose slot was promoted.
    std::vector<HeapNode> heap_; ///< Wake calendar (min-heap by tick).
    std::vector<std::uint64_t> dueBits_;   ///< Fires this tick.
    std::vector<std::uint64_t> dirtyBits_; ///< Idle re-read this tick.
    std::vector<std::uint64_t> latePoked_; ///< Re-read after decision.
    std::uint32_t busyCount_ = 0; ///< Entries with idleFlag == false.
    std::int64_t firingIdx_ = -1; ///< Fire cursor; -1 outside a tick().
    bool resumeWalk_ = false;     ///< Inside resumeVisit()'s tick walk.
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
    void
    schedule(Tick delay, EventQueue::Callback cb)
    {
        sim_.schedule(delay, std::move(cb));
    }

    /** Register a statistic under this object's dotted name space. */
    template <typename StatT, typename... Args>
    StatT
    makeStat(const std::string &local_name, Args &&...args)
    {
        return StatT(name_ + "." + local_name,
                     std::forward<Args>(args)...);
    }

    /** Add an already-constructed statistic member to the registry. */
    void regStat(stats::StatBase *s) { sim_.statistics().add(s); }

    Simulation &sim_;
    std::string name_;
};

} // namespace nomad

#endif // NOMAD_SIM_SIMULATION_HH
