/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Events scheduled for the same tick fire in insertion order, which makes
 * simulations bit-reproducible across runs regardless of heap internals.
 *
 * The queue is a binary min-heap of small (tick, sequence, slot) nodes
 * over a table of callback slots. A callback is built once, in place in
 * its slot, straight from the caller's lambda, and is invoked where it
 * lies: heap sifts move 24-byte trivially copyable nodes, never the
 * callbacks. Slots sit in fixed-size chunks that never move, and a
 * free list recycles them, so scheduling a lambda with a few captured
 * pointers touches the allocator only while the queue grows.
 */

#ifndef NOMAD_SIM_EVENT_QUEUE_HH
#define NOMAD_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "inline_fn.hh"
#include "logging.hh"
#include "types.hh"

namespace nomad
{

/**
 * Time-ordered queue of callbacks.
 *
 * The queue does not advance time by itself; Simulation drains due events
 * at the start of every tick. Callbacks may schedule further events
 * (including for the current tick, which then fire within the same drain).
 */
class EventQueue
{
  public:
    using Callback = InlineFn<void()>;

    EventQueue() { heap_.reserve(256); }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Schedule @p fn (any `void()` callable) to fire at absolute tick
     *  @p when; it is built in its slot, not relocated. */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        static_assert(std::is_invocable_r_v<void, std::decay_t<F> &>,
                      "an event callback takes no arguments");
        panic_if(when < now_, "scheduling event in the past (", when,
                 " < ", now_, ")");
        if (free_.empty())
            addChunk();
        // Build before claiming: a throwing capture copy leaves the
        // slot empty and still free.
        const std::uint32_t slot = free_.back();
        slotAt(slot).emplace(std::forward<F>(fn));
        free_.pop_back();
        heap_.push_back(Node{when, nextSeq_++, slot});
        siftUp(heap_.size() - 1);
    }

    /** Schedule @p fn to fire @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&fn)
    {
        schedule(now_ + delay, std::forward<F>(fn));
    }

    /** Fire every event due at or before @p tick, in deterministic order. */
    void
    advanceTo(Tick tick)
    {
        now_ = tick;
        while (!heap_.empty() && heap_.front().when <= tick) {
            const std::uint32_t slot = heap_.front().slot;
            popTop();
            ++fired_;
            // The slot stays off the free list until the callback
            // returns (or throws), so events it schedules land in
            // other slots, and chunks never move: it runs in place.
            const Release release{*this, slot};
            slotAt(slot)();
        }
    }

    /**
     * Events fired since construction. Monotonic; the watchdog folds
     * it into its forward-progress signature.
     */
    std::uint64_t fired() const { return fired_; }

    /** Current simulated time as last passed to advanceTo(). */
    Tick now() const { return now_; }

    /** Tick of the earliest pending event, or MaxTick if none. */
    Tick
    nextEventTick() const
    {
        return heap_.empty() ? MaxTick : heap_.front().when;
    }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    bool empty() const { return heap_.empty(); }

  private:
    /** Heap node: the firing key and where the callback lives. */
    struct Node
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;

        bool
        before(const Node &other) const
        {
            if (when != other.when)
                return when < other.when;
            return seq < other.seq;
        }
    };

    static constexpr std::uint32_t ChunkSlots = 256;
    using Chunk = std::array<Callback, ChunkSlots>;

    /** Destroys a fired callback's captures and frees its slot, on
     *  return and on unwind alike. */
    struct Release
    {
        EventQueue &q;
        std::uint32_t slot;

        Release(EventQueue &queue, std::uint32_t s) : q(queue), slot(s) {}
        Release(const Release &) = delete;
        Release &operator=(const Release &) = delete;

        ~Release()
        {
            q.slotAt(slot) = nullptr;
            q.free_.push_back(slot);
        }
    };

    Callback &
    slotAt(std::uint32_t slot)
    {
        return (*chunks_[slot / ChunkSlots])[slot % ChunkSlots];
    }

    /** Add a chunk of free slots, pushed from the last down so the
     *  lowest is handed out first. The free list is then reserved for
     *  every slot, so Release never allocates. */
    void
    addChunk()
    {
        const auto base =
            static_cast<std::uint32_t>(chunks_.size() * ChunkSlots);
        chunks_.push_back(std::make_unique<Chunk>());
        free_.reserve(base + ChunkSlots);
        for (std::uint32_t i = ChunkSlots; i-- > 0;)
            free_.push_back(base + i);
    }

    void
    siftUp(std::size_t i)
    {
        const Node node = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!node.before(heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = node;
    }

    void
    popTop()
    {
        const Node last = heap_.back();
        heap_.pop_back();
        const std::size_t n = heap_.size();
        if (n == 0)
            return;
        // Sift the former tail down from the root, moving the hole.
        std::size_t i = 0;
        while (true) {
            const std::size_t l = 2 * i + 1;
            if (l >= n)
                break;
            const std::size_t r = l + 1;
            std::size_t best = l;
            if (r < n && heap_[r].before(heap_[l]))
                best = r;
            if (!heap_[best].before(last))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = last;
    }

    std::vector<Node> heap_;
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::vector<std::uint32_t> free_; ///< Empty slots, LIFO.
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fired_ = 0;
    Tick now_ = 0;
};

} // namespace nomad

#endif // NOMAD_SIM_EVENT_QUEUE_HH
