/**
 * @file
 * The memory request packet shared by every memory-system component.
 *
 * A request travels down the hierarchy (core -> SRAM caches -> DRAM
 * cache scheme -> DRAM) and completes by invoking its callback with the
 * completion tick. Writes are posted: their callback fires when the
 * request is accepted at its destination queue, not when the DRAM array
 * is updated.
 *
 * Requests are reference-counted intrusively and recycled through a
 * thread-local freelist: a simulation issues millions of them and the
 * previous std::shared_ptr representation made the allocator (and its
 * atomic refcounts) a measurable fraction of total runtime. The
 * freelist is safe because a Simulation and everything in it is
 * confined to one thread (the runner's determinism contract,
 * docs/RUNNER.md): a request is always created and released on the
 * thread that runs its System.
 */

#ifndef NOMAD_MEM_REQUEST_HH
#define NOMAD_MEM_REQUEST_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_fn.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace nomad
{

/** Which DRAM device an address refers to. */
enum class MemSpace : std::uint8_t
{
    OffPackage, ///< Large-capacity DDR4 (physical frames).
    OnPackage,  ///< High-bandwidth HBM (DRAM cache frames).
};

/**
 * Why a DRAM access happens; drives the Fig 10 bandwidth breakdown.
 */
enum class Category : std::uint8_t
{
    Demand,    ///< Demand data read/write from the SRAM hierarchy.
    Metadata,  ///< DC tag / control-bit traffic (HW-based schemes).
    Fill,      ///< Cache-fill page/line copy traffic.
    Writeback, ///< Dirty eviction traffic.
    PageWalk,  ///< Page-table walker accesses.
    NumCategories,
};

struct MemRequest;
class MemRequestPtr;

namespace detail
{
struct RequestPool;
} // namespace detail

/**
 * A request from the freelist. @p cb (a `void(Tick)` callable, an
 * InlineFn, or nullptr) becomes its completion callback; a callable
 * is built in place, not relocated.
 */
template <typename F = std::nullptr_t>
MemRequestPtr makeRequest(Addr addr, bool is_write, Category cat,
                          MemSpace space, Tick now, F &&cb = nullptr,
                          int core_id = -1);

/** A component that re-offers the requests a port refused (MemPort). */
class RetrySender
{
  public:
    /**
     * A port that refused one of this sender's requests is about to
     * change state in a way that could let it accept. Runs inside
     * that state change, so it must only mark the sender runnable
     * (poke, then clear its blocked state), never re-offer from
     * inside.
     */
    virtual void recvRetry() = 0;

  protected:
    ~RetrySender() = default;
};

/** One memory transaction; always BlockBytes (64B) wide. */
struct MemRequest
{
    /** Callback invoked exactly once at completion. */
    using Callback = InlineFn<void(Tick completion_tick)>;

    Addr addr = 0;                       ///< Byte address in @ref space.
    MemSpace space = MemSpace::OffPackage;
    bool isWrite = false;
    Category category = Category::Demand;
    int coreId = -1;                     ///< Originating core, -1 = engine.
    Tick created = 0;                    ///< Tick the request was created.
    std::uint64_t seqNo = 0;             ///< Global issue order tag.
    bool latencyTracked = false;         ///< DC access-time wrap applied.
    /** The write carries a whole 64B block (e.g., a cache writeback),
     *  so a receiving cache may install it without a fill. */
    bool fullLine = false;
    /** Who re-offers this request if a port refuses it; null for a
     *  sender that polls (MemPort). */
    RetrySender *sender = nullptr;
    Callback onComplete;                 ///< May be empty for posted writes.

    /**
     * Demand-read latency sampling (DramCacheScheme::trackDemandRead).
     * Stored as plain fields instead of a wrapping closure so tracking
     * never forces the completion callback out of inline storage.
     */
    stats::Average *latencyStat = nullptr;
    Tick trackStart = 0;

    /** Fire and clear the completion callback. */
    void
    complete(Tick when)
    {
        if (latencyStat) {
            // Sample before the callback: downstream stat updates in
            // the callback must observe the same accumulation order
            // as the original closure-based wrapping.
            latencyStat->sample(static_cast<double>(when - trackStart));
            latencyStat = nullptr;
        }
        if (onComplete) {
            // Move out first: the callback may recycle this request.
            Callback cb = std::move(onComplete);
            cb(when);
        }
    }

  private:
    friend class MemRequestPtr;
    friend struct detail::RequestPool;
    template <typename F>
    friend MemRequestPtr makeRequest(Addr, bool, Category, MemSpace,
                                     Tick, F &&, int);

    std::uint32_t refs_ = 0;     ///< Intrusive count (thread-confined).
    MemRequest *poolNext_ = nullptr; ///< Freelist link while recycled.
};

namespace detail
{

/**
 * Thread-local request freelist. Recycled packets are returned here
 * and handed back out by makeRequest(); the chain is deleted at
 * thread exit so leak checkers stay quiet.
 */
struct RequestPool
{
    MemRequest *free = nullptr;
    std::uint64_t live = 0;     ///< Currently allocated (not in pool).
    std::uint64_t recycled = 0; ///< Freelist hits since thread start.

    ~RequestPool()
    {
        while (free) {
            MemRequest *next = free->poolNext_;
            delete free;
            free = next;
        }
    }
};

inline RequestPool &
requestPool()
{
    static thread_local RequestPool pool;
    return pool;
}

} // namespace detail

/**
 * Requests currently allocated (not parked in the freelist) on this
 * thread. A fully torn-down System leaves this where it found it;
 * the runner's retry path audits the balance after every attempt so
 * an abort-path leak cannot accumulate across in-process retries
 * (docs/RUNNER.md).
 */
inline std::uint64_t
liveRequestCount()
{
    return detail::requestPool().live;
}

/**
 * Intrusive refcounted handle to a pooled MemRequest. Mirrors the
 * std::shared_ptr surface the simulator uses (copy, move, ->, bool,
 * get), minus aliasing/weak refs, and without atomic refcount traffic.
 */
class MemRequestPtr
{
  public:
    MemRequestPtr() = default;
    MemRequestPtr(std::nullptr_t) {}

    explicit MemRequestPtr(MemRequest *p) : p_(p)
    {
        if (p_)
            ++p_->refs_;
    }

    MemRequestPtr(const MemRequestPtr &o) : p_(o.p_)
    {
        if (p_)
            ++p_->refs_;
    }

    MemRequestPtr(MemRequestPtr &&o) noexcept : p_(o.p_)
    {
        o.p_ = nullptr;
    }

    MemRequestPtr &
    operator=(const MemRequestPtr &o)
    {
        if (p_ != o.p_) {
            release();
            p_ = o.p_;
            if (p_)
                ++p_->refs_;
        }
        return *this;
    }

    MemRequestPtr &
    operator=(MemRequestPtr &&o) noexcept
    {
        if (this != &o) {
            release();
            p_ = o.p_;
            o.p_ = nullptr;
        }
        return *this;
    }

    ~MemRequestPtr() { release(); }

    MemRequest *operator->() const { return p_; }
    MemRequest &operator*() const { return *p_; }
    MemRequest *get() const { return p_; }
    explicit operator bool() const { return p_ != nullptr; }

    void
    reset()
    {
        release();
    }

    friend bool
    operator==(const MemRequestPtr &a, const MemRequestPtr &b)
    {
        return a.p_ == b.p_;
    }
    friend bool
    operator!=(const MemRequestPtr &a, const MemRequestPtr &b)
    {
        return a.p_ != b.p_;
    }
    friend bool
    operator==(const MemRequestPtr &a, std::nullptr_t)
    {
        return a.p_ == nullptr;
    }
    friend bool
    operator!=(const MemRequestPtr &a, std::nullptr_t)
    {
        return a.p_ != nullptr;
    }

  private:
    void
    release()
    {
        if (p_ && --p_->refs_ == 0) {
            detail::RequestPool &pool = detail::requestPool();
            // Drop captured state now, not at reuse time.
            p_->onComplete = nullptr;
            p_->latencyStat = nullptr;
            p_->poolNext_ = pool.free;
            pool.free = p_;
            --pool.live;
        }
        p_ = nullptr;
    }

    MemRequest *p_ = nullptr;
};

template <typename F>
MemRequestPtr
makeRequest(Addr addr, bool is_write, Category cat, MemSpace space,
            Tick now, F &&cb, int core_id)
{
    detail::RequestPool &pool = detail::requestPool();
    MemRequest *req = pool.free;
    if (req) {
        pool.free = req->poolNext_;
        req->poolNext_ = nullptr;
        ++pool.recycled;
    } else {
        req = new MemRequest;
    }
    ++pool.live;
    req->addr = addr;
    req->space = space;
    req->isWrite = is_write;
    req->category = cat;
    req->coreId = core_id;
    req->created = now;
    req->seqNo = 0;
    req->latencyTracked = false;
    req->fullLine = false;
    req->sender = nullptr;
    using Fn = std::decay_t<F>;
    if constexpr (std::is_same_v<Fn, std::nullptr_t> ||
                  std::is_same_v<Fn, MemRequest::Callback>) {
        req->onComplete = std::forward<F>(cb);
    } else {
        static_assert(std::is_invocable_v<Fn &, Tick>,
                      "a completion callback takes the completion tick");
        req->onComplete.emplace(std::forward<F>(cb));
    }
    req->latencyStat = nullptr;
    req->trackStart = 0;
    return MemRequestPtr(req);
}

/**
 * Downstream-facing port with a per-sender retry contract modelled on
 * gem5's sendRetryReq/recvReqRetry. tryAccess() returns false when
 * the component cannot accept the request this cycle (queue full). A
 * refused request names the component that will re-offer it
 * (MemRequest::sender, set where the request is built); the port then
 * owes that sender one RetrySender::recvRetry(), paid no later than
 * the first state change that could let it accept (RetryList). The
 * sender sleeps until then instead of re-offering every cycle. An
 * extra notification costs only a refused re-offer; a missing one
 * leaves the sender asleep. A port that forwards a request keeps its
 * sender name, so the port that finally refuses it owes the original
 * sender. A request with no sender belongs to a component that polls.
 */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /** Offer @p req; true if accepted (ownership of delivery taken). */
    virtual bool tryAccess(const MemRequestPtr &req) = 0;

    /**
     * Count @p n re-offers a sleeping sender did not make as
     * rejections, so backpressure statistics read exactly as if it had
     * re-offered every cycle. Ports that keep no such statistic
     * ignore it.
     */
    virtual void chargeRejects(std::uint64_t n) { (void)n; }
};

/**
 * The senders a port refused, each owed one notification. Holds at
 * most one entry per distinct sender and keeps its capacity across
 * payments, so once every sender has been refused once the set is
 * fixed-size and allocates nothing.
 */
class RetryList
{
  public:
    /** Owe @p req's sender a notification (none if it polls). */
    void
    owe(const MemRequest &req)
    {
        RetrySender *s = req.sender;
        if (!s)
            return;
        for (RetrySender *o : owed_)
            if (o == s)
                return;
        owed_.push_back(s);
    }

    /**
     * Notify every owed sender once. Call at the top of a state change
     * that could let the port accept, before it mutates anything: a
     * sender settles its slept-through cycles against the state that
     * refused it (the poke-before-mutate contract, simulation.hh).
     */
    void
    pay()
    {
        for (RetrySender *s : owed_)
            s->recvRetry();
        owed_.clear();
    }

  private:
    std::vector<RetrySender *> owed_;
};

} // namespace nomad

#endif // NOMAD_MEM_REQUEST_HH
