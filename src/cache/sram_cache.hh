/**
 * @file
 * A non-blocking, write-back, write-allocate set-associative SRAM cache.
 *
 * Outstanding misses are tracked in MSHRs (Kroft-style lockup-free
 * operation): multiple requests to the same block merge into one fill;
 * independent misses proceed in parallel until the MSHR pool drains.
 * Lines are tagged with (address space, block address) so OS-managed
 * DRAM cache schemes can cache both physical-frame (off-package) and
 * cache-frame (on-package) addresses simultaneously.
 */

#ifndef NOMAD_CACHE_SRAM_CACHE_HH
#define NOMAD_CACHE_SRAM_CACHE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/flat_map.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace nomad
{

/** Construction parameters of one cache level. */
struct CacheParams
{
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    Tick hitLatency = 4;          ///< Lookup-to-data CPU cycles.
    std::uint32_t mshrs = 16;     ///< Outstanding distinct misses.
    std::uint32_t targetsPerMshr = 8;
};

/** One level of SRAM cache. */
class SramCache : public SimObject, public MemPort, public RetrySender
{
  public:
    SramCache(Simulation &sim, const std::string &name,
              const CacheParams &params, MemPort *downstream);

    /**
     * Service a request. Returns false when the cache cannot take it
     * this cycle (MSHRs or merge targets exhausted); the cache then
     * owes the request's sender a notification (MemPort), paid from
     * the next handleFill(), invalidateRange() or full-line install:
     * only those free an MSHR, detach one from its block, or put a
     * refused block in the cache.
     */
    bool tryAccess(const MemRequestPtr &req) override;

    /** Elided re-offers of a sleeping sender count as rejects. */
    void
    chargeRejects(std::uint64_t n) override
    {
        rejects += static_cast<double>(n);
    }

    /** Offer the downstream send queue (fills, writebacks) in order. */
    void tick();

    /**
     * Skip-ahead hooks: tick() only offers the send queue, so an empty
     * queue means nothing to do until some access path refills it
     * (always from another component's tick or an event), and a
     * refused head sleeps until the downstream port's recvRetry().
     * Every cycle slept on a refused head would have been one refused
     * re-offer, so skipTicks() charges the downstream one reject per
     * elided cycle.
     */
    Tick
    nextWorkTick() const
    {
        return sendQ_.empty() || sendBlocked_ ? MaxTick : Tick(0);
    }

    void
    skipTicks(Tick n)
    {
        if (sendBlocked_)
            downstream_->chargeRejects(n);
    }

    /** The downstream port may now take the refused send-queue head. */
    void recvRetry() override;

    bool
    idle() const
    {
        return activeMshrs_ == 0 && sendQ_.empty();
    }

    /**
     * Invalidate every line of @p space in [base, base+len); dirty lines
     * are written back downstream first (posted). Pending fills into the
     * range are marked discard-on-arrival. Returns the number of lines
     * invalidated. Used by flush_cache_range() on DC frame eviction.
     */
    std::uint32_t invalidateRange(MemSpace space, Addr base,
                                  std::uint64_t len);

    /** True when the block currently resides in the cache. */
    bool isCached(MemSpace space, Addr addr) const;

    /** Fills and writebacks the downstream port has not yet taken. */
    std::size_t sendQueueSize() const { return sendQ_.size(); }

    const CacheParams &params() const { return params_; }

    // Statistics --------------------------------------------------------
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar missesMerged;   ///< Requests merged into a live MSHR.
    stats::Scalar writebacks;
    stats::Scalar rejects;        ///< Refused offers (one per cycle).
    stats::Scalar invalidations;  ///< Lines killed by invalidateRange.
    stats::Average missLatency;   ///< Allocate-to-fill (CPU ticks).

  private:
    struct Mshr
    {
        bool valid = false;
        bool discard = false;    ///< Range-invalidated while in flight.
        bool fillIssued = false;
        bool wantDirty = false;  ///< A merged write marks the fill dirty.
        MemSpace space = MemSpace::OffPackage;
        Addr block = 0;
        Tick allocated = 0;
        std::vector<MemRequestPtr> targets;
    };

    static constexpr std::size_t NoLine = ~std::size_t(0);
    /** Index into the line arrays of (space, block), or NoLine. */
    std::size_t findLine(MemSpace space, Addr block) const;
    /** Make @p line its set's newest; returns its new index. */
    std::size_t moveToFront(std::size_t line);
    /** Drop @p line, closing the gap so invalid ways stay last. */
    void removeLine(std::size_t line);
    Mshr *findMshr(MemSpace space, Addr block);
    Mshr *allocMshr(MemSpace space, Addr block);
    void handleFill(Mshr *mshr, Tick when);
    void installLine(MemSpace space, Addr block, bool dirty);
    void pushDownstream(const MemRequestPtr &req);
    void issueFill(Mshr *mshr);

    std::size_t
    setIndex(Addr block) const
    {
        return static_cast<std::size_t>((block >> BlockShift) % numSets_);
    }

    /**
     * (space, block) packed into one word so way probes compare a
     * single 64-bit key. Blocks are 64B-aligned, leaving the low six
     * bits free: bit 0 flags a valid entry, bit 1 carries the space.
     * 0 therefore never collides with a live line.
     */
    static Addr
    keyOf(MemSpace space, Addr block)
    {
        return block | (static_cast<Addr>(space) << 1) | 1;
    }

    static Addr blockOfKey(Addr key) { return blockAlign(key); }

    static MemSpace
    spaceOfKey(Addr key)
    {
        return static_cast<MemSpace>((key >> 1) & 1);
    }

    CacheParams params_;
    MemPort *downstream_;
    std::size_t numSets_;
    /**
     * Line state as parallel arrays, numSets_ x assoc, row-major. The
     * packed identity (keyOf, 0 = invalid) is what way probes scan:
     * one host cache line per set at assoc 8. A set's ways hold its
     * lines in LRU order, most recently hit or filled first, invalid
     * ways last, so the victim is always the last way and no per-line
     * age is stored.
     */
    std::vector<Addr> lineKeys_;
    std::vector<std::uint8_t> lineDirty_;
    std::vector<Mshr> mshrs_;
    /** keyOf -> MSHR slot for valid, non-discarded MSHRs. */
    FlatMap<std::uint32_t> mshrIndex_;
    std::uint32_t activeMshrs_ = 0;

    /** Downstream requests awaiting acceptance (fills, writebacks). */
    std::deque<MemRequestPtr> sendQ_;
    /** The downstream port refused the send-queue head and owes a
     *  retry notification. */
    bool sendBlocked_ = false;
    /** Senders this cache refused. */
    RetryList retry_;
    /** This cache's clocked-component handle (for pokeClocked). */
    Simulation::ClockedHandle wakeIdx_ = Simulation::InvalidClockedHandle;
};

} // namespace nomad

#endif // NOMAD_CACHE_SRAM_CACHE_HH
