/**
 * @file
 * The one tags-in-DRAM controller: TiD, Alloy and TDRAM.
 *
 * All three cache lines of off-package memory in on-package DRAM, with
 * the tags stored there too. They share this controller: a DC
 * controller queue in front of a set-associative tag array with LRU
 * victim choice, non-blocking MSHRs that fill a line from off-package
 * memory critical block first (then sequentially, under a cap on reads
 * in flight) and drain each arriving block into an on-package install
 * write, and writeback jobs that stream dirty victims back
 * read-on-package → write-off-package. A line's fill and a victim's
 * writeback are both a CopyTransaction over the line's blocks; a 64B
 * line is the one-block case.
 *
 * The designs differ only in geometry and in hooks:
 *  - TiD (tid_scheme.hh): 1KB 4-way lines and separate tag-read and
 *    metadata-write bursts on every access (onHitAccess/onMissAlloc).
 *  - Alloy (alloy_scheme.hh): direct-mapped 64B lines read tag and
 *    data in one burst; a miss predictor decides whether the fill
 *    launches at once or serializes behind the on-package probe.
 *  - TDRAM (tdram_scheme.hh): set-associative 64B lines; the fill
 *    launches after a short on-die tag check.
 * The launch policy is the launchFetch()/retryLaunch() hook pair; it
 * ends in startFill().
 */

#ifndef NOMAD_DRAMCACHE_LINE_CACHE_SCHEME_HH
#define NOMAD_DRAMCACHE_LINE_CACHE_SCHEME_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "dramcache/copy_transaction.hh"
#include "dramcache/scheme.hh"
#include "harden/check.hh"
#include "harden/diag.hh"
#include "sim/flat_map.hh"

namespace nomad
{

/** Tags-in-DRAM controller geometry, fill and queue parameters. */
struct LineCacheParams
{
    std::uint64_t capacityBytes = 64ULL * 1024 * 1024;
    /** A multiple of 64B, at most 64 blocks (CopyTransaction). */
    std::uint32_t lineBytes = BlockBytes;
    std::uint32_t assoc = 1;
    std::uint32_t mshrs = 32;
    std::uint32_t targetsPerMshr = 8;
    /** Reads in flight per line fill and per writeback job. */
    std::uint32_t maxReadsInFlight = 1;
    std::uint32_t maxWritebackJobs = 64;
    /** DC controller request queue (absorbs transient backpressure). */
    std::uint32_t controllerQueueDepth = 64;
};

/** Tags-in-DRAM line cache controller. */
class LineCacheScheme : public DramCacheScheme
{
  public:
    LineCacheScheme(Simulation &sim, const std::string &name,
                    const LineCacheParams &params,
                    DramDevice &off_package, DramDevice &on_package,
                    PageTable &page_table);

    bool tryAccess(const MemRequestPtr &req) override;

    /** Elided re-offers of a sleeping sender count as rejects. */
    void
    chargeRejects(std::uint64_t n) override
    {
        rejects += static_cast<double>(n);
    }

    void tick();

    bool
    idle() const
    {
        return activeMshrs_ == 0 && writebackJobs_.empty() &&
               pendingQ_.empty();
    }

    /**
     * Skip-ahead hook: tick() pumps the controller queue, blocked
     * MSHRs, and writeback jobs; with none of those present every
     * in-flight fill progresses purely through arrival callbacks.
     */
    Tick
    nextWorkTick() const
    {
        return (pendingQ_.empty() && writebackJobs_.empty() &&
                blockedMshrs_ == 0)
                   ? MaxTick
                   : Tick(0);
    }

    bool quiesced() const override { return idle(); }
    void checkDrained() const override;
    void snapshot(harden::Snapshot &snap) const override;
    void collectStats(SystemResults &r) const override;
    void samplerProbes(StatSampler &sampler) override;

    // Statistics --------------------------------------------------------
    stats::Scalar dcHits;
    stats::Scalar dcMisses;
    stats::Scalar dcMissesMerged;
    stats::Scalar conflictEvictions; ///< Valid victims replaced.
    stats::Scalar dirtyWritebacks;
    stats::Scalar rejects;

  protected:
    struct Target
    {
        MemRequestPtr req;
        std::uint32_t blockIdx = 0;
    };

    struct Mshr
    {
        bool valid = false;
        /** The launch policy started the fill (startFill()). */
        bool launched = false;
        /**
         * The last launch or pump hit DRAM-queue backpressure. Only
         * blocked MSHRs need the per-tick retry pump: an unblocked
         * MSHR makes progress purely through arrival callbacks, so
         * pumping it again before one arrives is a guaranteed no-op.
         */
        bool blocked = false;
        Addr lineAddr = 0;        ///< Off-package line-aligned address.
        std::uint64_t set = 0;
        std::uint32_t way = 0;
        std::uint32_t priIdx = 0; ///< Critical (demanded) block.
        CopyTransaction fill;
        std::uint64_t traceId = 0; ///< Lifecycle span (0 = untraced).
        Tick startedAt = 0;
        std::vector<Target> targets;
    };

    /**
     * Start the off-package fetch for a fresh miss. The default
     * starts the fill at once; subclasses interpose their launch
     * policy (predictor / tag-check delay) and eventually call
     * startFill().
     */
    virtual void launchFetch(std::size_t slot) { startFill(slot); }

    /**
     * Retry a launch that blocked before startFill() (only reachable
     * when a subclass's launch policy can backpressure).
     */
    virtual void retryLaunch(std::size_t slot) { startFill(slot); }

    /**
     * A tag-hit demand access was accepted on-package (called before
     * recordOutcome). Subclass hook for hit-path side traffic.
     */
    virtual void
    onHitAccess(Addr line_addr, std::uint64_t set)
    {
        (void)line_addr;
        (void)set;
    }

    /** A miss took an MSHR; called before the victim is chosen. */
    virtual void onMissAlloc(std::uint64_t set) { (void)set; }

    /** Observe the access outcome (predictor training). */
    virtual void recordOutcome(bool hit) { (void)hit; }

    /** Launch the line fill of MSHR @p slot and pump it. */
    void startFill(std::size_t slot);

    /** A delayed launch landed: poke, then start the fill unless the
     *  MSHR was released since generation @p gen. */
    void resumeLaunch(std::size_t slot, std::uint64_t gen);

    /** Mark @p m blocked/unblocked, keeping the skip-ahead count. */
    void setBlocked(Mshr &m, bool blocked);

    Addr
    hbmAddrOf(std::uint64_t set, std::uint32_t way,
              std::uint32_t block_idx = 0) const
    {
        return (set * params_.assoc + way) * params_.lineBytes +
               static_cast<Addr>(block_idx) * BlockBytes;
    }

    LineCacheParams params_;
    std::vector<Mshr> mshrs_;

  private:
    struct TagEntry
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0; ///< Off-package line number.
        std::uint64_t lastUse = 0;
    };

    struct WritebackJob
    {
        std::uint64_t id = 0;
        Addr hbmLineAddr = 0;
        Addr ddrLineAddr = 0;
        CopyTransaction copy;
    };

    std::uint64_t
    setOf(Addr line_addr) const
    {
        return (line_addr / params_.lineBytes) % numSets_;
    }

    TagEntry &
    entry(std::uint64_t set, std::uint32_t way)
    {
        return tags_[set * params_.assoc + way];
    }

    /** The first block not yet read in @p r_vec, from @p start on. */
    std::uint32_t firstUnread(std::uint64_t r_vec,
                              std::uint32_t start) const;

    bool attemptAccess(const MemRequestPtr &req);
    bool serviceHit(const MemRequestPtr &req, std::uint64_t set,
                    std::uint32_t way);
    Mshr *findMshr(Addr line_addr);
    Mshr *allocMshr();
    void traceMshrCounter();
    void pumpMshr(std::size_t slot);
    void onFillBlock(std::size_t slot, std::uint64_t gen,
                     std::uint32_t idx, Tick when);
    void pumpWriteback(WritebackJob &job);
    WritebackJob *findWriteback(std::uint64_t id);

    std::uint64_t numSets_ = 0;
    std::uint32_t blocksPerLine_ = 0;
    /** Every block of a line; CopyTransaction::copyComplete() means
     *  all 64 blocks of a page. */
    std::uint64_t allBlocks_ = 0;
    std::vector<TagEntry> tags_;
    /** lineAddr -> MSHR slot for valid MSHRs (open-addressed CAM). */
    FlatMap<std::uint32_t> mshrIndex_;
    std::uint32_t activeMshrs_ = 0;
    /** MSHRs with Mshr::blocked set (skip-ahead gate). */
    std::uint32_t blockedMshrs_ = 0;
    std::vector<WritebackJob> writebackJobs_;
    std::uint64_t nextWritebackId_ = 1;
    std::deque<MemRequestPtr> pendingQ_;
    /** Senders the full controller queue refused (the L3). */
    RetryList retry_;
    std::uint64_t useCounter_ = 0;
    std::string mshrCounterName_; ///< Cached trace counter name.
    /** This scheme's clocked-component handle (for pokeClocked). */
    Simulation::ClockedHandle wakeIdx_ = Simulation::InvalidClockedHandle;
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_LINE_CACHE_SCHEME_HH
