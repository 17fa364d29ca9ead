/**
 * @file
 * Shared machinery of the line-grain contemporary schemes (Alloy,
 * TDRAM).
 *
 * Both cache 64B lines in on-package DRAM with unified tag+data
 * accesses (one on-package burst serves tag check and data — no
 * separate metadata stream like TiD's) and handle misses through
 * non-blocking single-block MSHRs fetching from off-package memory,
 * with dirty victims streaming back read-on-package →
 * write-off-package. They differ only in associativity and in *when*
 * the off-package fetch of a miss starts: Alloy launches it in
 * parallel under a miss predictor (serializing behind the tag probe
 * on a mispredict), TDRAM after a fast on-die tag check (early miss
 * detection). That policy is the launchFetch()/retryLaunch() hook
 * pair; everything else lives here.
 */

#ifndef NOMAD_DRAMCACHE_LINE_CACHE_SCHEME_HH
#define NOMAD_DRAMCACHE_LINE_CACHE_SCHEME_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "dramcache/scheme.hh"
#include "harden/check.hh"
#include "harden/diag.hh"
#include "sim/flat_map.hh"

namespace nomad
{

/** Common line-cache geometry/queue parameters. */
struct LineCacheParams
{
    std::uint64_t capacityBytes = 64ULL * 1024 * 1024;
    std::uint32_t assoc = 1;
    std::uint32_t mshrs = 32;
    std::uint32_t targetsPerMshr = 8;
    std::uint32_t maxWritebackJobs = 64;
    /** DC controller request queue (absorbs transient backpressure). */
    std::uint32_t controllerQueueDepth = 64;
};

/** Base of the 64B-line contemporary schemes. */
class LineCacheScheme : public DramCacheScheme, public Clocked
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

    void tick() final;

    bool
    idle() const final
    {
        return activeMshrs_ == 0 && writebackJobs_.empty() &&
               pendingQ_.empty();
    }

    /**
     * Skip-ahead hook: an unblocked MSHR progresses purely through
     * its fetch-arrival callback, so tick() only matters while the
     * controller queue, a writeback job, or a blocked MSHR exists.
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

    const LineCacheParams &lineParams() const { return params_; }

    /** Valid MSHRs right now (occupancy gauge for the sampler). */
    std::uint32_t activeMshrs() const { return activeMshrs_; }

    // Statistics --------------------------------------------------------
    stats::Scalar dcHits;
    stats::Scalar dcMisses;
    stats::Scalar dcMissesMerged;
    stats::Scalar conflictEvictions; ///< Valid victims replaced.
    stats::Scalar dirtyWritebacks;
    stats::Scalar rejects;

  protected:
    /** Where a miss's line fetch currently stands. */
    enum class FetchState : std::uint8_t
    {
        PreFetch, ///< Launch policy pending (probe/delay not done).
        Fetch,    ///< Ready to issue; last issue hit backpressure.
        InFlight, ///< Off-package read outstanding.
        Install,  ///< Data arrived; on-package install write pending.
    };

    struct Mshr
    {
        bool valid = false;
        Addr lineAddr = 0;      ///< Off-package line-aligned address.
        std::uint64_t set = 0;
        std::uint32_t way = 0;
        bool makeDirty = false; ///< A merged write dirties the line.
        bool arrived = false;   ///< The line data landed (serveable).
        bool blocked = false;   ///< Needs the per-tick retry pump.
        FetchState state = FetchState::PreFetch;
        std::uint64_t generation = 0;
        std::vector<MemRequestPtr> targets;
    };

    /**
     * Start the off-package fetch for a fresh miss. The default
     * issues it immediately; subclasses interpose their launch
     * policy (predictor / tag-check delay) and eventually call
     * issueFetch().
     */
    virtual void launchFetch(std::size_t slot) { issueFetch(slot); }

    /**
     * Retry a launch that blocked in FetchState::PreFetch (only
     * reachable when a subclass's launch policy can backpressure).
     */
    virtual void retryLaunch(std::size_t slot) { issueFetch(slot); }

    /**
     * A tag-hit demand access was accepted on-package (called before
     * recordOutcome). Subclass hook for hit-path side traffic.
     */
    virtual void onHitAccess(Addr line_addr) { (void)line_addr; }

    /** Observe the access outcome (predictor training). */
    virtual void recordOutcome(bool hit) { (void)hit; }

    /** Issue (or re-issue after backpressure) the off-package read. */
    void issueFetch(std::size_t slot);

    /** Mark @p m blocked/unblocked, keeping the skip-ahead count. */
    void setBlocked(Mshr &m, bool blocked);

    Addr
    hbmAddrOf(std::uint64_t set, std::uint32_t way) const
    {
        return (set * params_.assoc + way) *
               static_cast<Addr>(BlockBytes);
    }

    std::uint64_t
    setOf(Addr line_addr) const
    {
        return (line_addr / BlockBytes) % numSets_;
    }

    std::uint64_t tagOf(Addr line_addr) const
    {
        return line_addr / BlockBytes;
    }

    struct TagEntry
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0; ///< Off-package line number.
        std::uint64_t lastUse = 0;
    };

    TagEntry &
    entry(std::uint64_t set, std::uint32_t way)
    {
        return tags_[set * params_.assoc + way];
    }

    LineCacheParams params_;
    std::uint64_t numSets_ = 0;
    std::vector<Mshr> mshrs_;
    /** This scheme's clocked-component handle (for pokeClocked).
     *  Protected: subclass launch policies running from delayed
     *  callbacks must poke before touching MSHR state. */
    Simulation::ClockedHandle wakeIdx_ = Simulation::InvalidClockedHandle;

  private:
    struct WritebackJob
    {
        std::uint64_t id = 0;
        Addr hbmLineAddr = 0;
        Addr ddrLineAddr = 0;
        bool readInFlight = false;
        bool readDone = false;
    };

    bool attemptAccess(const MemRequestPtr &req);
    bool serviceHit(const MemRequestPtr &req, std::uint64_t set,
                    std::uint32_t way);
    Mshr *findMshr(Addr line_addr);
    Mshr *allocMshr();
    void onFetchArrive(std::size_t slot, std::uint64_t gen, Tick when);
    void tryInstall(std::size_t slot);
    void releaseMshr(std::size_t slot);
    void pumpWriteback(WritebackJob &job);
    WritebackJob *findWriteback(std::uint64_t id);

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
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_LINE_CACHE_SCHEME_HH
