/**
 * @file
 * Banshee: the SW/HW page-granularity comparison scheme.
 *
 * Models Banshee (MICRO'17): a page cache whose residency is tracked
 * in the PTE/TLB (Pte::cached + frame repoint, exactly the mapping
 * path this repo's OS-managed schemes use) so hits pay zero tag
 * traffic, and whose content is managed by *frequency-based
 * replacement*: a page is cached only once its access-frequency
 * counter (Pte::heat, shared arithmetic in vm/heat.hh) crosses a
 * threshold, and it only replaces a victim whose counter is lower.
 * Recaching (fill) bandwidth is capped by a deterministic
 * window-budget throttle — Banshee's bandwidth-aware replacement —
 * with fills over budget counted and deferred rather than queued.
 * Page copies ride the NOMAD back-end used as a plain copy engine;
 * PTEs repoint only at fill commit, so demand traffic never observes
 * a half-filled frame, and a write racing the copy aborts the fill
 * (the cached copy would be stale).
 */

#ifndef NOMAD_DRAMCACHE_BANSHEE_SCHEME_HH
#define NOMAD_DRAMCACHE_BANSHEE_SCHEME_HH

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dramcache/nomad_backend.hh"
#include "dramcache/scheme.hh"

namespace nomad
{

/** Banshee construction parameters. */
struct BansheeParams
{
    /** Page frames in the cache; 0 = SystemConfig::dcFrames. */
    std::uint64_t numFrames = 0;
    /** Frequency a page must reach before it is cached. */
    std::uint32_t cacheThreshold = 8;
    Tick heatEpochTicks = 200'000;
    std::uint32_t heatDecayShift = 1;
    /** Fill-throttle window length in ticks. */
    Tick fillWindowTicks = 50'000;
    /** Fill bytes admitted per window (bandwidth-aware replacement). */
    std::uint64_t fillBudgetBytes = 8 * PageBytes;
    /** Victim candidates examined per fill attempt (clock hand). */
    std::uint32_t replaceScanLimit = 8;
    /** The page-copy engine (PCSHRs reused as plain copy slots). */
    NomadBackEndParams backEnd;
};

/** Frequency-managed page cache (SchemeKind::Banshee). */
class BansheeScheme : public DramCacheScheme
{
  public:
    BansheeScheme(Simulation &sim, const std::string &name,
                  const BansheeParams &params, DramDevice &off_package,
                  DramDevice &on_package, PageTable &page_table);

    void notifyStore(Pte *pte) override;
    void tlbInserted(int core, PageNum vpn, const Pte &pte) override;
    void tlbEvicted(int core, PageNum vpn, const Pte &pte) override;

    bool tryAccess(const MemRequestPtr &req) override;

    bool
    quiesced() const override
    {
        return backEnd_->idle() && fillsInFlight_.empty() &&
               evictingFrames_ == 0;
    }

    void checkDrained() const override;
    void snapshot(harden::Snapshot &snap) const override;

    void
    setShootdownHook(ShootdownHook hook) override
    {
        shootdownHook_ = std::move(hook);
    }

    void collectStats(SystemResults &r) const override;
    void samplerProbes(StatSampler &sampler) override;

    const BansheeParams &params() const { return params_; }
    NomadBackEnd &backEnd() { return *backEnd_; }
    std::uint64_t freeFrames() const { return freeQ_.size(); }
    std::uint64_t numFrames() const { return frames_.size(); }

    // Statistics --------------------------------------------------------
    stats::Scalar fillsCommitted;  ///< Pages now cache-resident.
    stats::Scalar fillsAborted;    ///< Cancelled by a racing write.
    stats::Scalar fillsThrottled;  ///< Deferred by the window budget.
    stats::Scalar fillsDeclinedNoVictim; ///< No frame, no cold victim.
    stats::Scalar evictionsClean;  ///< Metadata-only reclaims.
    stats::Scalar evictionsDirty;  ///< Paid a page writeback.
    stats::Scalar evictionAborts;  ///< Writeback raced by a write.
    stats::Scalar tlbShootdowns;
    stats::Scalar sramFlushes;

  private:
    /** One cache frame. */
    struct Frame
    {
        bool valid = false;    ///< Holds a committed fill.
        bool filling = false;  ///< Claimed by an in-flight fill.
        bool evicting = false; ///< Dirty writeback in flight.
        bool dirty = false;    ///< Differs from the far copy.
        PageNum pfn = InvalidPage;
        /** Bit i set while core i's TLB holds this translation. */
        std::uint64_t tlbDirectory = 0;
    };

    /** One in-flight fill, keyed by PFN. */
    struct FillCtx
    {
        PageNum cfn = InvalidPage;
        bool wroteDuring = false; ///< Copy went stale; abort at done.
    };

    Pte *firstPte(PageNum pfn);
    void onFarAccess(PageNum pfn, bool is_write);
    void noteNearWrite(PageNum cfn);
    void noteFarWrite(PageNum pfn);
    bool overFillBudget();
    void tryFill(PageNum pfn, std::uint32_t heat);
    void finishFill(PageNum pfn);
    bool acquireFrame(std::uint32_t incoming_heat, PageNum &cfn_out);
    void reclaimFrame(PageNum cfn);
    void finishEviction(PageNum cfn);
    void shootdown(Frame &frame);

    BansheeParams params_;
    ShootdownHook shootdownHook_;
    std::unique_ptr<NomadBackEnd> backEnd_;

    std::vector<Frame> frames_;
    std::deque<PageNum> freeQ_;
    /** TLB directories of uncached pages, keyed by PFN; moved
     *  into/out of the frame directory across fill/eviction. */
    std::unordered_map<PageNum, std::uint64_t> farDir_;
    std::unordered_map<PageNum, FillCtx> fillsInFlight_;
    std::uint64_t evictingFrames_ = 0;
    PageNum clockHand_ = 0;
    /** Fill-throttle accounting (window index + bytes admitted). */
    std::uint64_t curWindow_ = 0;
    std::uint64_t windowBytesUsed_ = 0;
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_BANSHEE_SCHEME_HH
