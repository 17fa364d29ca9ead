/**
 * @file
 * The tiering frontend: hotness sampling, promotion policy, and the
 * demotion daemon (the peer of src/dramcache/os_frontend.hh).
 *
 * Hotness is a Banshee-style frequency counter stored in the PTE
 * (Pte::heat), bumped on every demand access that reaches the far
 * tier and decayed lazily per epoch. A page crossing the promotion
 * threshold is copied into a free near frame by the migration engine
 * — *non-exclusively*: the far copy remains valid, so demoting a
 * clean page later costs only a PTE repoint (no copy traffic at all).
 * Only dirty frames pay a writeback on demotion.
 *
 * The demotion daemon wakes when free frames fall below a watermark,
 * max(8, nearFrames/8) capped at nearFrames, and reclaims frames FIFO
 * (clock hand), skipping frames that are still hot or TLB-resident
 * (shootdown avoidance, same policy as the DRAM-cache eviction
 * daemon). Nothing on this path ever blocks a core: promotions with
 * no free frame or no engine slot are declined and counted, never
 * queued.
 */

#ifndef NOMAD_TIERING_TIERING_FRONTEND_HH
#define NOMAD_TIERING_TIERING_FRONTEND_HH

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "tiering/migration_engine.hh"
#include "tiering/tiering.hh"
#include "vm/page_table.hh"

namespace nomad
{

namespace harden
{
class Snapshot;
} // namespace harden

/** Frontend policy + near-frame pool (one per tiering scheme). */
class TieringFrontEnd : public SimObject
{
  public:
    using FlushHook =
        std::function<std::uint32_t(MemSpace, Addr, std::uint64_t)>;
    using ShootdownHook = std::function<void(int core, PageNum vpn)>;

    TieringFrontEnd(Simulation &sim, const std::string &name,
                    const TieringParams &params, PageTable &page_table,
                    MigrationEngine &engine);

    /**
     * A demand access was accepted by the far tier: bump the page's
     * frequency counter, abort an in-flight promotion if this is a
     * write, and trigger a promotion once the threshold is crossed.
     */
    void onFarAccess(PageNum pfn, bool is_write);

    /** A demand write was accepted by near frame @p cfn. */
    void noteNearWrite(PageNum cfn);

    /** A store retired to @p pte (dirty bits + migration aborts). */
    void noteStore(Pte *pte);

    /** TLB directory upkeep (promotion/demotion shootdown policy). */
    void tlbInserted(int core, const Pte &pte);
    void tlbEvicted(int core, const Pte &pte);

    void setFlushHook(FlushHook hook) { flushHook_ = std::move(hook); }

    void
    setShootdownHook(ShootdownHook hook)
    {
        shootdownHook_ = std::move(hook);
    }

    std::uint64_t freeFrames() const { return freeQ_.size(); }
    std::uint64_t numFrames() const { return frames_.size(); }
    bool daemonActive() const { return daemonActive_; }

    /** No in-flight migration, no scheduled daemon pass. */
    bool quiesced() const { return engine_.idle() && !daemonActive_; }

    /** Drain-time leak audit (throws under --check-invariants). */
    void checkDrained() const;

    /** Contribute frame-pool state to a diagnostic snapshot. */
    void snapshot(harden::Snapshot &snap) const;

    const TieringParams &params() const { return params_; }

    // Statistics --------------------------------------------------------
    stats::Scalar promotionsCommitted; ///< Pages now resident near.
    stats::Scalar promotionsDeclinedNoFrame;
    stats::Scalar promotionsDeclinedEngine;
    stats::Scalar promotionsFailed; ///< Cancelled by the write-abort budget.
    stats::Scalar demotionsClean;   ///< Metadata-only (shadow copy valid).
    stats::Scalar demotionsDirty;   ///< Paid a writeback first.
    stats::Scalar demotionAborts;   ///< Writeback cancelled by a write.
    stats::Scalar demotionsSkippedHot;
    stats::Scalar demotionsSkippedTlb;
    stats::Scalar tlbShootdowns;
    stats::Scalar sramFlushes;
    stats::Scalar daemonPasses;

  private:
    /** One near-tier frame. */
    struct NearFrame
    {
        bool valid = false;    ///< Holds a committed promotion.
        bool reserved = false; ///< Claimed by an in-flight promotion.
        bool demoting = false; ///< Dirty writeback in flight.
        bool dirty = false;    ///< Differs from the far shadow copy.
        PageNum pfn = InvalidPage;
        /** Bit i set while core i's TLB holds this frame's translation. */
        std::uint64_t tlbDirectory = 0;
    };

    std::uint32_t bumpHeat(Pte &pte);
    std::uint32_t currentHeat(const Pte &pte) const;
    Pte *firstPte(PageNum pfn);
    void tryPromote(PageNum pfn);
    void commitPromotion(PageNum pfn, PageNum cfn);
    void failPromotion(PageNum pfn, PageNum cfn);
    void commitDemotion(PageNum cfn);
    void finishDirtyDemotion(PageNum cfn);
    void cancelDemotion(PageNum cfn);
    void wakeDaemon(Tick delay);
    void daemonPass();
    void shootdown(NearFrame &frame);
    bool belowWatermark() const { return freeQ_.size() < watermark_; }

    TieringParams params_;
    PageTable &pageTable_;
    MigrationEngine &engine_;
    FlushHook flushHook_;
    ShootdownHook shootdownHook_;

    std::vector<NearFrame> frames_;
    std::deque<PageNum> freeQ_;
    /** TLB directories of far-resident pages, keyed by PFN; moved
     *  into/out of the frame directory across promotion/demotion. */
    std::unordered_map<PageNum, std::uint64_t> farDir_;
    std::uint64_t watermark_ = 0;
    PageNum clockHand_ = 0;
    bool daemonActive_ = false;
};

} // namespace nomad

#endif // NOMAD_TIERING_TIERING_FRONTEND_HH
