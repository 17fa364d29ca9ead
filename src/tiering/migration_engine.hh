/**
 * @file
 * The transactional page-migration engine.
 *
 * The tiering owner of a CopyEngine (src/dramcache/copy_engine.hh),
 * the same engine that pumps the NOMAD back-end's PCSHRs: N migration
 * slots, each streaming 64 sub-blocks from a source to a destination
 * tier. Promotions read the far tier through the FarTierLink and
 * write the near device; demotions (dirty pages only — clean demotion
 * never reaches the engine) stream the other way. This class keeps
 * what is tiering's own: the promotion and demotion indexes,
 * abort-on-write and cancellation.
 *
 * Non-blocking migration is the point: a demand write to a page with
 * an in-flight promotion does not stall — it aborts the copy via
 * noteFarWrite() (generation bump + full rewind, then refetch from
 * scratch). A migration aborted more than maxAbortRetries times is
 * cancelled: its fail callback fires and the page stays in the far
 * tier, which is exactly what the paper wants for write-hot pages.
 *
 * Fault injection (--fault-spec) applies to migration traffic the same
 * way it does to PCSHR copies: read responses can be dropped, delayed,
 * or swallowed by a stuck slot, and the copy timeout's rewindLost()
 * recovery re-issues what was lost.
 */

#ifndef NOMAD_TIERING_MIGRATION_ENGINE_HH
#define NOMAD_TIERING_MIGRATION_ENGINE_HH

#include <functional>
#include <vector>

#include "dram/device.hh"
#include "dramcache/copy_engine.hh"
#include "sim/flat_map.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "tiering/tiering.hh"

namespace nomad
{

namespace harden
{
class Snapshot;
} // namespace harden

/** The transactional migration engine (one per tiering scheme). */
class MigrationEngine : public SimObject, private CopyEngine::Owner
{
  public:
    using DoneCallback = std::function<void(Tick)>;
    using FailCallback = std::function<void(Tick)>;

    MigrationEngine(Simulation &sim, const std::string &name,
                    const MigrationEngineParams &params,
                    DramDevice &near, MemPort &far_link);

    /**
     * Start copying far page @p pfn into near frame @p cfn. @p done
     * fires when all sub-blocks are written near; @p failed fires if
     * the migration is cancelled (write-abort budget exhausted).
     * Returns false when no slot is free — the caller declines the
     * promotion instead of blocking.
     */
    bool startPromotion(PageNum pfn, PageNum cfn, DoneCallback done,
                        FailCallback failed);

    /** Start writing near frame @p cfn back to far page @p pfn. */
    bool startDemotion(PageNum cfn, PageNum pfn, DoneCallback done,
                       FailCallback failed);

    bool
    promotionInFlight(PageNum pfn) const
    {
        return promoIndex_.find(pfn) != nullptr;
    }

    bool
    demotionInFlight(PageNum cfn) const
    {
        return demoIndex_.find(cfn) != nullptr;
    }

    /**
     * A demand write reached far page @p pfn: abort an in-flight
     * promotion of that page. The transaction rewinds fully and
     * refetches; past the abort budget it is cancelled instead.
     */
    void noteFarWrite(PageNum pfn);

    /**
     * A demand write reached near frame @p cfn: cancel an in-flight
     * demotion writeback — the frame is dirty again, so the copy
     * streamed so far is stale and the frontend keeps the frame.
     */
    void noteNearWrite(PageNum cfn);

    std::uint32_t activeSlots() const { return engine_.activeSlots(); }

    void tick() { engine_.tick(); }
    bool idle() const { return engine_.activeSlots() == 0; }

    /** Skip-ahead hooks (CopyEngine): hardened engines never sleep. */
    Tick nextWorkTick() const { return engine_.nextWorkTick(); }
    void skipTicks(Tick n) { engine_.skipTicks(n); }

    const MigrationEngineParams &params() const { return params_; }

    /** Drain-time leak audit (throws under --check-invariants). */
    void checkDrained() const { engine_.checkDrained(); }

    /** Contribute slot state to a structured diagnostic snapshot. */
    void snapshot(harden::Snapshot &snap) const;

    // Statistics --------------------------------------------------------
    stats::Scalar promotionsStarted;
    stats::Scalar demotionsStarted;
    stats::Scalar promotionsDone;
    stats::Scalar demotionsDone;
    stats::Scalar writeAborts;     ///< Write-triggered rewind+refetch.
    stats::Scalar migrationsFailed; ///< Cancelled past the abort budget.
    stats::Scalar staleReadsDropped;
    stats::Average migrationLatency; ///< Start to completion (ticks).
    /** Copy-timeout abort-and-refetch events; registered only when a
     *  hardening context is attached (default stats stay unchanged). */
    stats::Scalar copyRetries;

  private:
    /** A migration's fields beyond the engine's CopySlot (whose
     *  writeback bit marks a demotion). */
    struct Migration
    {
        std::uint32_t abortRetries = 0;
        DoneCallback onDone;
        FailCallback onFail;
    };

    bool startMigration(bool is_demotion, PageNum pfn, PageNum cfn,
                        DoneCallback done, FailCallback failed);
    void cancelMigration(int slot);
    void releaseSlot(int slot);
    const char *spanName(bool is_demotion) const;

    // CopyEngine::Owner.
    void copyDone(int slot) override;

    MigrationEngineParams params_;
    CopyEngine engine_;
    std::vector<Migration> migrations_;
    FlatMap<int> promoIndex_; ///< pfn -> slot for in-flight promotions.
    FlatMap<int> demoIndex_;  ///< cfn -> slot for in-flight demotions.
};

} // namespace nomad

#endif // NOMAD_TIERING_MIGRATION_ENGINE_HH
