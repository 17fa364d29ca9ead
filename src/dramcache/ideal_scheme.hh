/**
 * @file
 * Ideal: an OS-managed DRAM cache with zero miss-handling cost
 * (Section IV-A).
 *
 * Tag miss handling, page copies, and evictions are free and instant;
 * demand traffic still pays real HBM/DDR4 timing. The front-end's
 * fill/writeback counters remain live, which is how the Table I RMHB
 * characterisation is measured ("required miss handling bandwidth ...
 * under an ideal OS-managed configuration").
 */

#ifndef NOMAD_DRAMCACHE_IDEAL_SCHEME_HH
#define NOMAD_DRAMCACHE_IDEAL_SCHEME_HH

#include <algorithm>
#include <memory>

#include "dramcache/os_managed_scheme.hh"

namespace nomad
{

/** Upper-bound OS-managed scheme. */
class IdealScheme : public OsManagedScheme
{
  public:
    IdealScheme(Simulation &sim, const std::string &name,
                DramDevice &off_package, DramDevice &on_package,
                PageTable &page_table,
                std::uint64_t num_frames = 1024)
        : OsManagedScheme(sim, name, off_package, on_package,
                          page_table)
    {
        backend_ = std::make_unique<FreeBackend>(sim);
        OsFrontEndParams fe;
        fe.numFrames = num_frames;
        fe.tagMgmtBaseCycles = 0;
        fe.globalMutex = false;
        fe.blocking = false;
        fe.evictionThreshold =
            std::max<std::uint64_t>(128, num_frames / 8);
        fe.evictionBatch = 64;
        fe.evictPerFrameCycles = 0;
        fe.daemonWakeLatency = 0;
        frontEnd_ = std::make_unique<OsFrontEnd>(sim, name + ".fe", fe,
                                                 page_table, *backend_);
    }

    bool
    tryAccess(const MemRequestPtr &req) override
    {
        trackDemandRead(req);
        if (req->space == MemSpace::OnPackage)
            return onPackage_->tryAccess(req);
        return offPackage_.tryAccess(req);
    }

    /** Pages copied in (each 4KB of would-be fill traffic). */
    std::uint64_t
    fillsCounted() const
    {
        return static_cast<std::uint64_t>(backend_->fills);
    }

  private:
    /** Accepts and completes every command instantly; counts fills. */
    class FreeBackend : public DataBackend
    {
      public:
        explicit FreeBackend(Simulation &sim) : sim_(sim) {}

        void
        offloadFill(PageNum, PageNum, std::uint32_t, AcceptCb accepted,
                    DoneCb done) override
        {
            ++fills;
            const Tick now = sim_.now();
            if (accepted)
                accepted(now);
            if (done)
                done(now);
        }

        void
        offloadWriteback(PageNum, PageNum, AcceptCb accepted,
                         DoneCb done) override
        {
            const Tick now = sim_.now();
            if (accepted)
                accepted(now);
            if (done)
                done(now);
        }

        std::uint64_t fills = 0;

      private:
        Simulation &sim_;
    };

    std::unique_ptr<FreeBackend> backend_;
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_IDEAL_SCHEME_HH
