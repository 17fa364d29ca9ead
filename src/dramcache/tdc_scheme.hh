/**
 * @file
 * TDC: the blocking OS-managed baseline (Lee et al., ISCA'15; paper
 * Section IV-A).
 *
 * Implemented like the NOMAD front-end except for the blocking miss
 * handling: the application thread resumes only after the page copy
 * completes. Following the paper's conservative treatment, TDC locks
 * only the critical PTEs, so handlers run in parallel without the
 * global-mutex penalty, and up to one page copy per core can be in
 * flight (the OS thread executes its own copy).
 */

#ifndef NOMAD_DRAMCACHE_TDC_SCHEME_HH
#define NOMAD_DRAMCACHE_TDC_SCHEME_HH

#include <memory>

#include "dramcache/nomad_backend.hh"
#include "dramcache/os_managed_scheme.hh"

namespace nomad
{

/** TDC construction parameters. */
struct TdcParams
{
    OsFrontEndParams frontEnd;
    /** Concurrent OS page copies (typically the core count). */
    std::uint32_t copyEngines = 4;
    /**
     * Outstanding off-package reads per in-flight copy. TDC's page
     * copy is an OS software memcpy, which sustains far fewer
     * outstanding line fetches than NOMAD's back-end hardware engine
     * (the "efficient data management" the paper contrasts against).
     */
    std::uint32_t maxReadsInFlight = 4;
    /** Copy-retry timeout for the engine (docs/HARDENING.md); 0: off. */
    Tick copyTimeoutTicks = 0;
};

/** Blocking OS-managed DRAM cache. */
class TdcScheme : public OsManagedScheme
{
  public:
    TdcScheme(Simulation &sim, const std::string &name,
              const TdcParams &params, DramDevice &off_package,
              DramDevice &on_package, PageTable &page_table);

    bool
    tryAccess(const MemRequestPtr &req) override
    {
        // Coupled tag-data management: a tag hit guarantees a data hit,
        // so accesses forward without any verification step.
        trackDemandRead(req);
        if (req->space == MemSpace::OnPackage)
            return onPackage_->tryAccess(req);
        return offPackage_.tryAccess(req);
    }

    bool
    quiesced() const override
    {
        return OsManagedScheme::quiesced() && engine_->idle();
    }

    void
    checkDrained() const override
    {
        OsManagedScheme::checkDrained();
        engine_->checkDrained();
    }

    void
    snapshot(harden::Snapshot &snap) const override
    {
        OsManagedScheme::snapshot(snap);
        engine_->snapshot(snap);
    }

  private:
    /** Adapts the copy engine to the front-end's DataBackend. */
    class Adapter : public DataBackend
    {
      public:
        explicit Adapter(NomadBackEnd &engine) : engine_(engine) {}

        void
        offloadFill(PageNum cfn, PageNum pfn, std::uint32_t pri,
                    AcceptCb accepted, DoneCb done) override
        {
            engine_.sendCacheFill(cfn, pfn, pri, std::move(accepted),
                                  std::move(done));
        }

        void
        offloadWriteback(PageNum cfn, PageNum pfn, AcceptCb accepted,
                         DoneCb done) override
        {
            engine_.sendWriteback(cfn, pfn, std::move(accepted),
                                  std::move(done));
        }

      private:
        NomadBackEnd &engine_;
    };

    TdcParams params_;
    std::unique_ptr<NomadBackEnd> engine_;
    std::unique_ptr<Adapter> adapter_;
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_TDC_SCHEME_HH
