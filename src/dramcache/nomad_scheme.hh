/**
 * @file
 * NOMAD: the non-blocking OS-managed DRAM cache (Section III).
 *
 * Front-end: the shared OsFrontEnd with the global
 * cache_frame_management_mutex and non-blocking resume (the thread
 * restarts as soon as the tag is updated and the fill command is
 * accepted). Back-end: one or more NomadBackEnd instances; with more
 * than one, commands and data-hit verification are distributed across
 * back-ends by low CFN bits (Section III-F / Fig 8b).
 */

#ifndef NOMAD_DRAMCACHE_NOMAD_SCHEME_HH
#define NOMAD_DRAMCACHE_NOMAD_SCHEME_HH

#include <deque>
#include <memory>
#include <vector>

#include "dramcache/nomad_backend.hh"
#include "dramcache/os_managed_scheme.hh"

namespace nomad
{

/** NOMAD construction parameters. */
struct NomadParams
{
    OsFrontEndParams frontEnd;
    NomadBackEndParams backEnd; ///< Per-back-end instance values.
    /** 1 = centralized (Fig 8a); >1 = distributed by CFN (Fig 8b). */
    std::uint32_t numBackEnds = 1;
    /**
     * DC controller request-queue depth: accesses whose PCSHR
     * sub-entries are momentarily full wait here instead of bouncing
     * back into (and head-of-line blocking) the LLC's request path.
     */
    std::uint32_t controllerQueueDepth = 64;
};

/** The paper's scheme. */
class NomadScheme : public OsManagedScheme
{
  public:
    NomadScheme(Simulation &sim, const std::string &name,
                const NomadParams &params, DramDevice &off_package,
                DramDevice &on_package, PageTable &page_table);

    bool tryAccess(const MemRequestPtr &req) override;

    /** Retry queued DC-controller accesses. */
    void tick();

    /** Skip-ahead hook: tick() only drains the controller queue. */
    Tick
    nextWorkTick() const
    {
        return pendingQ_.empty() ? MaxTick : Tick(0);
    }

    bool quiesced() const override;
    void checkDrained() const override;
    void snapshot(harden::Snapshot &snap) const override;
    void collectStats(SystemResults &r) const override;
    void samplerProbes(StatSampler &sampler) override;

    NomadBackEnd &backEnd(std::uint32_t idx = 0)
    {
        return *backEnds_[idx];
    }

    std::uint32_t numBackEnds() const
    {
        return static_cast<std::uint32_t>(backEnds_.size());
    }

    const NomadParams &params() const { return params_; }

  private:
    /** Routes front-end commands to the back-end owning the CFN. */
    class Router : public DataBackend
    {
      public:
        explicit Router(NomadScheme &owner) : owner_(owner) {}

        void
        offloadFill(PageNum cfn, PageNum pfn, std::uint32_t pri,
                    AcceptCb accepted, DoneCb done) override
        {
            owner_.backEndFor(cfn).sendCacheFill(
                cfn, pfn, pri, std::move(accepted), std::move(done));
        }

        void
        offloadWriteback(PageNum cfn, PageNum pfn, AcceptCb accepted,
                         DoneCb done) override
        {
            owner_.backEndFor(cfn).sendWriteback(
                cfn, pfn, std::move(accepted), std::move(done));
        }

      private:
        NomadScheme &owner_;
    };

    NomadBackEnd &
    backEndFor(PageNum cfn)
    {
        return *backEnds_[cfn % backEnds_.size()];
    }

    /** One attempt at servicing an on-package access; false = retry. */
    bool attemptAccess(const MemRequestPtr &req);

    NomadParams params_;
    std::unique_ptr<Router> router_;
    std::vector<std::unique_ptr<NomadBackEnd>> backEnds_;
    std::deque<MemRequestPtr> pendingQ_;
    /** Senders the full controller queue refused (the L3). */
    RetryList retry_;
    /** This scheme's clocked-component handle (for pokeClocked). */
    Simulation::ClockedHandle wakeIdx_ = Simulation::InvalidClockedHandle;
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_NOMAD_SCHEME_HH
