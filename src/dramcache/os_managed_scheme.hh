/**
 * @file
 * Common behaviour of the OS-managed schemes (TDC, NOMAD, Ideal).
 *
 * All three store DC tags in PTEs and read them from TLBs, manage
 * frames through the shared OsFrontEnd, and translate cached pages into
 * the on-package address space. They differ only in the front-end
 * latency/blocking parameters and the data back-end.
 */

#ifndef NOMAD_DRAMCACHE_OS_MANAGED_SCHEME_HH
#define NOMAD_DRAMCACHE_OS_MANAGED_SCHEME_HH

#include <memory>

#include "dramcache/os_frontend.hh"
#include "dramcache/scheme.hh"
#include "dramcache/scheme_results.hh"
#include "harden/check.hh"
#include "harden/diag.hh"
#include "sim/stat_sampler.hh"

namespace nomad
{

/** Base of TDC, NOMAD and Ideal. */
class OsManagedScheme : public DramCacheScheme
{
  public:
    OsManagedScheme(Simulation &sim, const std::string &name,
                    DramDevice &off_package, DramDevice &on_package,
                    PageTable &page_table)
        : DramCacheScheme(sim, name, off_package, &on_package,
                          page_table)
    {}

    void
    finishWalk(int core, Addr vaddr, Pte *pte, WalkDone done) override
    {
        if (pte->isDcTagMiss()) {
            frontEnd_->handleTagMiss(core, pageOf(vaddr), pte,
                                     subBlockOf(vaddr), std::move(done));
            return;
        }
        done(curTick());
    }

    void
    notifyStore(Pte *pte) override
    {
        frontEnd_->noteStore(pte);
    }

    void
    tlbInserted(int core, PageNum vpn, const Pte &pte) override
    {
        (void)vpn;
        frontEnd_->tlbInserted(core, pte);
    }

    void
    tlbEvicted(int core, PageNum vpn, const Pte &pte) override
    {
        (void)vpn;
        frontEnd_->tlbEvicted(core, pte);
    }

    void
    setFlushHook(FlushHook hook) override
    {
        DramCacheScheme::setFlushHook(std::move(hook));
        frontEnd_->setFlushHook(flushHook_);
    }

    bool
    quiesced() const override
    {
        return !frontEnd_->mutexHeld() &&
               frontEnd_->mutexQueueDepth() == 0;
    }

    void
    checkDrained() const override
    {
        NOMAD_CHECK(*this, !frontEnd_->mutexHeld(),
                    "cache_frame_management_mutex still held at drain");
        NOMAD_CHECK(*this, frontEnd_->mutexQueueDepth() == 0,
                    "mutex leak: ", frontEnd_->mutexQueueDepth(),
                    " critical sections still queued at drain");
    }

    void
    snapshot(harden::Snapshot &snap) const override
    {
        snap.set(name_, "freeFrames",
                 static_cast<double>(frontEnd_->freeFrames()));
        snap.set(name_, "mutexHeld",
                 static_cast<double>(frontEnd_->mutexHeld() ? 1 : 0));
        snap.set(name_, "mutexQueued",
                 static_cast<double>(frontEnd_->mutexQueueDepth()));
        snap.set(name_, "daemonActive",
                 static_cast<double>(frontEnd_->daemonActive() ? 1 : 0));
    }

    OsFrontEnd &frontEnd() { return *frontEnd_; }
    const OsFrontEnd &frontEnd() const { return *frontEnd_; }

    /** Wire the TLB-shootdown callback (system builder). */
    void
    setShootdownHook(ShootdownHook hook) override
    {
        frontEnd_->setShootdownHook(std::move(hook));
    }

    void
    collectStats(SystemResults &r) const override
    {
        const OsFrontEnd &fe = *frontEnd_;
        r.fills = static_cast<std::uint64_t>(fe.tagMisses.value());
        r.writebacks =
            static_cast<std::uint64_t>(fe.writebacksIssued.value());
        r.tagMgmtLatency = fe.tagMgmtLatency.mean();
        const double bytes =
            (fe.tagMisses.value() + fe.writebacksIssued.value()) *
            static_cast<double>(PageBytes);
        r.rmhbGBs =
            r.seconds > 0 ? bytes / BytesPerGB / r.seconds : 0;
    }

    void
    samplerProbes(StatSampler &sampler) override
    {
        OsFrontEnd &fe = *frontEnd_;
        sampler.addProbe(fe.name() + ".freeFrames", [&fe]() {
            return static_cast<double>(fe.freeFrames());
        });
        sampler.addStat(&fe.tagMisses);
        sampler.addStat(&fe.writebacksIssued);
    }

  protected:
    std::unique_ptr<OsFrontEnd> frontEnd_;
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_OS_MANAGED_SCHEME_HH
