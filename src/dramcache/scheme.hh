/**
 * @file
 * The DRAM cache scheme interface.
 *
 * A scheme sits between the last-level SRAM cache and the two DRAM
 * devices. It is involved at three points:
 *
 *  1. Translation time: finishWalk() completes a page table walk. An
 *     OS-managed scheme may run its DC tag miss handler here (and, if
 *     blocking, not return until the cache fill finishes).
 *  2. Store time: notifyStore() maintains dirty bits (PTE + CPD).
 *  3. Access time: tryAccess() receives LLC-miss traffic; the request's
 *     MemSpace says whether translation resolved it to a cache frame
 *     (on-package) or a physical frame (off-package).
 *
 * TLB insert/evict events are forwarded so OS-managed schemes can keep
 * the CPD TLB directory for shootdown avoidance.
 */

#ifndef NOMAD_DRAMCACHE_SCHEME_HH
#define NOMAD_DRAMCACHE_SCHEME_HH

#include <cstddef>
#include <functional>
#include <string>

#include "dram/device.hh"
#include "mem/request.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "vm/page_table.hh"

namespace nomad
{

namespace harden
{
class Snapshot;
} // namespace harden

struct SystemResults;
class StatSampler;

/** Identifiers of the evaluated schemes. */
enum class SchemeKind : std::uint8_t
{
    Baseline, ///< Off-package memory only (lower bound).
    Tid,      ///< HW-based tags-in-DRAM (Unison-style).
    Tdc,      ///< Blocking OS-managed (tagless DRAM cache).
    Nomad,    ///< This paper.
    Ideal,    ///< Zero-cost OS-managed (upper bound).
    Tiering,  ///< CXL-style tiered memory (src/tiering).
    Alloy,    ///< Direct-mapped line cache, TAD unified access.
    Banshee,  ///< SW/HW page cache, frequency-based replacement.
    Tdram,    ///< Tag-enhanced DRAM: tag+data in one access.
};

/** Number of SchemeKind values; system/schemes.hh has a row for each. */
inline constexpr std::size_t NumSchemeKinds =
    static_cast<std::size_t>(SchemeKind::Tdram) + 1;

/** Abstract DRAM cache scheme. */
class DramCacheScheme : public SimObject, public MemPort
{
  public:
    /** Callback completing an OS page-walk hook. */
    using WalkDone = std::function<void(Tick)>;
    /** Hook for flushing SRAM lines of an evicted frame range. */
    using FlushHook =
        std::function<std::uint32_t(MemSpace, Addr, std::uint64_t)>;

    DramCacheScheme(Simulation &sim, const std::string &name,
                    DramDevice &off_package, DramDevice *on_package,
                    PageTable &page_table)
        : SimObject(sim, name),
          demandReadLatency(name + ".demandReadLatency",
                            "DC access time for demand reads (ticks)"),
          offPackage_(off_package), onPackage_(on_package),
          pageTable_(page_table)
    {
        sim.statistics().add(&demandReadLatency);
    }

    /**
     * Complete a page table walk for the page of @p vaddr on behalf of
     * @p core. The walking thread resumes when @p done fires; blocking
     * schemes defer it past the cache fill. The faulting address also
     * tells the back-end which sub-block to prioritise
     * (critical-data-first).
     */
    virtual void
    finishWalk(int core, Addr vaddr, Pte *pte, WalkDone done)
    {
        (void)core;
        (void)vaddr;
        (void)pte;
        done(curTick());
    }

    /** A store retired to this page (dirty-bit maintenance). */
    virtual void
    notifyStore(Pte *pte)
    {
        pte->dirty = true;
    }

    /** The translation entered core @p core's TLB. */
    virtual void tlbInserted(int core, PageNum vpn, const Pte &pte)
    {
        (void)core;
        (void)vpn;
        (void)pte;
    }

    /** The translation left core @p core's TLB entirely. */
    virtual void tlbEvicted(int core, PageNum vpn, const Pte &pte)
    {
        (void)core;
        (void)vpn;
        (void)pte;
    }

    /**
     * Resolve a translated PTE to the memory address and space the SRAM
     * hierarchy should use. A cached page (C bit set, only by the
     * schemes that remap pages into DRAM-cache frames: the OS-managed
     * ones, Banshee and tiering) lives in the on-package space at the
     * CFN stored in the PTE; every other page at its PFN off-package.
     */
    Addr
    memAddrFor(const Pte &pte, Addr vaddr, MemSpace &space_out) const
    {
        space_out = pte.cached ? MemSpace::OnPackage
                               : MemSpace::OffPackage;
        return (pte.frame << PageShift) | pageOffset(vaddr);
    }

    /**
     * True when the scheme holds no in-flight state (page copies,
     * MSHRs, parked requests). The system drain loop keeps ticking a
     * non-quiesced scheme after the cores finish so pending copies
     * complete before checkDrained() runs.
     */
    virtual bool quiesced() const { return true; }

    /**
     * Verify leak-freedom after a drain: every PCSHR/MSHR/buffer must
     * be back in its pool and no request may still be parked. Throws
     * harden::SimError on violation; only called under
     * --check-invariants.
     */
    virtual void checkDrained() const {}

    /** Contribute scheme state to a structured diagnostic snapshot. */
    virtual void snapshot(harden::Snapshot &snap) const { (void)snap; }

    /** Install the SRAM-flush hook (wired by the system builder). */
    virtual void setFlushHook(FlushHook hook)
    {
        flushHook_ = std::move(hook);
    }

    /** Invalidate @p vpn in core @p core's TLB (system-wired). */
    using ShootdownHook = std::function<void(int core, PageNum vpn)>;

    /**
     * Install the TLB shootdown hook. Default: discarded — schemes
     * that never remap a live translation need no shootdowns.
     */
    virtual void setShootdownHook(ShootdownHook hook) { (void)hook; }

    /**
     * Fill this scheme's fields of @p r. Called by System::collect()
     * after the scheme-independent fields — in particular r.seconds —
     * are already populated, so rate metrics can divide by them.
     */
    virtual void collectStats(SystemResults &r) const { (void)r; }

    /**
     * Register this scheme's time-series probes on @p sampler. Called
     * after the system's generic probes and before sampler.start();
     * probe registration order is part of the stats-JSON contract
     * (docs/OBSERVABILITY.md), so overrides must keep it stable.
     */
    virtual void samplerProbes(StatSampler &sampler) { (void)sampler; }

    /** Average demand-read DC access time in CPU cycles. */
    stats::Average demandReadLatency;

  protected:
    /**
     * Mark a demand read so its latency lands in demandReadLatency
     * when it completes (MemRequest::complete samples the stat before
     * firing the callback, preserving the accumulation order of the
     * old closure-based wrapping). Idempotent: rejected-and-retried
     * requests are marked only once.
     */
    void
    trackDemandRead(const MemRequestPtr &req)
    {
        if (req->isWrite || req->category != Category::Demand ||
            req->latencyTracked) {
            return;
        }
        req->latencyTracked = true;
        req->latencyStat = &demandReadLatency;
        req->trackStart = curTick();
    }

    DramDevice &offPackage_;
    DramDevice *onPackage_;
    PageTable &pageTable_;
    FlushHook flushHook_;
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_SCHEME_HH
