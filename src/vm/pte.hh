/**
 * @file
 * Page table entries and page descriptors, with the NOMAD extensions.
 *
 * NOMAD (Fig 4) extends the x86-64 PTE's unused field with two bits:
 * cached (C) and non-cacheable (NC). A physical page descriptor (PPD)
 * carries the same two bits plus the usual kernel state; a cache page
 * descriptor (CPD) describes one DRAM cache frame: a valid bit, a
 * dirty-in-cache (DC) bit, the PFN it caches, and a TLB directory used
 * for TLB-shootdown avoidance.
 */

#ifndef NOMAD_VM_PTE_HH
#define NOMAD_VM_PTE_HH

#include <cstdint>

#include "sim/types.hh"

namespace nomad
{

/** One page table entry (simulated; fields, not encodings). */
struct Pte
{
    /** PFN normally; CFN while the page resides in the DRAM cache. */
    PageNum frame = InvalidPage;
    bool present = false;
    bool dirty = false;        ///< Set by stores (conventional D bit).
    bool cached = false;       ///< C: frame field holds a CFN.
    bool nonCacheable = false; ///< NC: page may never enter the DC.
    /**
     * Banshee-style frequency counter: Banshee's fill and victim
     * signal (src/dramcache/banshee_scheme.cc) and the tiering
     * frontend's promotion signal (src/tiering). Decay is lazy:
     * heatEpoch records the epoch of the last bump, and a reader
     * shifts heat right by the number of epochs elapsed since
     * (deterministic — no background sweep).
     */
    std::uint16_t heat = 0;
    std::uint32_t heatEpoch = 0;

    /** The page is DC-cacheable but not currently cached (tag miss). */
    bool
    isDcTagMiss() const
    {
        return present && !nonCacheable && !cached;
    }
};

/** Physical page descriptor (one per physical frame). */
struct PhysPageDescriptor
{
    bool cached = false;       ///< C: currently mapped to a DC frame.
    bool nonCacheable = false; ///< NC mirror of the PTE bit.
    std::uint32_t mapCount = 0; ///< Number of PTEs mapping this frame.
};

/** Cache page descriptor (one per DRAM cache frame). */
struct CachePageDescriptor
{
    bool valid = false;        ///< V: frame mapping is live.
    bool dirtyInCache = false; ///< DC: writeback needed on eviction.
    PageNum pfn = InvalidPage; ///< Original physical frame.
    /**
     * TLB directory: bit i set while core i's TLBs hold the frame's
     * translation. The eviction daemon skips frames with nonzero
     * directories to avoid invoking a TLB shootdown protocol.
     */
    std::uint64_t tlbDirectory = 0;
};

} // namespace nomad

#endif // NOMAD_VM_PTE_HH
