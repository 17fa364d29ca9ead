/**
 * @file
 * A single flat page table with physical-frame allocation, physical
 * page descriptors, and reverse mappings.
 *
 * The simulator runs in an SE-mode style: one address space shared by
 * all cores (workloads use disjoint VA windows). Reverse mappings
 * (PFN -> set of VPNs) let the eviction daemon restore PTEs when a
 * cache frame is reclaimed, exactly as Algorithm 2 lines 12-15 do via
 * the kernel's rmap.
 */

#ifndef NOMAD_VM_PAGE_TABLE_HH
#define NOMAD_VM_PAGE_TABLE_HH

#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"
#include "vm/pte.hh"

namespace nomad
{

/** Flat page table + PPD array + reverse map. */
class PageTable
{
  public:
    using RemapListener = std::function<void()>;

    /** @param phys_frames capacity of off-package memory in frames. */
    explicit PageTable(std::uint64_t phys_frames)
        : physFrames_(phys_frames)
    {}

    /**
     * Find the PTE for @p vpn, or allocate a fresh physical frame and
     * map it on first touch. Returned pointers stay valid for the
     * table's lifetime (node-stable container).
     */
    Pte *
    touch(PageNum vpn)
    {
        auto [it, inserted] = table_.try_emplace(vpn);
        Pte &pte = it->second;
        if (inserted) {
            panic_if(nextPfn_ >= physFrames_,
                     "out of physical frames (", physFrames_, ")");
            pte.frame = nextPfn_++;
            pte.present = true;
            rmap_[pte.frame].push_back(vpn);
            ppdSlot(pte.frame).mapCount = 1;
        }
        return &pte;
    }

    /** Find an existing PTE; nullptr if the page was never touched. */
    Pte *
    find(PageNum vpn)
    {
        auto it = table_.find(vpn);
        return it == table_.end() ? nullptr : &it->second;
    }

    /**
     * Map an additional VPN to an existing physical frame (shared
     * page). Used by tests and the shared-page support path.
     */
    Pte *
    mapShared(PageNum vpn, PageNum pfn)
    {
        panic_if(pfn >= nextPfn_, "mapShared to unallocated PFN ", pfn);
        auto [it, inserted] = table_.try_emplace(vpn);
        panic_if(!inserted, "mapShared: vpn ", vpn, " already mapped");
        Pte &pte = it->second;
        pte.frame = pfn;
        pte.present = true;
        rmap_[pfn].push_back(vpn);
        ppdSlot(pfn).mapCount++;
        return &pte;
    }

    /** PPD of @p pfn. */
    PhysPageDescriptor &
    ppd(PageNum pfn)
    {
        panic_if(pfn >= physFrames_, "PPD index out of range");
        return ppdSlot(pfn);
    }

    /** All VPNs mapping @p pfn (the kernel rmap). */
    const std::vector<PageNum> &
    reverseMap(PageNum pfn) const
    {
        static const std::vector<PageNum> empty;
        auto it = rmap_.find(pfn);
        return it == rmap_.end() ? empty : it->second;
    }

    /**
     * The one chokepoint for moving a mapped page: point every PTE in
     * @p pfn's reverse map at @p frame with C = @p cached (a DC fill
     * or eviction, a tier promotion or demotion) and mirror C into the
     * PPD. Returns the number of PTEs rewritten (> 1 for a shared
     * page). The remap listener runs first, before any PTE changes: a
     * core re-resolves its refused L1 request's address through these
     * PTEs on every re-offer, so a remap must wake blocked cores.
     */
    std::uint32_t
    remap(PageNum pfn, PageNum frame, bool cached)
    {
        if (remapListener_)
            remapListener_();
        std::uint32_t rewritten = 0;
        for (Pte *pte : reversePtes(pfn)) {
            pte->frame = frame;
            pte->cached = cached;
            ++rewritten;
        }
        ppd(pfn).cached = cached;
        return rewritten;
    }

    /** Install the listener remap() calls (System wakes its cores). */
    void
    setRemapListener(RemapListener fn)
    {
        remapListener_ = std::move(fn);
    }

    /** PTE of every VPN in @p pfn's reverse map. */
    std::vector<Pte *>
    reversePtes(PageNum pfn)
    {
        std::vector<Pte *> ptes;
        for (PageNum vpn : reverseMap(pfn)) {
            Pte *pte = find(vpn);
            panic_if(!pte, "rmap names an unmapped vpn");
            ptes.push_back(pte);
        }
        return ptes;
    }

    std::uint64_t allocatedFrames() const { return nextPfn_; }

  private:
    /**
     * PPD of @p pfn, growing the array on demand. The frame capacity
     * is deliberately over-provisioned (System rounds DDR up to a
     * power of two), so sizing ppds_ eagerly wastes both the cycles
     * and the cache lines; descriptors materialize only up to the
     * highest frame actually referenced. Callers must not hold the
     * reference across another ppdSlot()/touch()/mapShared() call
     * (growth relocates the array).
     */
    PhysPageDescriptor &
    ppdSlot(PageNum pfn)
    {
        if (pfn >= ppds_.size()) {
            std::size_t cap = ppds_.empty() ? 1024 : ppds_.size() * 2;
            if (cap < pfn + 1)
                cap = pfn + 1;
            ppds_.resize(cap);
        }
        return ppds_[pfn];
    }

    std::uint64_t physFrames_;
    std::uint64_t nextPfn_ = 0;
    std::unordered_map<PageNum, Pte> table_;
    std::unordered_map<PageNum, std::vector<PageNum>> rmap_;
    std::vector<PhysPageDescriptor> ppds_;
    RemapListener remapListener_;
};

} // namespace nomad

#endif // NOMAD_VM_PAGE_TABLE_HH
