/**
 * @file
 * Baseline: a conventional system with off-package memory only.
 *
 * Serves as the lower bound of DRAM cache performance (Section IV-A).
 * Every LLC miss goes straight to DDR4; translation is the identity
 * PFN mapping and page walks carry no DC work.
 */

#ifndef NOMAD_DRAMCACHE_BASELINE_SCHEME_HH
#define NOMAD_DRAMCACHE_BASELINE_SCHEME_HH

#include "dramcache/scheme.hh"

namespace nomad
{

/** Off-package-only memory system. */
class BaselineScheme : public DramCacheScheme
{
  public:
    BaselineScheme(Simulation &sim, const std::string &name,
                   DramDevice &off_package, PageTable &page_table)
        : DramCacheScheme(sim, name, off_package, nullptr, page_table)
    {}

    bool
    tryAccess(const MemRequestPtr &req) override
    {
        panic_if(req->space != MemSpace::OffPackage,
                 "baseline received an on-package request");
        trackDemandRead(req);
        return offPackage_.tryAccess(req);
    }
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_BASELINE_SCHEME_HH
