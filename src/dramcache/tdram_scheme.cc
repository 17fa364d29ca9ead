#include "tdram_scheme.hh"

#include "dramcache/scheme_results.hh"

namespace nomad
{

TdramScheme::TdramScheme(Simulation &sim, const std::string &name,
                         const TdramParams &params,
                         DramDevice &off_package,
                         DramDevice &on_package,
                         PageTable &page_table)
    : LineCacheScheme(sim, name,
                      {.capacityBytes = params.capacityBytes,
                       .assoc = params.assoc,
                       .mshrs = params.mshrs,
                       .targetsPerMshr = params.targetsPerMshr,
                       .maxWritebackJobs = params.maxWritebackJobs,
                       .controllerQueueDepth =
                           params.controllerQueueDepth},
                      off_package, on_package, page_table),
      earlyMisses(name + ".earlyMisses",
                  "misses settled by the on-die tag check"),
      params_(params)
{
    sim.statistics().add(&earlyMisses);
}

void
TdramScheme::launchFetch(std::size_t slot)
{
    // Early miss detection: the on-die tag comparator answers after a
    // fixed short delay without occupying the data bus; the fetch
    // launches straight from there.
    ++earlyMisses;
    if (params_.tagCheckTicks == 0) {
        startFill(slot);
        return;
    }
    const std::uint64_t gen = mshrs_[slot].fill.generation;
    schedule(params_.tagCheckTicks,
             [this, slot, gen]() { resumeLaunch(slot, gen); });
}

void
TdramScheme::collectStats(SystemResults &r) const
{
    LineCacheScheme::collectStats(r);
    r.earlyMisses = static_cast<std::uint64_t>(earlyMisses.value());
}

} // namespace nomad
