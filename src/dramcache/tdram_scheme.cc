#include "tdram_scheme.hh"

#include <algorithm>

#include "dramcache/scheme_registry.hh"
#include "dramcache/scheme_results.hh"
#include "system/system.hh"

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

void
registerTdramScheme(SchemeRegistry &reg)
{
    SchemeEntry entry;
    entry.kind = SchemeKind::Tdram;
    entry.factory = [](const SchemeBuildContext &ctx)
        -> std::unique_ptr<DramCacheScheme> {
        TdramParams p = ctx.config.tdram;
        if (p.capacityBytes == 0)
            p.capacityBytes = ctx.config.dcFrames * PageBytes;
        return std::make_unique<TdramScheme>(ctx.sim, "tdram", p,
                                             ctx.offPackage,
                                             ctx.onPackage,
                                             ctx.pageTable);
    };
    entry.validate = [](const SystemConfig &cfg) {
        auto reject = [](const std::string &msg) {
            throw harden::SimError(harden::ErrorKind::ConfigError,
                                   "bad config: " + msg);
        };
        if (cfg.tdram.assoc == 0)
            reject("tdram.assoc must be >= 1");
        if (cfg.tdram.mshrs == 0)
            reject("tdram.mshrs must be >= 1");
        if (cfg.tdram.controllerQueueDepth == 0)
            reject("tdram.controllerQueueDepth must be >= 1");
        if (cfg.tdram.capacityBytes %
                (static_cast<std::uint64_t>(cfg.tdram.assoc) *
                 BlockBytes) !=
            0)
            reject("tdram.capacityBytes must divide evenly into "
                   "assoc-way sets of 64B blocks");
    };
    entry.requiredOnPackageFrames = [](const SystemConfig &cfg) {
        const std::uint64_t frames =
            (cfg.tdram.capacityBytes + PageBytes - 1) / PageBytes;
        return std::max<std::uint64_t>(cfg.dcFrames, frames);
    };
    entry.extraResults = {
        {"early_misses",
         [](const SystemResults &r) {
             return static_cast<double>(r.earlyMisses);
         }},
    };
    reg.add(std::move(entry));
}

} // namespace nomad
