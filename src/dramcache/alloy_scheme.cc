#include "alloy_scheme.hh"

#include "dramcache/scheme_results.hh"

namespace nomad
{

AlloyScheme::AlloyScheme(Simulation &sim, const std::string &name,
                         const AlloyParams &params,
                         DramDevice &off_package,
                         DramDevice &on_package,
                         PageTable &page_table)
    : LineCacheScheme(sim, name,
                      {.capacityBytes = params.capacityBytes,
                       // Direct-mapped: the TAD burst checks one
                       // location.
                       .assoc = 1,
                       .mshrs = params.mshrs,
                       .targetsPerMshr = params.targetsPerMshr,
                       .maxWritebackJobs = params.maxWritebackJobs,
                       .controllerQueueDepth =
                           params.controllerQueueDepth},
                      off_package, on_package, page_table),
      missPredictions(name + ".missPredictions",
                      "accesses the predictor sent to memory early"),
      spuriousFetches(name + ".spuriousFetches",
                      "predicted-miss hits (wasted off-package reads)"),
      tagBursts(name + ".tagBursts",
                "TAD tag-overhead metadata bursts"),
      params_(params)
{
    auto &reg = sim.statistics();
    reg.add(&missPredictions);
    reg.add(&spuriousFetches);
    reg.add(&tagBursts);
}

void
AlloyScheme::noteTad()
{
    // Tag bits ride every TAD burst; charge one whole metadata burst
    // once enough tag bytes accumulated to fill it.
    if (++tadsSinceBurst_ < TadsPerTagBurst)
        return;
    tadsSinceBurst_ = 0;
    ++tagBursts;
    auto req = makeRequest(0, false, Category::Metadata,
                           MemSpace::OnPackage, curTick());
    (void)onPackage_->tryAccess(req); // Dropped if full: bandwidth
                                      // tax, not a dependency.
}

void
AlloyScheme::issueProbe(std::size_t slot)
{
    // Mispredicted hit: the fetch serializes behind the on-package TAD
    // access that discovers the miss (Alloy's predictor penalty).
    Mshr &m = mshrs_[slot];
    const std::uint64_t gen = m.fill.generation;
    auto probe = makeRequest(hbmAddrOf(m.set, m.way), false,
                             Category::Demand, MemSpace::OnPackage,
                             curTick(), [this, slot, gen](Tick) {
                                 resumeLaunch(slot, gen);
                             });
    setBlocked(m, !onPackage_->tryAccess(probe));
}

void
AlloyScheme::launchFetch(std::size_t slot)
{
    noteTad(); // The TAD access runs regardless of the prediction.
    if (predictMiss()) {
        ++missPredictions;
        startFill(slot);
    } else {
        issueProbe(slot);
    }
}

void
AlloyScheme::retryLaunch(std::size_t slot)
{
    issueProbe(slot);
}

void
AlloyScheme::onHitAccess(Addr line_addr, std::uint64_t set)
{
    (void)set;
    noteTad();
    if (predictMiss()) {
        // The predictor already launched this line off-package in a
        // real Alloy; charge the wasted read's bandwidth.
        ++missPredictions;
        ++spuriousFetches;
        auto req = makeRequest(line_addr, false, Category::Demand,
                               MemSpace::OffPackage, curTick());
        (void)offPackage_.tryAccess(req);
    }
}

void
AlloyScheme::recordOutcome(bool hit)
{
    if (hit) {
        if (predictor_ < PredictorMax)
            ++predictor_;
    } else {
        if (predictor_ > 0)
            --predictor_;
    }
}

void
AlloyScheme::collectStats(SystemResults &r) const
{
    LineCacheScheme::collectStats(r);
    r.missPredictions =
        static_cast<std::uint64_t>(missPredictions.value());
    r.spuriousFetches =
        static_cast<std::uint64_t>(spuriousFetches.value());
}

} // namespace nomad
