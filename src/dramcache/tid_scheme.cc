#include "tid_scheme.hh"

namespace nomad
{

TidScheme::TidScheme(Simulation &sim, const std::string &name,
                     const TidParams &params, DramDevice &off_package,
                     DramDevice &on_package, PageTable &page_table)
    : LineCacheScheme(sim, name,
                      {.capacityBytes = params.capacityBytes,
                       .lineBytes = params.lineBytes,
                       .assoc = params.assoc,
                       .mshrs = params.mshrs,
                       .targetsPerMshr = params.targetsPerMshr,
                       .maxReadsInFlight = params.maxReadsInFlight,
                       .maxWritebackJobs = params.maxWritebackJobs,
                       .controllerQueueDepth =
                           params.controllerQueueDepth},
                      off_package, on_package, page_table),
      tagReads(name + ".tagReads", "metadata read bursts"),
      tagWrites(name + ".tagWrites", "metadata write bursts"),
      params_(params)
{
    auto &reg = sim.statistics();
    reg.add(&tagReads);
    reg.add(&tagWrites);
}

void
TidScheme::issueMetadataRead(std::uint64_t set)
{
    // Tags live in the same row as the set's data, so the burst is
    // row-buffer friendly. Fire-and-forget: with the ideal way
    // predictor the data access proceeds in parallel; the cost is
    // on-package bandwidth, which is exactly what Fig 1a illustrates.
    ++tagReads;
    auto req = makeRequest(hbmAddrOf(set, 0), false, Category::Metadata,
                           MemSpace::OnPackage, curTick());
    (void)onPackage_->tryAccess(req); // Dropped if full: probe retried
                                      // with the access itself.
}

void
TidScheme::issueMetadataWrite(std::uint64_t set)
{
    ++tagWrites;
    auto req = makeRequest(hbmAddrOf(set, 0), true, Category::Metadata,
                           MemSpace::OnPackage, curTick());
    (void)onPackage_->tryAccess(req);
}

void
TidScheme::onHitAccess(Addr line_addr, std::uint64_t set)
{
    (void)line_addr;
    issueMetadataRead(set);
    issueMetadataWrite(set);
}

void
TidScheme::onMissAlloc(std::uint64_t set)
{
    issueMetadataRead(set);  // The probe that discovered the miss.
    issueMetadataWrite(set); // Tag install.
}

} // namespace nomad
