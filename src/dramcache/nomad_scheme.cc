#include "nomad_scheme.hh"

namespace nomad
{

NomadScheme::NomadScheme(Simulation &sim, const std::string &name,
                         const NomadParams &params,
                         DramDevice &off_package, DramDevice &on_package,
                         PageTable &page_table)
    : OsManagedScheme(sim, name, off_package, on_package, page_table),
      params_(params)
{
    fatal_if(params.numBackEnds == 0, name, ": need >= 1 back-end");
    router_ = std::make_unique<Router>(*this);
    for (std::uint32_t i = 0; i < params.numBackEnds; ++i) {
        backEnds_.push_back(std::make_unique<NomadBackEnd>(
            sim, name + ".be" + std::to_string(i), params.backEnd,
            on_package, off_package));
    }
    // Non-blocking resume is NOMAD's defining property; the global
    // mutex stays configurable for ablation (default on, per Alg 1).
    OsFrontEndParams fe = params.frontEnd;
    fe.blocking = false;
    frontEnd_ = std::make_unique<OsFrontEnd>(sim, name + ".fe", fe,
                                             page_table, *router_);
    wakeIdx_ = sim.addClocked(this, 1);
}

bool
NomadScheme::attemptAccess(const MemRequestPtr &req)
{
    NomadBackEnd &be = backEndFor(pageOf(req->addr));
    switch (be.access(req)) {
      case NomadBackEnd::AccessResult::DataHit:
        // The PCSHR CAM compare takes 0.21 cycles (CACTI), modelled
        // as zero: a data hit goes straight to on-package DRAM.
        if (!onPackage_->tryAccess(req))
            return false;
        be.dataHits += 1;
        return true;
      case NomadBackEnd::AccessResult::Serviced:
      case NomadBackEnd::AccessResult::Pending:
        return true;
      case NomadBackEnd::AccessResult::Reject:
        return false;
    }
    return false;
}

bool
NomadScheme::tryAccess(const MemRequestPtr &req)
{
    sim_.pokeClocked(wakeIdx_);
    if (req->space == MemSpace::OffPackage) {
        // Non-cached pages (evicted frames, NC pages) behave like the
        // conventional memory system (Section III-E, (hit, miss) case).
        trackDemandRead(req);
        return offPackage_.tryAccess(req);
    }

    // DC access: verify data presence against the owning back-end.
    trackDemandRead(req);
    if (!pendingQ_.empty() || !attemptAccess(req)) {
        // Park in the DC controller queue rather than bouncing the
        // request back into the LLC's (FIFO) send path.
        if (pendingQ_.size() >= params_.controllerQueueDepth) {
            retry_.owe(*req);
            return false;
        }
        pendingQ_.push_back(req);
    }
    return true;
}

void
NomadScheme::tick()
{
    while (!pendingQ_.empty() && attemptAccess(pendingQ_.front())) {
        retry_.pay(); // A refused sender may take the freed slot.
        pendingQ_.pop_front();
    }
}

bool
NomadScheme::quiesced() const
{
    if (!OsManagedScheme::quiesced() || !pendingQ_.empty())
        return false;
    for (const auto &be : backEnds_) {
        if (!be->idle())
            return false;
    }
    return true;
}

void
NomadScheme::checkDrained() const
{
    OsManagedScheme::checkDrained();
    NOMAD_CHECK(*this, pendingQ_.empty(),
                "DC controller leak: ", pendingQ_.size(),
                " accesses still queued at drain");
    for (const auto &be : backEnds_)
        be->checkDrained();
}

void
NomadScheme::snapshot(harden::Snapshot &snap) const
{
    OsManagedScheme::snapshot(snap);
    snap.set(name_, "pendingAccesses",
             static_cast<double>(pendingQ_.size()));
    for (const auto &be : backEnds_)
        be->snapshot(snap);
}

void
NomadScheme::collectStats(SystemResults &r) const
{
    OsManagedScheme::collectStats(r);
    double hits = 0, misses = 0, buffer_hits = 0, pending = 0;
    for (const auto &be : backEnds_) {
        hits += be->dataHits.value();
        misses += be->dataMisses.value();
        buffer_hits += be->bufferReadHits.value();
        pending += be->pendingServed.value();
    }
    const double read_misses = buffer_hits + pending;
    r.bufferHitRate = read_misses > 0 ? buffer_hits / read_misses : 0;
    const double total = hits + misses;
    r.dataMissRate = total > 0 ? misses / total : 0;
}

void
NomadScheme::samplerProbes(StatSampler &sampler)
{
    OsManagedScheme::samplerProbes(sampler);
    sampler.addProbe("nomad.pcshr.active", [this]() {
        double sum = 0;
        for (const auto &be : backEnds_)
            sum += be->activePcshrs();
        return sum;
    });
    sampler.addProbe("nomad.pcshr.queued", [this]() {
        double sum = 0;
        for (const auto &be : backEnds_)
            sum += be->interfaceQueueDepth();
        return sum;
    });
}

} // namespace nomad
