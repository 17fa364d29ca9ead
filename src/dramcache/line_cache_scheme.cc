#include "line_cache_scheme.hh"

#include <bit>

#include "dramcache/scheme_results.hh"
#include "sim/stat_sampler.hh"
#include "sim/trace.hh"

namespace nomad
{

LineCacheScheme::LineCacheScheme(Simulation &sim,
                                 const std::string &name,
                                 const LineCacheParams &params,
                                 DramDevice &off_package,
                                 DramDevice &on_package,
                                 PageTable &page_table)
    : DramCacheScheme(sim, name, off_package, &on_package, page_table),
      dcHits(name + ".dcHits", "DRAM cache line hits"),
      dcMisses(name + ".dcMisses", "DRAM cache line misses"),
      dcMissesMerged(name + ".dcMissesMerged",
                     "accesses merged into in-flight MSHRs"),
      conflictEvictions(name + ".conflictEvictions",
                        "valid lines evicted on allocation"),
      dirtyWritebacks(name + ".dirtyWritebacks",
                      "dirty victim lines written back"),
      rejects(name + ".rejects", "accesses rejected (backpressure)"),
      params_(params), mshrCounterName_(name + ".mshr")
{
    fatal_if(params.lineBytes % BlockBytes != 0 ||
                 params.lineBytes < BlockBytes,
             name, ": line size must be a multiple of 64B");
    fatal_if(params.lineBytes / BlockBytes > 64,
             name, ": at most 64 blocks per line (bit vectors)");
    fatal_if(params.assoc == 0, name, ": assoc must be >= 1");
    fatal_if(params.capacityBytes %
                     (static_cast<std::uint64_t>(params.lineBytes) *
                      params.assoc) !=
                 0,
             name, ": capacity must divide into sets");
    fatal_if(params.mshrs == 0, name, ": need at least one MSHR");
    numSets_ = params.capacityBytes /
               (static_cast<std::uint64_t>(params.lineBytes) *
                params.assoc);
    blocksPerLine_ = params.lineBytes / BlockBytes;
    allBlocks_ = blocksPerLine_ == 64 ? ~0ULL
                                      : (1ULL << blocksPerLine_) - 1;
    tags_.resize(numSets_ * params.assoc);
    mshrs_.resize(params.mshrs);
    mshrIndex_.reserve(params.mshrs);
    for (auto &m : mshrs_)
        m.targets.reserve(params.targetsPerMshr);

    auto &reg = sim.statistics();
    reg.add(&dcHits);
    reg.add(&dcMisses);
    reg.add(&dcMissesMerged);
    reg.add(&conflictEvictions);
    reg.add(&dirtyWritebacks);
    reg.add(&rejects);

    wakeIdx_ = sim.addClocked(this, 1);
}

LineCacheScheme::Mshr *
LineCacheScheme::findMshr(Addr line_addr)
{
    if (const std::uint32_t *slot = mshrIndex_.find(line_addr))
        return &mshrs_[*slot];
    return nullptr;
}

LineCacheScheme::Mshr *
LineCacheScheme::allocMshr()
{
    if (activeMshrs_ == params_.mshrs)
        return nullptr;
    for (auto &m : mshrs_) {
        if (!m.valid) {
            m.valid = true;
            m.launched = false;
            m.blocked = false;
            m.fill.arm(curTick());
            m.targets.clear();
            ++activeMshrs_;
            return &m;
        }
    }
    return nullptr;
}

void
LineCacheScheme::setBlocked(Mshr &m, bool blocked)
{
    if (m.blocked == blocked)
        return;
    m.blocked = blocked;
    if (blocked)
        ++blockedMshrs_;
    else
        --blockedMshrs_;
}

std::uint32_t
LineCacheScheme::firstUnread(std::uint64_t r_vec,
                             std::uint32_t start) const
{
    for (std::uint32_t off = 0; off < blocksPerLine_; ++off) {
        const std::uint32_t i = (start + off) % blocksPerLine_;
        if (!subBlockSet(r_vec, i))
            return i;
    }
    return blocksPerLine_; // Unreachable while r_vec != allBlocks_.
}

bool
LineCacheScheme::serviceHit(const MemRequestPtr &req, std::uint64_t set,
                            std::uint32_t way)
{
    TagEntry &e = entry(set, way);
    const auto block_idx = static_cast<std::uint32_t>(
        (req->addr % params_.lineBytes) / BlockBytes);
    auto demand = makeRequest(hbmAddrOf(set, way, block_idx),
                              req->isWrite, Category::Demand,
                              MemSpace::OnPackage, curTick());
    // Forward completion to the original request.
    auto original = req;
    demand->onComplete = [original](Tick when) {
        original->complete(when);
    };
    if (!onPackage_->tryAccess(demand))
        return false; // Retried from the controller queue.
    e.lastUse = ++useCounter_;
    if (req->isWrite)
        e.dirty = true;
    ++dcHits;
    onHitAccess(req->addr - (req->addr % params_.lineBytes), set);
    recordOutcome(true);
    return true;
}

bool
LineCacheScheme::tryAccess(const MemRequestPtr &req)
{
    sim_.pokeClocked(wakeIdx_);
    panic_if(req->space != MemSpace::OffPackage,
             name_, " expects physical-address traffic");
    trackDemandRead(req);
    if (!pendingQ_.empty() || !attemptAccess(req)) {
        // Park in the DC controller queue rather than bouncing the
        // request back into the LLC's (FIFO) send path.
        if (pendingQ_.size() >= params_.controllerQueueDepth) {
            ++rejects;
            retry_.owe(*req);
            return false;
        }
        pendingQ_.push_back(req);
    }
    return true;
}

bool
LineCacheScheme::attemptAccess(const MemRequestPtr &req)
{
    const Addr line_addr = req->addr - (req->addr % params_.lineBytes);
    const auto block_idx = static_cast<std::uint32_t>(
        (req->addr % params_.lineBytes) / BlockBytes);

    // 1. Merge into an in-flight fill when possible.
    if (Mshr *m = findMshr(line_addr)) {
        if (m->targets.size() >= params_.targetsPerMshr)
            return false;
        if (subBlockSet(m->fill.bVec, block_idx)) {
            // The block already arrived; serve from the fill buffer.
            req->complete(curTick() + 1);
        } else {
            m->targets.push_back(Target{req, block_idx});
        }
        ++dcMissesMerged;
        return true;
    }

    // 2. Probe the tag array.
    const std::uint64_t set = setOf(line_addr);
    const std::uint64_t tag = line_addr / params_.lineBytes;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        TagEntry &e = entry(set, w);
        if (e.valid && e.tag == tag)
            return serviceHit(req, set, w);
    }

    // 3. Miss: allocate an MSHR and a victim way.
    if (writebackJobs_.size() >= params_.maxWritebackJobs)
        return false;
    Mshr *m = allocMshr();
    if (!m)
        return false;
    ++dcMisses;
    onMissAlloc(set);

    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < params_.assoc; ++w) {
        if (!entry(set, w).valid) {
            victim = w;
            break;
        }
        if (entry(set, w).lastUse < entry(set, victim).lastUse &&
            entry(set, victim).valid) {
            victim = w;
        }
    }
    TagEntry &v = entry(set, victim);
    if (v.valid) {
        ++conflictEvictions;
        if (v.dirty) {
            ++dirtyWritebacks;
            WritebackJob job;
            job.id = nextWritebackId_++;
            job.hbmLineAddr = hbmAddrOf(set, victim);
            job.ddrLineAddr = v.tag * params_.lineBytes;
            writebackJobs_.push_back(job);
        }
    }
    v.valid = true;
    v.dirty = req->isWrite;
    v.tag = tag;
    v.lastUse = ++useCounter_;

    const auto slot = static_cast<std::size_t>(m - mshrs_.data());
    m->lineAddr = line_addr;
    mshrIndex_.insert(line_addr, static_cast<std::uint32_t>(slot));
    m->set = set;
    m->way = victim;
    m->priIdx = block_idx;
    m->targets.push_back(Target{req, block_idx});
    m->startedAt = curTick();
    if (auto *sink = tracer();
        sink && sink->enabled(trace::Cat::Copy)) {
        m->traceId = sink->nextAsyncId();
        sink->asyncBegin(
            tracePid(), "linefill", trace::Cat::Copy, m->traceId,
            m->startedAt,
            {{"line_addr", static_cast<double>(m->lineAddr)},
             {"set", static_cast<double>(m->set)},
             {"way", static_cast<double>(m->way)},
             {"pri_idx", static_cast<double>(m->priIdx)}});
    }
    traceMshrCounter();
    launchFetch(slot);
    recordOutcome(false);
    return true;
}

void
LineCacheScheme::traceMshrCounter()
{
    if (auto *sink = tracer()) {
        sink->counter(
            tracePid(), mshrCounterName_.c_str(), curTick(),
            {{"active", static_cast<double>(activeMshrs_)},
             {"writeback_jobs",
              static_cast<double>(writebackJobs_.size())}});
    }
}

void
LineCacheScheme::startFill(std::size_t slot)
{
    mshrs_[slot].launched = true;
    pumpMshr(slot);
}

void
LineCacheScheme::resumeLaunch(std::size_t slot, std::uint64_t gen)
{
    sim_.pokeClocked(wakeIdx_);
    const Mshr &m = mshrs_[slot];
    if (m.valid && m.fill.generation == gen)
        startFill(slot);
}

void
LineCacheScheme::pumpMshr(std::size_t slot)
{
    Mshr &m = mshrs_[slot];
    CopyTransaction &fill = m.fill;
    bool refused = false;
    // Issue off-package reads, critical block first, then sequential.
    while (fill.readsInFlight < params_.maxReadsInFlight &&
           fill.rVec != allBlocks_) {
        const std::uint32_t idx = firstUnread(fill.rVec, m.priIdx);
        const std::uint64_t gen = fill.generation;
        auto req = makeRequest(
            m.lineAddr + static_cast<Addr>(idx) * BlockBytes, false,
            Category::Fill, MemSpace::OffPackage, curTick(),
            [this, slot, gen, idx](Tick when) {
                onFillBlock(slot, gen, idx, when);
            });
        if (!offPackage_.tryAccess(req)) {
            refused = true;
            break;
        }
        setSubBlock(fill.rVec, idx);
        ++fill.readsInFlight;
    }

    // Drain arrived blocks into the on-package data array.
    std::uint64_t ready = fill.bVec & ~fill.wVec;
    while (ready != 0) {
        const auto idx =
            static_cast<std::uint32_t>(std::countr_zero(ready));
        auto wr = makeRequest(hbmAddrOf(m.set, m.way, idx), true,
                              Category::Fill, MemSpace::OnPackage,
                              curTick());
        if (!onPackage_->tryAccess(wr)) {
            refused = true;
            break;
        }
        setSubBlock(fill.wVec, idx);
        ready &= ready - 1;
    }
    setBlocked(m, refused);

    if (fill.wVec == allBlocks_) {
        if (auto *sink = m.traceId ? tracer() : nullptr) {
            sink->asyncEnd(
                tracePid(), "linefill", trace::Cat::Copy, m.traceId,
                curTick(),
                {{"latency",
                  static_cast<double>(curTick() - m.startedAt)}});
        }
        m.traceId = 0;
        fill.retire();
        m.valid = false;
        mshrIndex_.erase(m.lineAddr);
        --activeMshrs_;
        traceMshrCounter();
    }
}

void
LineCacheScheme::onFillBlock(std::size_t slot, std::uint64_t gen,
                             std::uint32_t idx, Tick when)
{
    sim_.pokeClocked(wakeIdx_);
    Mshr &m = mshrs_[slot];
    if (!m.valid || m.fill.generation != gen)
        return;
    --m.fill.readsInFlight;
    setSubBlock(m.fill.bVec, idx);
    if (idx == m.priIdx) {
        if (auto *sink = m.traceId ? tracer() : nullptr) {
            sink->asyncInstant(
                tracePid(), "critical_block", trace::Cat::Copy,
                m.traceId, when,
                {{"block", static_cast<double>(idx)}});
        }
    }
    // Critical-block-first response: targets complete on arrival. A
    // completion may re-enter tryAccess() and merge into this MSHR,
    // so each target leaves the list as it completes.
    for (auto it = m.targets.begin(); it != m.targets.end();) {
        if (it->blockIdx == idx) {
            it->req->complete(when + 1);
            it = m.targets.erase(it);
        } else {
            ++it;
        }
    }
    pumpMshr(slot);
}

void
LineCacheScheme::pumpWriteback(WritebackJob &job)
{
    CopyTransaction &copy = job.copy;
    while (copy.readsInFlight < params_.maxReadsInFlight &&
           copy.rVec != allBlocks_) {
        const std::uint32_t idx = firstUnread(copy.rVec, 0);
        const std::uint64_t id = job.id;
        auto req = makeRequest(
            job.hbmLineAddr + static_cast<Addr>(idx) * BlockBytes,
            false, Category::Writeback, MemSpace::OnPackage, curTick(),
            [this, id, idx](Tick) {
                sim_.pokeClocked(wakeIdx_);
                // Look up by id: the job vector may have reallocated.
                if (WritebackJob *j = findWriteback(id)) {
                    setSubBlock(j->copy.bVec, idx);
                    --j->copy.readsInFlight;
                }
            });
        if (!onPackage_->tryAccess(req))
            break;
        setSubBlock(copy.rVec, idx);
        ++copy.readsInFlight;
    }
    std::uint64_t ready = copy.bVec & ~copy.wVec;
    while (ready != 0) {
        const auto idx =
            static_cast<std::uint32_t>(std::countr_zero(ready));
        auto wr = makeRequest(
            job.ddrLineAddr + static_cast<Addr>(idx) * BlockBytes, true,
            Category::Writeback, MemSpace::OffPackage, curTick());
        if (!offPackage_.tryAccess(wr))
            break;
        setSubBlock(copy.wVec, idx);
        ready &= ready - 1;
    }
}

LineCacheScheme::WritebackJob *
LineCacheScheme::findWriteback(std::uint64_t id)
{
    for (auto &job : writebackJobs_)
        if (job.id == id)
            return &job;
    return nullptr;
}

void
LineCacheScheme::tick()
{
    while (!pendingQ_.empty() && attemptAccess(pendingQ_.front())) {
        retry_.pay(); // A refused sender may take the freed slot.
        pendingQ_.pop_front();
    }
    // Only backpressured MSHRs are re-pumped: everything else drives
    // itself forward from arrival callbacks (Mshr::blocked).
    for (std::size_t i = 0; i < mshrs_.size(); ++i) {
        Mshr &m = mshrs_[i];
        if (!m.valid || !m.blocked)
            continue;
        if (m.launched)
            pumpMshr(i);
        else
            retryLaunch(i);
    }
    for (auto it = writebackJobs_.begin();
         it != writebackJobs_.end();) {
        pumpWriteback(*it);
        if (it->copy.wVec == allBlocks_)
            it = writebackJobs_.erase(it);
        else
            ++it;
    }
}

void
LineCacheScheme::checkDrained() const
{
    NOMAD_CHECK(*this, activeMshrs_ == 0,
                "MSHR leak: ", activeMshrs_, " still active at drain");
    NOMAD_CHECK(*this, writebackJobs_.empty(),
                "writeback leak: ", writebackJobs_.size(),
                " jobs still streaming at drain");
    NOMAD_CHECK(*this, pendingQ_.empty(),
                "DC controller leak: ", pendingQ_.size(),
                " accesses still queued at drain");
}

void
LineCacheScheme::snapshot(harden::Snapshot &snap) const
{
    snap.set(name_, "activeMshrs", static_cast<double>(activeMshrs_));
    snap.set(name_, "writebackJobs",
             static_cast<double>(writebackJobs_.size()));
    snap.set(name_, "pendingAccesses",
             static_cast<double>(pendingQ_.size()));
}

void
LineCacheScheme::collectStats(SystemResults &r) const
{
    r.fills = static_cast<std::uint64_t>(dcMisses.value());
    r.writebacks = static_cast<std::uint64_t>(dirtyWritebacks.value());
    if (r.seconds > 0) {
        const double bytes =
            (dcMisses.value() + dirtyWritebacks.value()) *
            params_.lineBytes;
        r.rmhbGBs = bytes / BytesPerGB / r.seconds;
    }
}

void
LineCacheScheme::samplerProbes(StatSampler &sampler)
{
    sampler.addProbe(name_ + ".mshr.active", [this]() {
        return static_cast<double>(activeMshrs_);
    });
    sampler.addStat(&dcMisses);
    sampler.addStat(&dirtyWritebacks);
}

} // namespace nomad
