#include "tid_scheme.hh"

#include "dramcache/scheme_registry.hh"
#include "dramcache/scheme_results.hh"
#include "sim/stat_sampler.hh"
#include "sim/trace.hh"
#include "system/system.hh"

namespace nomad
{

TidScheme::TidScheme(Simulation &sim, const std::string &name,
                     const TidParams &params, DramDevice &off_package,
                     DramDevice &on_package, PageTable &page_table)
    : DramCacheScheme(sim, name, off_package, &on_package, page_table),
      dcHits(name + ".dcHits", "DRAM cache line hits"),
      dcMisses(name + ".dcMisses", "DRAM cache line misses"),
      dcMissesMerged(name + ".dcMissesMerged",
                     "accesses merged into in-flight MSHRs"),
      conflictEvictions(name + ".conflictEvictions",
                        "valid lines evicted on allocation"),
      dirtyWritebacks(name + ".dirtyWritebacks",
                      "dirty victim lines written back"),
      tagReads(name + ".tagReads", "metadata read bursts"),
      tagWrites(name + ".tagWrites", "metadata write bursts"),
      rejects(name + ".rejects", "accesses rejected (backpressure)"),
      params_(params), mshrCounterName_(name + ".mshr")
{
    fatal_if(params.lineBytes % BlockBytes != 0 ||
                 params.lineBytes < BlockBytes,
             name, ": line size must be a multiple of 64B");
    fatal_if(params.lineBytes / BlockBytes > 64,
             name, ": at most 64 blocks per line (bit vectors)");
    fatal_if(params.capacityBytes %
                     (params.lineBytes * params.assoc) != 0,
             name, ": capacity must divide into sets");
    numSets_ = params.capacityBytes / (params.lineBytes * params.assoc);
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
    reg.add(&tagReads);
    reg.add(&tagWrites);
    reg.add(&rejects);

    wakeIdx_ = sim.addClocked(this, 1);
}

std::uint64_t
TidScheme::setOf(Addr line_addr) const
{
    return (line_addr / params_.lineBytes) % numSets_;
}

std::uint64_t
TidScheme::tagOf(Addr line_addr) const
{
    return line_addr / params_.lineBytes;
}

Addr
TidScheme::hbmAddrOf(std::uint64_t set, std::uint32_t way,
                     std::uint32_t block_idx) const
{
    return (set * params_.assoc + way) * params_.lineBytes +
           static_cast<Addr>(block_idx) * BlockBytes;
}

TidScheme::TagEntry &
TidScheme::entry(std::uint64_t set, std::uint32_t way)
{
    return tags_[set * params_.assoc + way];
}

TidScheme::Mshr *
TidScheme::findMshr(Addr line_addr)
{
    if (const std::uint32_t *slot = mshrIndex_.find(line_addr))
        return &mshrs_[*slot];
    return nullptr;
}

TidScheme::Mshr *
TidScheme::allocMshr()
{
    if (activeMshrs_ == params_.mshrs)
        return nullptr;
    for (auto &m : mshrs_) {
        if (!m.valid) {
            m.valid = true;
            m.rVec = 0;
            m.bVec = 0;
            m.wVec = 0;
            m.readsInFlight = 0;
            m.makeDirty = false;
            m.blocked = false;
            m.targets.clear();
            ++activeMshrs_;
            return &m;
        }
    }
    return nullptr;
}

void
TidScheme::issueMetadataRead(std::uint64_t set)
{
    // Tags live in the same row as the set's data, so the burst is
    // row-buffer friendly. Fire-and-forget: with the ideal way
    // predictor the data access proceeds in parallel; the cost is
    // on-package bandwidth, which is exactly what Fig 1a illustrates.
    ++tagReads;
    auto req = makeRequest(hbmAddrOf(set, 0, 0), false,
                           Category::Metadata, MemSpace::OnPackage,
                           curTick());
    (void)onPackage_->tryAccess(req); // Dropped if full: probe retried
                                      // with the access itself.
}

void
TidScheme::issueMetadataWrite(std::uint64_t set)
{
    if (params_.metadataWriteProb < 1.0 &&
        !metaRng_.chance(params_.metadataWriteProb)) {
        return;
    }
    ++tagWrites;
    auto req = makeRequest(hbmAddrOf(set, 0, 0), true,
                           Category::Metadata, MemSpace::OnPackage,
                           curTick());
    (void)onPackage_->tryAccess(req);
}

bool
TidScheme::serviceHit(const MemRequestPtr &req, std::uint64_t set,
                      std::uint32_t way)
{
    TagEntry &e = entry(set, way);
    const std::uint32_t block_idx = static_cast<std::uint32_t>(
        (req->addr % params_.lineBytes) / BlockBytes);
    auto demand = makeRequest(hbmAddrOf(set, way, block_idx),
                              req->isWrite, Category::Demand,
                              MemSpace::OnPackage, curTick());
    // Forward completion to the original request.
    auto original = req;
    demand->onComplete = [original](Tick when) {
        original->complete(when);
    };
    if (!onPackage_->tryAccess(demand)) {
        // Queue full: retry from the controller queue. The metadata
        // probe was not issued yet (probe order below).
        return false;
    }
    e.lastUse = ++useCounter_;
    if (req->isWrite)
        e.dirty = true;
    ++dcHits;
    issueMetadataRead(set);
    issueMetadataWrite(set);
    return true;
}

bool
TidScheme::tryAccess(const MemRequestPtr &req)
{
    sim_.pokeClocked(wakeIdx_);
    panic_if(req->space != MemSpace::OffPackage,
             "TiD expects physical-address traffic");
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
TidScheme::attemptAccess(const MemRequestPtr &req)
{
    const Addr line_addr =
        req->addr - (req->addr % params_.lineBytes);
    const std::uint32_t block_idx = static_cast<std::uint32_t>(
        (req->addr % params_.lineBytes) / BlockBytes);

    // 1. Merge into an in-flight fill when possible.
    if (Mshr *m = findMshr(line_addr)) {
        if (m->targets.size() >= params_.targetsPerMshr)
            return false;
        if ((m->bVec >> block_idx) & 1ULL) {
            // The block already arrived; serve from the fill buffer.
            req->complete(curTick() + 1);
        } else {
            m->targets.push_back(Target{req, block_idx});
        }
        if (req->isWrite)
            m->makeDirty = true;
        ++dcMissesMerged;
        return true;
    }

    // 2. Probe the tag array.
    const std::uint64_t set = setOf(line_addr);
    const std::uint64_t tag = tagOf(line_addr);
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
    issueMetadataRead(set);  // The probe that discovered the miss.
    issueMetadataWrite(set); // Tag install.

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
            job.hbmLineAddr = hbmAddrOf(set, victim, 0);
            job.ddrLineAddr = v.tag * params_.lineBytes;
            writebackJobs_.push_back(job);
        }
    }
    v.valid = true;
    v.dirty = req->isWrite;
    v.tag = tag;
    v.lastUse = ++useCounter_;

    m->lineAddr = line_addr;
    mshrIndex_.insert(line_addr, static_cast<std::uint32_t>(
                                     m - mshrs_.data()));
    m->set = set;
    m->way = victim;
    m->priIdx = block_idx;
    m->makeDirty = req->isWrite;
    m->targets.push_back(Target{req, block_idx});
    startFill(m);
    return true;
}

void
TidScheme::traceMshrCounter()
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
TidScheme::startFill(Mshr *m)
{
    m->startedAt = curTick();
    m->traceId = 0;
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
    pumpMshr(*m, static_cast<std::size_t>(m - mshrs_.data()));
}

void
TidScheme::pumpMshr(Mshr &m, std::size_t slot)
{
    const bool was_blocked = m.blocked;
    m.blocked = false;
    const std::uint32_t blocks = blocksPerLine();
    const std::uint64_t all = (blocks == 64)
                                  ? ~0ULL
                                  : ((1ULL << blocks) - 1);
    // Issue off-package reads, critical block first, then sequential.
    while (m.readsInFlight < params_.maxReadsInFlight &&
           m.rVec != all) {
        int idx = -1;
        if (!((m.rVec >> m.priIdx) & 1ULL)) {
            idx = static_cast<int>(m.priIdx);
        } else {
            for (std::uint32_t off = 0; off < blocks; ++off) {
                const std::uint32_t i = (m.priIdx + off) % blocks;
                if (!((m.rVec >> i) & 1ULL)) {
                    idx = static_cast<int>(i);
                    break;
                }
            }
        }
        if (idx < 0)
            break;
        const std::uint64_t gen = m.generation;
        auto req = makeRequest(
            m.lineAddr + static_cast<Addr>(idx) * BlockBytes, false,
            Category::Fill, MemSpace::OffPackage, curTick(),
            [this, slot, gen, idx](Tick when) {
                onFillBlock(slot, gen,
                            static_cast<std::uint32_t>(idx), when);
            });
        if (!offPackage_.tryAccess(req)) {
            m.blocked = true;
            break;
        }
        m.rVec |= (1ULL << idx);
        ++m.readsInFlight;
    }

    // Drain arrived blocks into the on-package data array.
    std::uint64_t ready = m.bVec & ~m.wVec;
    while (ready != 0) {
        const auto idx =
            static_cast<std::uint32_t>(__builtin_ctzll(ready));
        auto wr = makeRequest(hbmAddrOf(m.set, m.way, idx), true,
                              Category::Fill, MemSpace::OnPackage,
                              curTick());
        if (!onPackage_->tryAccess(wr)) {
            m.blocked = true;
            break;
        }
        m.wVec |= (1ULL << idx);
        ready &= ready - 1;
    }

    if (m.wVec == all) {
        if (auto *sink = m.traceId ? tracer() : nullptr) {
            sink->asyncEnd(
                tracePid(), "linefill", trace::Cat::Copy, m.traceId,
                curTick(),
                {{"latency",
                  static_cast<double>(curTick() - m.startedAt)}});
        }
        m.traceId = 0;
        ++m.generation;
        m.valid = false;
        mshrIndex_.erase(m.lineAddr);
        --activeMshrs_;
        traceMshrCounter();
    }
    if (m.blocked != was_blocked) {
        if (m.blocked)
            ++blockedMshrs_;
        else
            --blockedMshrs_;
    }
}

void
TidScheme::onFillBlock(std::size_t slot, std::uint64_t gen,
                       std::uint32_t idx, Tick when)
{
    sim_.pokeClocked(wakeIdx_);
    Mshr &m = mshrs_[slot];
    if (!m.valid || m.generation != gen)
        return;
    --m.readsInFlight;
    m.bVec |= (1ULL << idx);
    if (idx == m.priIdx) {
        if (auto *sink = m.traceId ? tracer() : nullptr) {
            sink->asyncInstant(
                tracePid(), "critical_block", trace::Cat::Copy,
                m.traceId, when,
                {{"block", static_cast<double>(idx)}});
        }
    }
    // Critical-block-first response: targets complete on arrival.
    for (auto it = m.targets.begin(); it != m.targets.end();) {
        if (it->blockIdx == idx) {
            it->req->complete(when + 1);
            it = m.targets.erase(it);
        } else {
            ++it;
        }
    }
    pumpMshr(m, slot);
}

void
TidScheme::pumpWriteback(WritebackJob &job)
{
    const std::uint32_t blocks = blocksPerLine();
    const std::uint64_t all = (blocks == 64)
                                  ? ~0ULL
                                  : ((1ULL << blocks) - 1);
    while (job.readsInFlight < params_.maxReadsInFlight &&
           job.rVec != all) {
        int idx = -1;
        for (std::uint32_t i = 0; i < blocks; ++i) {
            if (!((job.rVec >> i) & 1ULL)) {
                idx = static_cast<int>(i);
                break;
            }
        }
        if (idx < 0)
            break;
        const std::uint64_t id = job.id;
        auto req = makeRequest(
            job.hbmLineAddr + static_cast<Addr>(idx) * BlockBytes,
            false, Category::Writeback, MemSpace::OnPackage, curTick(),
            [this, id, idx](Tick) {
                sim_.pokeClocked(wakeIdx_);
                // Look up by id: the job vector may have reallocated.
                if (WritebackJob *j = findWriteback(id)) {
                    j->bVec |= (1ULL << idx);
                    --j->readsInFlight;
                }
            });
        if (!onPackage_->tryAccess(req))
            break;
        job.rVec |= (1ULL << idx);
        ++job.readsInFlight;
    }
    std::uint64_t ready = job.bVec & ~job.wVec;
    while (ready != 0) {
        const auto idx =
            static_cast<std::uint32_t>(__builtin_ctzll(ready));
        auto wr = makeRequest(
            job.ddrLineAddr + static_cast<Addr>(idx) * BlockBytes, true,
            Category::Writeback, MemSpace::OffPackage, curTick());
        if (!offPackage_.tryAccess(wr))
            break;
        job.wVec |= (1ULL << idx);
        ready &= ready - 1;
    }
}

TidScheme::WritebackJob *
TidScheme::findWriteback(std::uint64_t id)
{
    for (auto &job : writebackJobs_)
        if (job.id == id)
            return &job;
    return nullptr;
}

void
TidScheme::tick()
{
    while (!pendingQ_.empty() && attemptAccess(pendingQ_.front())) {
        retry_.pay(); // A refused sender may take the freed slot.
        pendingQ_.pop_front();
    }
    // Only backpressured MSHRs are re-pumped: everything else drives
    // itself forward from fill-arrival callbacks (Mshr::blocked).
    for (std::size_t i = 0; i < mshrs_.size(); ++i) {
        if (mshrs_[i].valid && mshrs_[i].blocked)
            pumpMshr(mshrs_[i], i);
    }
    const std::uint32_t blocks = blocksPerLine();
    const std::uint64_t all = (blocks == 64)
                                  ? ~0ULL
                                  : ((1ULL << blocks) - 1);
    for (auto it = writebackJobs_.begin(); it != writebackJobs_.end();) {
        pumpWriteback(*it);
        if (it->wVec == all)
            it = writebackJobs_.erase(it);
        else
            ++it;
    }
}

void
TidScheme::collectStats(SystemResults &r) const
{
    r.fills = static_cast<std::uint64_t>(dcMisses.value());
    r.writebacks = static_cast<std::uint64_t>(dirtyWritebacks.value());
    const double bytes =
        (dcMisses.value() + dirtyWritebacks.value()) *
        params_.lineBytes;
    r.rmhbGBs = r.seconds > 0 ? bytes / BytesPerGB / r.seconds : 0;
}

void
TidScheme::samplerProbes(StatSampler &sampler)
{
    sampler.addProbe("tid.mshr.active", [this]() {
        return static_cast<double>(activeMshrs_);
    });
    sampler.addStat(&dcMisses);
    sampler.addStat(&dirtyWritebacks);
}

void
registerTidScheme(SchemeRegistry &reg)
{
    SchemeEntry entry;
    entry.kind = SchemeKind::Tid;
    entry.name = schemeKindName(SchemeKind::Tid);
    entry.description =
        "Unison-style HW cache with tags in on-package DRAM";
    entry.factory = [](const SchemeBuildContext &ctx)
        -> std::unique_ptr<DramCacheScheme> {
        TidParams p = ctx.config.tid;
        p.capacityBytes = ctx.config.dcFrames * PageBytes;
        return std::make_unique<TidScheme>(ctx.sim, "tid", p,
                                           ctx.offPackage,
                                           ctx.onPackage,
                                           ctx.pageTable);
    };
    entry.validate = [](const SystemConfig &cfg) {
        auto reject = [](const std::string &msg) {
            throw harden::SimError(harden::ErrorKind::ConfigError,
                                   "bad config: " + msg);
        };
        if (cfg.tid.mshrs == 0)
            reject("tid.mshrs must be >= 1");
        if (cfg.tid.assoc == 0 || cfg.tid.lineBytes == 0)
            reject("tid assoc/lineBytes must be nonzero");
    };
    reg.add(std::move(entry));
}

} // namespace nomad
