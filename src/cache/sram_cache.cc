#include "sram_cache.hh"

#include <algorithm>

namespace nomad
{

SramCache::SramCache(Simulation &sim, const std::string &name,
                     const CacheParams &params, MemPort *downstream)
    : SimObject(sim, name),
      hits(name + ".hits", "demand hits"),
      misses(name + ".misses", "demand misses (MSHR allocations)"),
      missesMerged(name + ".missesMerged",
                   "requests merged into an in-flight MSHR"),
      writebacks(name + ".writebacks", "dirty lines written back"),
      rejects(name + ".rejects", "requests rejected (backpressure)"),
      invalidations(name + ".invalidations",
                    "lines killed by range invalidation"),
      missLatency(name + ".missLatency",
                  "MSHR allocation to fill latency (ticks)"),
      params_(params), downstream_(downstream)
{
    fatal_if(params.sizeBytes % (params.assoc * BlockBytes) != 0,
             name, ": size must be a multiple of assoc * 64B");
    numSets_ = params.sizeBytes / (params.assoc * BlockBytes);
    lineKeys_.assign(numSets_ * params.assoc, 0);
    lineDirty_.assign(numSets_ * params.assoc, 0);
    mshrs_.resize(params.mshrs);
    mshrIndex_.reserve(params.mshrs);

    auto &reg = sim.statistics();
    reg.add(&hits);
    reg.add(&misses);
    reg.add(&missesMerged);
    reg.add(&writebacks);
    reg.add(&rejects);
    reg.add(&invalidations);
    reg.add(&missLatency);

    wakeIdx_ = sim.addClocked(this, 1);
}

std::size_t
SramCache::findLine(MemSpace space, Addr block) const
{
    const Addr key = keyOf(space, block);
    const std::size_t base = setIndex(block) * params_.assoc;
    const Addr *keys = &lineKeys_[base];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (keys[w] == key)
            return base + w;
    }
    return NoLine;
}

std::size_t
SramCache::moveToFront(std::size_t line)
{
    const std::size_t base = line - line % params_.assoc;
    const Addr key = lineKeys_[line];
    const std::uint8_t dirty = lineDirty_[line];
    for (std::size_t i = line; i > base; --i) {
        lineKeys_[i] = lineKeys_[i - 1];
        lineDirty_[i] = lineDirty_[i - 1];
    }
    lineKeys_[base] = key;
    lineDirty_[base] = dirty;
    return base;
}

void
SramCache::removeLine(std::size_t line)
{
    const std::size_t last = line - line % params_.assoc + params_.assoc - 1;
    for (std::size_t i = line; i < last; ++i) {
        lineKeys_[i] = lineKeys_[i + 1];
        lineDirty_[i] = lineDirty_[i + 1];
    }
    lineKeys_[last] = 0;
    lineDirty_[last] = false;
}

SramCache::Mshr *
SramCache::findMshr(MemSpace space, Addr block)
{
    if (const std::uint32_t *slot =
            mshrIndex_.find(keyOf(space, block))) {
        return &mshrs_[*slot];
    }
    return nullptr;
}

SramCache::Mshr *
SramCache::allocMshr(MemSpace space, Addr block)
{
    // Under MSHR saturation every retry re-scanned the full array just
    // to fail; the occupancy count answers that in one compare.
    if (activeMshrs_ == params_.mshrs)
        return nullptr;
    for (auto &m : mshrs_) {
        if (!m.valid) {
            m.valid = true;
            m.discard = false;
            m.fillIssued = false;
            m.wantDirty = false;
            m.space = space;
            m.block = block;
            m.allocated = curTick();
            m.targets.clear();
            ++activeMshrs_;
            mshrIndex_.insert(
                keyOf(space, block),
                static_cast<std::uint32_t>(&m - mshrs_.data()));
            return &m;
        }
    }
    return nullptr;
}

bool
SramCache::tryAccess(const MemRequestPtr &req)
{
    sim_.pokeClocked(wakeIdx_);
    const Tick now = curTick();
    const Addr block = blockAlign(req->addr);
    const MemSpace space = req->space;

    if (std::size_t line = findLine(space, block); line != NoLine) {
        line = moveToFront(line);
        if (req->isWrite)
            lineDirty_[line] = true;
        ++hits;
        const Tick done = now + params_.hitLatency;
        auto r = req;
        schedule(params_.hitLatency, [r, done]() { r->complete(done); });
        return true;
    }

    Mshr *inflight = findMshr(space, block);

    if (req->isWrite && req->fullLine && !inflight) {
        // A full-line writeback from the level above: install directly
        // without fetching the stale copy from below. A refused read of
        // this block (another sender's) would now hit.
        retry_.pay();
        installLine(space, block, true);
        ++hits;
        req->complete(now + params_.hitLatency);
        return true;
    }

    if (Mshr *mshr = inflight) {
        if (mshr->targets.size() >= params_.targetsPerMshr) {
            ++rejects;
            retry_.owe(*req);
            return false;
        }
        mshr->targets.push_back(req);
        if (req->isWrite)
            mshr->wantDirty = true;
        ++missesMerged;
        return true;
    }

    Mshr *mshr = allocMshr(space, block);
    if (!mshr) {
        ++rejects;
        retry_.owe(*req);
        return false;
    }
    ++misses;
    mshr->targets.push_back(req);
    mshr->wantDirty = req->isWrite;
    issueFill(mshr);
    return true;
}

void
SramCache::issueFill(Mshr *mshr)
{
    // The fill inherits the category of its first target so DRAM-level
    // traffic accounting stays faithful to the original cause.
    const Category cat = mshr->targets.front()->category;
    auto fill = makeRequest(
        mshr->block, false, cat, mshr->space, curTick(),
        [this, mshr](Tick when) { handleFill(mshr, when); });
    mshr->fillIssued = true;
    pushDownstream(fill);
}

void
SramCache::handleFill(Mshr *mshr, Tick when)
{
    sim_.pokeClocked(wakeIdx_);
    retry_.pay();
    panic_if(!mshr->valid, name_, ": fill for an invalid MSHR");
    missLatency.sample(static_cast<double>(when - mshr->allocated));
    // Discarded MSHRs left the index when the range invalidation hit
    // them; erasing here could clobber a newer MSHR reusing the key.
    if (!mshr->discard) {
        mshrIndex_.erase(keyOf(mshr->space, mshr->block));
        installLine(mshr->space, mshr->block, mshr->wantDirty);
    }
    // Respond to all merged requests. Completing in a fresh callback
    // keeps reentrancy out of the DRAM completion path.
    for (auto &target : mshr->targets)
        target->complete(when);
    mshr->targets.clear();
    mshr->valid = false;
    --activeMshrs_;
}

void
SramCache::installLine(MemSpace space, Addr block, bool dirty)
{
    // The last way is the victim: invalid if the set has room,
    // otherwise its oldest line.
    const std::size_t victim =
        setIndex(block) * params_.assoc + params_.assoc - 1;
    if (lineKeys_[victim] != 0 && lineDirty_[victim]) {
        ++writebacks;
        const Addr key = lineKeys_[victim];
        auto wb = makeRequest(blockOfKey(key), true, Category::Demand,
                              spaceOfKey(key), curTick());
        wb->fullLine = true;
        pushDownstream(wb);
    }
    lineKeys_[victim] = keyOf(space, block);
    lineDirty_[victim] = dirty;
    moveToFront(victim);
}

void
SramCache::pushDownstream(const MemRequestPtr &req)
{
    req->sender = this;
    if (sendQ_.empty()) {
        if (downstream_->tryAccess(req))
            return;
        sendBlocked_ = true;
    }
    sendQ_.push_back(req);
}

void
SramCache::tick()
{
    if (sendBlocked_) {
        // Nothing that could let the downstream accept the head has
        // happened since it refused it (recvRetry() would have cleared
        // the flag), so a re-offer is refused again: count it only.
        downstream_->chargeRejects(1);
        return;
    }
    while (!sendQ_.empty()) {
        if (!downstream_->tryAccess(sendQ_.front())) {
            sendBlocked_ = true; // Sleep until recvRetry().
            return;
        }
        sendQ_.pop_front();
    }
}

void
SramCache::recvRetry()
{
    if (!sendBlocked_)
        return;
    sim_.pokeClocked(wakeIdx_);
    sendBlocked_ = false;
}

std::uint32_t
SramCache::invalidateRange(MemSpace space, Addr base, std::uint64_t len)
{
    sim_.pokeClocked(wakeIdx_);
    retry_.pay();
    std::uint32_t killed = 0;
    for (Addr a = blockAlign(base); a < base + len; a += BlockBytes) {
        if (const std::size_t line = findLine(space, a); line != NoLine) {
            if (lineDirty_[line]) {
                ++writebacks;
                auto wb = makeRequest(a, true, Category::Demand, space,
                                      curTick());
                wb->fullLine = true;
                pushDownstream(wb);
            }
            removeLine(line);
            ++killed;
        }
        if (Mshr *mshr = findMshr(space, a)) {
            mshr->discard = true;
            // findMshr skips discarded MSHRs; keep the index in step.
            mshrIndex_.erase(keyOf(space, a));
        }
    }
    invalidations += killed;
    return killed;
}

bool
SramCache::isCached(MemSpace space, Addr addr) const
{
    const Addr block = blockAlign(addr);
    const Addr key = keyOf(space, block);
    const Addr *keys = &lineKeys_[setIndex(block) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (keys[w] == key)
            return true;
    }
    return false;
}

} // namespace nomad
