#include "nomad_backend.hh"

#include "harden/check.hh"
#include "harden/diag.hh"
#include "harden/fault.hh"
#include "sim/trace.hh"

namespace nomad
{

namespace
{

/** Async-span name of a page-copy lifecycle (one per command type). */
const char *
copySpanName(bool is_writeback)
{
    return is_writeback ? "writeback" : "fill";
}

} // namespace

NomadBackEnd::NomadBackEnd(Simulation &sim, const std::string &name,
                           const NomadBackEndParams &params,
                           DramDevice &on_package,
                           DramDevice &off_package)
    : SimObject(sim, name),
      fillCommands(name + ".fillCommands", "cache-fill commands"),
      writebackCommands(name + ".writebackCommands",
                        "writeback commands"),
      interfaceWait(name + ".interfaceWait",
                    "command wait for a free PCSHR (ticks)"),
      dataHits(name + ".dataHits", "DC accesses with no PCSHR match"),
      dataMisses(name + ".dataMisses", "DC accesses matching a PCSHR"),
      bufferReadHits(name + ".bufferReadHits",
                     "read data-misses served from a page copy buffer"),
      bufferWrites(name + ".bufferWrites",
                   "write data-misses absorbed by a page copy buffer"),
      pendingServed(name + ".pendingServed",
                    "sub-entry reads served on sub-block arrival"),
      subEntryRejects(name + ".subEntryRejects",
                      "accesses rejected with full sub-entries"),
      readsSkipped(name + ".readsSkipped",
                   "source reads avoided by the R vector"),
      staleReadsDropped(name + ".staleReadsDropped",
                        "read arrivals dropped by local overwrites"),
      fillLatency(name + ".fillLatency",
                  "command accept to page completion (ticks)"),
      copyRetries(name + ".copyRetries",
                  "copy-timeout abort-and-refetch events"),
      params_(params),
      engine_(sim, name, *this, on_package, off_package, params.numPcshrs,
              params.maxReadsInFlight, params.copyTimeoutTicks,
              staleReadsDropped, copyRetries),
      pcshrs_(params.numPcshrs), pcshrCounterName_(name + ".pcshr")
{
    fatal_if(params.numPcshrs == 0, name, ": need at least one PCSHR");
    fatal_if(params.subEntriesPerPcshr == 0,
             name, ": need at least one sub-entry");
    if (params_.numBuffers == 0)
        params_.numBuffers = params_.numPcshrs;
    freeBuffers_ = params_.numBuffers;

    for (auto &p : pcshrs_)
        p.subEntries.resize(params.subEntriesPerPcshr);
    fillIndex_.reserve(params.numPcshrs);

    auto &reg = sim.statistics();
    reg.add(&fillCommands);
    reg.add(&writebackCommands);
    reg.add(&interfaceWait);
    reg.add(&dataHits);
    reg.add(&dataMisses);
    reg.add(&bufferReadHits);
    reg.add(&bufferWrites);
    reg.add(&pendingServed);
    reg.add(&subEntryRejects);
    reg.add(&readsSkipped);
    reg.add(&staleReadsDropped);
    reg.add(&fillLatency);

    // The retry stat only exists on hardened runs so the default
    // stats-JSON stream stays byte-identical without a context.
    if (sim.harden())
        reg.add(&copyRetries);

    engine_.setClockedHandle(sim.addClocked(this, 1));
}

void
NomadBackEnd::sendCacheFill(PageNum cfn, PageNum pfn,
                            std::uint32_t pri_sub_block,
                            AcceptCallback accepted, CompleteCallback done)
{
    engine_.poke();
    WaitingCmd cmd;
    cmd.isWriteback = false;
    cmd.cfn = cfn;
    cmd.pfn = pfn;
    cmd.priIdx = pri_sub_block;
    cmd.arrived = curTick();
    cmd.accepted = std::move(accepted);
    cmd.done = std::move(done);
    submit(std::move(cmd));
}

void
NomadBackEnd::sendWriteback(PageNum cfn, PageNum pfn,
                            AcceptCallback accepted, CompleteCallback done)
{
    engine_.poke();
    WaitingCmd cmd;
    cmd.isWriteback = true;
    cmd.cfn = cfn;
    cmd.pfn = pfn;
    cmd.arrived = curTick();
    cmd.accepted = std::move(accepted);
    cmd.done = std::move(done);
    submit(std::move(cmd));
}

void
NomadBackEnd::submit(WaitingCmd cmd)
{
    engine_.wake();
    // Lifecycle span: opens when the command reaches the interface
    // register, closes when the page copy retires (releasePcshr).
    if (auto *sink = tracer();
        sink && sink->enabled(trace::Cat::Copy)) {
        cmd.traceId = sink->nextAsyncId();
        sink->asyncBegin(tracePid(), copySpanName(cmd.isWriteback),
                         trace::Cat::Copy, cmd.traceId, curTick(),
                         {{"cfn", static_cast<double>(cmd.cfn)},
                          {"pfn", static_cast<double>(cmd.pfn)},
                          {"pri_idx",
                           static_cast<double>(cmd.priIdx)}});
    }
    harden::FaultInjector *injector = engine_.injector();
    if (injector && injector->allocationBlocked(curTick())) {
        // Injected PCSHR-exhaustion burst: the command queues behind
        // the busy interface exactly as if no register were free
        // (graceful degradation to blocking behaviour, Section IV-B).
        ++injector->blockedCommands;
        waitQ_.push_back(std::move(cmd));
        return;
    }
    if (waitQ_.empty()) {
        const int slot = engine_.findFreeSlot();
        if (slot >= 0) {
            allocate(std::move(cmd), slot);
            return;
        }
    }
    // Interface stays busy (S bit set) until a PCSHR frees.
    waitQ_.push_back(std::move(cmd));
}

void
NomadBackEnd::allocate(WaitingCmd cmd, int slot)
{
    const Tick now = curTick();
    CopySlot &s = engine_.start(
        slot, cmd.isWriteback, cmd.pfn, cmd.cfn,
        !cmd.isWriteback && params_.criticalDataFirst,
        cmd.priIdx % SubBlocksPerPage);
    s.traceId = cmd.traceId;
    Pcshr &p = pcshrs_[slot];
    p.onDone = std::move(cmd.done);
    for (auto &se : p.subEntries)
        se = SubEntry{};
    if (!s.writeback)
        fillIndex_.insert(s.cfn, slot);

    if (auto *sink = tracer(); sink && s.traceId) {
        sink->asyncInstant(tracePid(), "pcshr_alloc", trace::Cat::Copy,
                           s.traceId, now,
                           {{"slot", static_cast<double>(slot)},
                            {"wait",
                             static_cast<double>(now - cmd.arrived)}});
    }
    tracePcshrCounter();

    if (cmd.isWriteback)
        ++writebackCommands;
    else
        ++fillCommands;
    interfaceWait.sample(static_cast<double>(now - cmd.arrived));

    if (freeBuffers_ > 0) {
        --freeBuffers_;
        assignBuffer(slot);
    } else {
        bufferWaiters_.push_back(slot);
    }

    if (cmd.accepted)
        cmd.accepted(now);
}

void
NomadBackEnd::assignBuffer(int slot)
{
    Pcshr &p = pcshrs_[slot];
    CopySlot &s = engine_.slot(slot);
    p.bufferId = 0; // Identity is irrelevant; presence gates transfers.
    s.lastProgress = curTick();
    // Serve write sub-entries that were waiting for buffer space
    // (area-optimized configurations only).
    for (auto &se : p.subEntries) {
        if (se.valid && se.isWrite) {
            setSubBlock(s.bVec, se.subIdx);
            setSubBlock(s.localVec, se.subIdx);
            if (!subBlockSet(s.rVec, se.subIdx)) {
                setSubBlock(s.rVec, se.subIdx);
                ++readsSkipped;
            }
            ++bufferWrites;
            se.req->complete(curTick());
            se = SubEntry{};
        }
    }
    // A parked read whose sub-block an absorbed write just deposited
    // would otherwise wait forever: the source-read arrival that
    // normally serves it is dropped as stale against the B vector.
    for (auto &se : p.subEntries) {
        if (se.valid && !se.isWrite && subBlockSet(s.bVec, se.subIdx)) {
            ++pendingServed;
            se.req->complete(curTick() + params_.bufferReadLatency);
            se = SubEntry{};
        }
    }
}

bool
NomadBackEnd::canTransfer(int slot) const
{
    return pcshrs_[slot].bufferId >= 0;
}

int
NomadBackEnd::demandedSubBlock(int slot) const
{
    if (!params_.dynamicReprioritize)
        return -1;
    // Sub-blocks demanded by parked sub-entries jump the queue.
    const std::uint64_t r_vec = engine_.slot(slot).rVec;
    for (const auto &se : pcshrs_[slot].subEntries) {
        if (se.valid && !se.isWrite && !subBlockSet(r_vec, se.subIdx))
            return static_cast<int>(se.subIdx);
    }
    return -1;
}

void
NomadBackEnd::subBlockArrived(int slot, std::uint32_t idx, Tick when)
{
    // Serve the reads parked on this sub-block from the page copy
    // buffer.
    const std::uint64_t trace_id = engine_.slot(slot).traceId;
    trace::TraceSink *sink = trace_id ? tracer() : nullptr;
    for (auto &se : pcshrs_[slot].subEntries) {
        if (se.valid && !se.isWrite && se.subIdx == idx) {
            ++pendingServed;
            se.req->complete(when + params_.bufferReadLatency);
            se = SubEntry{};
            if (sink) {
                sink->asyncInstant(
                    tracePid(), "subentry_served", trace::Cat::Copy,
                    trace_id, when,
                    {{"sub_block", static_cast<double>(idx)}});
            }
        }
    }
}

void
NomadBackEnd::copyDone(int slot)
{
    const Pcshr &p = pcshrs_[slot];
    const CopySlot &s = engine_.slot(slot);
    for (const auto &se : p.subEntries) {
        NOMAD_CHECK(*this, !se.valid,
                    "sub-entry for sub-block ", se.subIdx,
                    " still parked at completion of cfn ", s.cfn);
    }
    fillLatency.sample(static_cast<double>(curTick() - s.acceptedAt));
    if (p.onDone)
        p.onDone(curTick());
    releasePcshr(slot);
}

void
NomadBackEnd::tracePcshrCounter()
{
    if (auto *sink = tracer()) {
        sink->counter(tracePid(), pcshrCounterName_.c_str(), curTick(),
                      {{"active",
                        static_cast<double>(engine_.activeSlots())},
                       {"queued",
                        static_cast<double>(waitQ_.size())}});
    }
}

void
NomadBackEnd::releasePcshr(int slot)
{
    const CopySlot &s = engine_.slot(slot);
    if (auto *sink = s.traceId ? tracer() : nullptr) {
        sink->asyncEnd(tracePid(), copySpanName(s.writeback),
                       trace::Cat::Copy, s.traceId, curTick(),
                       {{"latency", static_cast<double>(
                                        curTick() - s.acceptedAt)}});
    }
    if (!s.writeback)
        fillIndex_.erase(s.cfn);
    engine_.release(slot);
    tracePcshrCounter();

    // Pass the page copy buffer to the next waiter, FIFO.
    if (!bufferWaiters_.empty()) {
        const int next = bufferWaiters_.front();
        bufferWaiters_.pop_front();
        assignBuffer(next);
    } else {
        ++freeBuffers_;
    }
    pcshrs_[slot].bufferId = -1;

    // The interface can now hand a waiting command to this slot —
    // unless an injected exhaustion burst holds allocation closed, in
    // which case tick() drains the queue once the window passes.
    harden::FaultInjector *injector = engine_.injector();
    if (!waitQ_.empty() &&
        !(injector && injector->allocationBlocked(curTick()))) {
        WaitingCmd cmd = std::move(waitQ_.front());
        waitQ_.pop_front();
        allocate(std::move(cmd), slot);
    }
}

NomadBackEnd::AccessResult
NomadBackEnd::access(const MemRequestPtr &req)
{
    engine_.poke();
    panic_if(req->space != MemSpace::OnPackage,
             "data-hit verification is for on-package accesses");
    const PageNum cfn = pageOf(req->addr);
    const std::uint32_t idx = subBlockOf(req->addr);

    // CAM compare of the access CFN against the PCSHR tags (Fig 6),
    // modelled as an open-addressed cfn -> slot table.
    const int *match = fillIndex_.find(cfn);
    if (!match) {
        // The caller forwards to on-package DRAM and records the data
        // hit once the device accepts (avoids double counting retries).
        return AccessResult::DataHit;
    }
    const int match_slot = *match;
    Pcshr &p = pcshrs_[match_slot];
    CopySlot &s = engine_.slot(match_slot);
    // Every matched path below may mutate PCSHR state (vectors,
    // sub-entries) in ways that give the pump new work.
    engine_.wake();

    if (req->isWrite) {
        if (p.bufferId < 0) {
            // No buffer yet (area-optimized); park the write.
            for (auto &se : p.subEntries) {
                if (!se.valid) {
                    se.valid = true;
                    se.isWrite = true;
                    se.subIdx = idx;
                    se.req = req;
                    ++dataMisses;
                    if (auto *sink = s.traceId ? tracer() : nullptr) {
                        sink->asyncInstant(
                            tracePid(), "subentry_parked",
                            trace::Cat::Copy, s.traceId, curTick(),
                            {{"sub_block", static_cast<double>(idx)},
                             {"write", 1}});
                    }
                    return AccessResult::Pending;
                }
            }
            ++subEntryRejects;
            return AccessResult::Reject;
        }
        ++dataMisses;
        setSubBlock(s.bVec, idx);
        setSubBlock(s.localVec, idx);
        if (!subBlockSet(s.rVec, idx)) {
            // The R vector suppresses the now-redundant source read.
            setSubBlock(s.rVec, idx);
            ++readsSkipped;
        }
        ++bufferWrites;
        req->complete(curTick());
        // A read already parked on this sub-block must be served from
        // the newly deposited data now: the source-read arrival that
        // would have served it will be dropped as stale against the B
        // vector, so leaving the sub-entry would strand it forever.
        subBlockArrived(match_slot, idx, curTick());
        engine_.drainWrites(match_slot);
        engine_.maybeComplete(match_slot);
        return AccessResult::Serviced;
    }

    if (subBlockSet(s.bVec, idx)) {
        // Page copy buffer hit: cheaper than an on-package access.
        ++dataMisses;
        ++bufferReadHits;
        const Tick done = curTick() + params_.bufferReadLatency;
        auto r = req;
        schedule(params_.bufferReadLatency,
                 [r, done]() { r->complete(done); });
        return AccessResult::Serviced;
    }

    for (auto &se : p.subEntries) {
        if (!se.valid) {
            se.valid = true;
            se.isWrite = false;
            se.subIdx = idx;
            se.req = req;
            ++dataMisses;
            if (auto *sink = s.traceId ? tracer() : nullptr) {
                sink->asyncInstant(
                    tracePid(), "subentry_parked", trace::Cat::Copy,
                    s.traceId, curTick(),
                    {{"sub_block", static_cast<double>(idx)},
                     {"write", 0}});
            }
            return AccessResult::Pending;
        }
    }
    ++subEntryRejects;
    return AccessResult::Reject;
}

bool
NomadBackEnd::hasFillInFlight(PageNum cfn) const
{
    return fillIndex_.find(cfn) != nullptr;
}

void
NomadBackEnd::tick()
{
    // Hardened path only; it stays off the default fast path.
    if (engine_.injector())
        drainBlockedCommands();
    engine_.tick();
}

void
NomadBackEnd::drainBlockedCommands()
{
    // Commands parked by an exhaustion burst resume once the window
    // passes; the normal release-time hand-off covers the rest.
    if (waitQ_.empty() || engine_.injector()->allocationBlocked(curTick()))
        return;
    while (!waitQ_.empty()) {
        const int slot = engine_.findFreeSlot();
        if (slot < 0)
            return;
        WaitingCmd cmd = std::move(waitQ_.front());
        waitQ_.pop_front();
        allocate(std::move(cmd), slot);
    }
}

void
NomadBackEnd::checkDrained() const
{
    engine_.checkDrained();
    NOMAD_CHECK(*this, waitQ_.empty(),
                "interface leak: ", waitQ_.size(),
                " commands still queued at drain");
    NOMAD_CHECK(*this, bufferWaiters_.empty(),
                "buffer-FIFO leak: ", bufferWaiters_.size(),
                " PCSHRs still waiting for a buffer at drain");
    NOMAD_CHECK(*this, freeBuffers_ == params_.numBuffers,
                "buffer leak: ", freeBuffers_, " of ",
                params_.numBuffers, " page copy buffers free at drain");
    for (const auto &p : pcshrs_) {
        for (const auto &se : p.subEntries) {
            NOMAD_CHECK(*this, !se.valid,
                        "sub-entry leak: a request for sub-block ",
                        se.subIdx, " is still parked at drain");
        }
    }
}

void
NomadBackEnd::snapshot(harden::Snapshot &snap) const
{
    snap.set(name_, "activePcshrs",
             static_cast<double>(engine_.activeSlots()));
    snap.set(name_, "queuedCommands",
             static_cast<double>(waitQ_.size()));
    snap.set(name_, "freeBuffers", static_cast<double>(freeBuffers_));
    snap.set(name_, "bufferWaiters",
             static_cast<double>(bufferWaiters_.size()));
    for (std::size_t i = 0; i < pcshrs_.size(); ++i) {
        const CopySlot &s = engine_.slot(static_cast<int>(i));
        if (!s.valid)
            continue;
        const Pcshr &p = pcshrs_[i];
        std::uint32_t parked = 0;
        for (const auto &se : p.subEntries)
            parked += se.valid ? 1 : 0;
        snap.set(name_, "pcshr" + std::to_string(i),
                 detail::concat(
                     s.writeback ? "writeback" : "fill",
                     " cfn=", s.cfn, " pfn=", s.pfn,
                     " r=", __builtin_popcountll(s.rVec),
                     " b=", __builtin_popcountll(s.bVec),
                     " w=", __builtin_popcountll(s.wVec),
                     " inflight=", s.readsInFlight,
                     " buffer=", p.bufferId >= 0 ? 1 : 0,
                     " parked=", parked, " stuck=", s.stuck ? 1 : 0,
                     " idleFor=", curTick() - s.lastProgress));
    }
}

} // namespace nomad
