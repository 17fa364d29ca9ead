#include "copy_engine.hh"

#include <bit>

#include "harden/check.hh"
#include "harden/fault.hh"
#include "sim/trace.hh"

namespace nomad
{

CopyEngine::CopyEngine(Simulation &sim, const std::string &name,
                       Owner &owner, MemPort &near, MemPort &far,
                       std::uint32_t num_slots,
                       std::uint32_t max_reads_in_flight,
                       Tick copy_timeout, stats::Scalar &stale_reads,
                       stats::Scalar &copy_retries)
    : SimObject(sim, name), owner_(owner), near_(near), far_(far),
      maxReadsInFlight_(max_reads_in_flight), copyTimeout_(copy_timeout),
      staleReadsDropped_(stale_reads), copyRetries_(copy_retries),
      slots_(num_slots)
{
    if (const harden::Context *ctx = sim.harden())
        injector_ = ctx->injector;
}

int
CopyEngine::findFreeSlot() const
{
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].valid)
            return static_cast<int>(i);
    }
    return -1;
}

CopySlot &
CopyEngine::start(int slot, bool writeback, PageNum pfn, PageNum cfn,
                  bool pri, std::uint32_t pri_idx)
{
    pumpSleep_ = false;
    const Tick now = curTick();
    CopySlot &s = slots_[slot];
    panic_if(s.valid, "allocating a busy copy slot");

    s.valid = true;
    s.writeback = writeback;
    s.pfn = pfn;
    s.cfn = cfn;
    s.pri = pri;
    s.priIdx = pri_idx;
    s.arm(now);
    s.acceptedAt = now;
    s.stuck = injector_ != nullptr && injector_->makeStuck();
    ++activeSlots_;
    return s;
}

void
CopyEngine::release(int slot)
{
    pumpActivity_ = true;
    pumpSleep_ = false;
    CopySlot &s = slots_[slot];
    s.valid = false;
    s.traceId = 0;
    s.retire();
    --activeSlots_;
}

int
CopyEngine::pickNextRead(int slot) const
{
    const CopySlot &s = slots_[slot];
    if (s.rVec == AllSubBlocks)
        return -1;
    // 1. The prioritized (critical-data-first) sub-block.
    if (s.pri && !subBlockSet(s.rVec, s.priIdx))
        return static_cast<int>(s.priIdx);
    // 2. A sub-block the owner wants early (dynamic reprioritization).
    if (const int idx = owner_.demandedSubBlock(slot); idx >= 0)
        return idx;
    // 3. Sequential fetch, wrapping, from the prioritized index (or
    //    the lowest unread sub-block when no priority is set).
    const std::uint32_t start = s.pri ? s.priIdx : 0;
    const std::uint64_t unread = ~std::rotr(s.rVec, static_cast<int>(start));
    return static_cast<int>((start + std::countr_zero(unread)) %
                            SubBlocksPerPage);
}

bool
CopyEngine::offer(const CopySlot &s, bool near_side, std::uint32_t idx,
                  bool is_write, MemRequest::Callback cb)
{
    // A fill or promotion reads far and writes near; a writeback or
    // demotion the reverse.
    const PageNum page = near_side ? s.cfn : s.pfn;
    const Addr addr = (static_cast<Addr>(page) << PageShift) +
                      static_cast<Addr>(idx) * BlockBytes;
    auto req = makeRequest(
        addr, is_write, s.writeback ? Category::Writeback : Category::Fill,
        near_side ? MemSpace::OnPackage : MemSpace::OffPackage, curTick(),
        std::move(cb));
    req->sender = this;
    if (!(near_side ? near_ : far_).tryAccess(req))
        return false; // Queue full; the port owes a recvRetry().
    pumpActivity_ = true;
    return true;
}

void
CopyEngine::issueReads(int slot)
{
    if (!owner_.canTransfer(slot))
        return;
    CopySlot &s = slots_[slot];
    while (s.readsInFlight < maxReadsInFlight_) {
        const int pick = pickNextRead(slot);
        if (pick < 0)
            return;
        const auto idx = static_cast<std::uint32_t>(pick);
        const std::uint64_t gen = s.generation;
        if (!offer(s, s.writeback, idx, false,
                   [this, slot, gen, idx](Tick when) {
                       onReadArrive(slot, gen, idx, when);
                   })) {
            return;
        }
        setSubBlock(s.rVec, idx);
        ++s.readsInFlight;
    }
}

void
CopyEngine::onReadArrive(int slot, std::uint64_t gen, std::uint32_t idx,
                         Tick when)
{
    // Fault filter: current-generation responses may be swallowed
    // (stuck copy), dropped, or delayed before the model sees them.
    // Lost responses keep readsInFlight held — the data is gone, not
    // late — so recovery is the copy timeout's abort-and-refetch.
    if (injector_) {
        const CopySlot &s = slots_[slot];
        if (s.valid && s.generation == gen) {
            if (s.stuck)
                return;
            Tick extra = 0;
            switch (injector_->onDramResponse(extra)) {
              case harden::FaultInjector::Response::Drop:
                return;
              case harden::FaultInjector::Response::Delay:
                schedule(extra, [this, slot, gen, idx]() {
                    deliverRead(slot, gen, idx, curTick());
                });
                return;
              case harden::FaultInjector::Response::Deliver:
                break;
            }
        }
    }
    deliverRead(slot, gen, idx, when);
}

void
CopyEngine::deliverRead(int slot, std::uint64_t gen, std::uint32_t idx,
                        Tick when)
{
    poke();
    // An arrival frees a read-in-flight slot (and may unblock parked
    // sub-entries), so the pump owes this slot a pass.
    pumpSleep_ = false;
    CopySlot &s = slots_[slot];
    if (!s.valid || s.generation != gen) {
        // The slot was released (the copy completed through local
        // writes, or was cancelled) or its copy was rewound; the late
        // arrival carries no usable data.
        ++staleReadsDropped_;
        return;
    }
    panic_if(s.readsInFlight == 0, "read arrival without issue");
    --s.readsInFlight;
    if (subBlockSet(s.bVec, idx)) {
        // Only a local write (NOMAD's write data-miss into the page
        // copy buffer) may deposit a sub-block ahead of its read.
        NOMAD_CHECK(*this, subBlockSet(s.localVec, idx),
                    "sub-block ", idx, " arrived twice in one generation");
        ++staleReadsDropped_;
        return;
    }
    NOMAD_CHECK(*this, subBlockSet(s.rVec, idx),
                "sub-block ", idx, " arrived without a read issued");
    setSubBlock(s.bVec, idx);
    s.lastProgress = when;
    NOMAD_CHECK(*this, (s.bVec & ~s.rVec) == 0,
                "B vector not a subset of R after arrival of sub-block ",
                idx);

    trace::TraceSink *sink = s.traceId ? tracer() : nullptr;
    if (sink && s.pri && idx == s.priIdx) {
        // The critical-data-first sub-block landed in the buffer.
        sink->asyncInstant(tracePid(), "critical_block",
                           trace::Cat::Copy, s.traceId, when,
                           {{"sub_block", static_cast<double>(idx)}});
    }

    owner_.subBlockArrived(slot, idx, when);
    drainWrites(slot);
    maybeComplete(slot);
}

void
CopyEngine::drainWrites(int slot)
{
    CopySlot &s = slots_[slot];
    if (!s.valid)
        return;
    NOMAD_CHECK(*this, (s.wVec & ~s.bVec) == 0,
                "W vector not a subset of B for cfn ", s.cfn, " pfn ",
                s.pfn);
    std::uint64_t ready = s.bVec & ~s.wVec;
    while (ready != 0) {
        const auto idx =
            static_cast<std::uint32_t>(std::countr_zero(ready));
        if (!offer(s, !s.writeback, idx, true, nullptr))
            return;
        setSubBlock(s.wVec, idx);
        s.lastProgress = curTick();
        ready &= ready - 1;
    }
}

void
CopyEngine::maybeComplete(int slot)
{
    const CopySlot &s = slots_[slot];
    if (s.valid && s.copyComplete())
        owner_.copyDone(slot);
}

void
CopyEngine::tick()
{
    if (copyTimeout_ > 0)
        checkCopyTimeouts();
    if (activeSlots_ == 0)
        return;
    const auto n = static_cast<std::uint32_t>(slots_.size());
    if (pumpSleep_) {
        // Asleep: the pass below is a proven no-op; only the fairness
        // cursor advances (see skipTicks).
        rrCursor_ = (rrCursor_ + 1) % n;
        return;
    }
    pumpActivity_ = false;
    // Round-robin across slots so one hot copy cannot starve the
    // others' source-read issue slots.
    for (std::uint32_t off = 0; off < n; ++off) {
        const auto slot = static_cast<int>((rrCursor_ + off) % n);
        if (!slots_[slot].valid)
            continue;
        issueReads(slot);
        drainWrites(slot);
        maybeComplete(slot);
    }
    rrCursor_ = (rrCursor_ + 1) % n;
    // A pass with no issue and no completion left all slot state
    // untouched, and every offer it made was refused; further passes
    // repeat it until an arrival, an owner entry point, a new copy or
    // a refusing port's retry notification wakes the pump.
    if (!pumpActivity_)
        pumpSleep_ = true;
}

void
CopyEngine::checkDrained() const
{
    NOMAD_CHECK(*this, activeSlots_ == 0,
                "copy-slot leak: ", activeSlots_, " still active at drain");
    for (const CopySlot &s : slots_) {
        NOMAD_CHECK(*this, !s.valid && s.readsInFlight == 0,
                    "copy of cfn ", s.cfn, " pfn ", s.pfn,
                    " not released at drain");
    }
}

void
CopyEngine::checkCopyTimeouts()
{
    const Tick now = curTick();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        CopySlot &s = slots_[i];
        const auto slot = static_cast<int>(i);
        if (!s.valid || now - s.lastProgress <= copyTimeout_ ||
            !owner_.canTransfer(slot)) {
            continue;
        }
        pumpSleep_ = false;
        // Abort-and-refetch (docs/HARDENING.md): orphan every
        // in-flight read by bumping the generation — a late arrival is
        // then dropped as stale — and rewind R to the sub-blocks that
        // actually landed so issueReads() re-fetches the lost ones.
        s.rewindLost(now);
        ++copyRetries_;
        if (auto *sink = s.traceId ? tracer() : nullptr) {
            sink->asyncInstant(tracePid(), "copy_retry",
                               trace::Cat::Copy, s.traceId, now,
                               {{"slot", static_cast<double>(slot)}});
        }
        issueReads(slot);
    }
}

} // namespace nomad
