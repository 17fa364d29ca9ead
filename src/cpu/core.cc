#include "core.hh"

namespace nomad
{

Core::Core(Simulation &sim, const std::string &name, int core_id,
           const CoreParams &params, Generator &gen, Tlb &tlb,
           MemPort &l1, DramCacheScheme &scheme, PageTable &page_table)
    : SimObject(sim, name),
      cycles(name + ".cycles", "measured cycles"),
      instructions(name + ".instructions", "retired instructions"),
      memOps(name + ".memOps", "memory instructions"),
      loads(name + ".loads", "load instructions"),
      stores(name + ".stores", "store instructions"),
      stallHandler(name + ".stallHandler",
                   "stall cycles inside OS DC-miss routines"),
      stallWalk(name + ".stallWalk",
                "stall cycles waiting on HW page walks"),
      stallMem(name + ".stallMem",
               "stall cycles waiting on memory data"),
      walks(name + ".walks", "HW page walks performed"),
      branches(name + ".branches", "branch instructions"),
      mispredicts(name + ".mispredicts", "mispredicted branches"),
      params_(params), coreId_(core_id), gen_(gen), tlb_(tlb), l1_(l1),
      scheme_(scheme), pageTable_(page_table),
      rob_(params.windowSize), issueQueue_(params.windowSize),
      branchRng_(0xb4a2c + static_cast<std::uint64_t>(core_id))
{
    auto &reg = sim.statistics();
    reg.add(&cycles);
    reg.add(&instructions);
    reg.add(&memOps);
    reg.add(&loads);
    reg.add(&stores);
    reg.add(&stallHandler);
    reg.add(&stallWalk);
    reg.add(&stallMem);
    reg.add(&walks);
    reg.add(&branches);
    reg.add(&mispredicts);

    wakeIdx_ = sim.addClocked(this, 1);
}

Core::RobEntry *
Core::entryFor(std::uint64_t seq)
{
    if (seq < headSeq_)
        return nullptr;
    const std::uint64_t idx = seq - headSeq_;
    if (idx >= rob_.size())
        return nullptr;
    return &rob_[idx];
}

void
Core::tick()
{
    if (done())
        return;
    cycles += 1;

    // Retire stage.
    std::uint32_t retired = 0;
    while (retired < params_.retireWidth && !rob_.empty() &&
           rob_.front().complete) {
        rob_.pop_front();
        ++headSeq_;
        ++retiredTotal_;
        instructions += 1;
        ++retired;
        if (done())
            return;
    }

    if (!issueQueue_.empty())
        tryIssuePending();

    if (!inHandler_)
        dispatch();

    if (retired > 0)
        return;

    // Attribute the stall cycle to the window head's state.
    if (rob_.empty()) {
        if (inHandler_)
            stallHandler += 1;
        return;
    }
    const RobEntry &head = rob_.front();
    if (head.complete || !head.isMem)
        return; // Retires next cycle; not a memory stall.
    switch (head.state) {
      case MemState::Translating:
        if (inHandler_)
            stallHandler += 1;
        else
            stallWalk += 1;
        break;
      case MemState::ReadyToIssue:
      case MemState::WaitingData:
        stallMem += 1;
        break;
      case MemState::Done:
        break;
    }
}

Tick
Core::nextWorkTick() const
{
    if (done())
        return MaxTick;
    if (!issueQueue_.empty() && !l1Blocked_)
        return 0; // Issue-queue head to offer.
    if (!rob_.empty() && rob_.front().complete)
        return 0; // Retirement due this cycle.
    if (inHandler_ || rob_.size() >= params_.windowSize)
        return MaxTick; // Resumed by an event callback.
    return fetchStallUntil_; // Dispatch gated by the flush penalty.
}

void
Core::skipTicks(Tick n)
{
    // Batch accounting for edges nextWorkTick() proved workless: no
    // retire, no issue, no dispatch — only the cycle counter and the
    // same stall attribution tick() would have applied n times. No
    // event fires inside a skipped span, so the attribution state is
    // frozen across it.
    if (done())
        return;
    const auto d = static_cast<double>(n);
    cycles += d;
    if (l1Blocked_)
        l1_.chargeRejects(n);
    if (rob_.empty()) {
        if (inHandler_)
            stallHandler += d;
        return;
    }
    const RobEntry &head = rob_.front();
    if (head.complete || !head.isMem)
        return;
    switch (head.state) {
      case MemState::Translating:
        if (inHandler_)
            stallHandler += d;
        else
            stallWalk += d;
        break;
      case MemState::ReadyToIssue:
      case MemState::WaitingData:
        stallMem += d;
        break;
      case MemState::Done:
        break;
    }
}

void
Core::recvRetry()
{
    if (!l1Blocked_)
        return;
    sim_.pokeClocked(wakeIdx_);
    l1Blocked_ = false;
}

void
Core::dispatch()
{
    if (curTick() < fetchStallUntil_)
        return; // Refilling the front-end after a misprediction.
    for (std::uint32_t i = 0;
         i < params_.issueWidth && rob_.size() < params_.windowSize;
         ++i) {
        const InstrRecord rec = gen_.next();
        RobEntry e;
        e.seq = nextSeq_++;
        if (!rec.isMem) {
            // Single-cycle ALU op; eligible to retire next cycle.
            e.complete = true;
            rob_.push_back(e);
            if (params_.branchRatio > 0.0 &&
                branchRng_.chance(params_.branchRatio)) {
                branches += 1;
                if (branchRng_.chance(params_.mispredictRate)) {
                    mispredicts += 1;
                    fetchStallUntil_ =
                        curTick() + params_.flushPenalty;
                    return;
                }
            }
            continue;
        }
        e.isMem = true;
        e.isWrite = rec.isWrite;
        e.vaddr = rec.vaddr;
        e.state = MemState::Translating;
        memOps += 1;
        if (rec.isWrite)
            stores += 1;
        else
            loads += 1;
        rob_.push_back(e);
        startTranslation(rob_.back());
        // The thread may have entered an OS handler synchronously (a
        // warm TLB can never do that, but keep dispatch conservative).
        if (inHandler_)
            return;
    }
}

void
Core::startTranslation(RobEntry &entry)
{
    const PageNum vpn = pageOf(entry.vaddr);
    const std::uint64_t seq = entry.seq;
    TlbResult res = tlb_.lookup(vpn);
    if (res.hit) {
        if (res.latency == 0) {
            finishTranslation(seq, res.pte);
        } else {
            Pte *pte = res.pte;
            schedule(res.latency, [this, seq, pte]() {
                sim_.pokeClocked(wakeIdx_);
                finishTranslation(seq, pte);
            });
        }
        return;
    }
    walkQueue_.push_back(seq);
    if (!walkerBusy_)
        startWalk(walkQueue_.front(), entry.vaddr);
}

void
Core::startWalk(std::uint64_t seq, Addr vaddr)
{
    walkerBusy_ = true;
    walks += 1;
    walkQueue_.pop_front();
    schedule(params_.walkLatency, [this, seq, vaddr]() {
        sim_.pokeClocked(wakeIdx_);
        Pte *pte = pageTable_.touch(pageOf(vaddr));
        // The walk ends in the scheme hook: OS-managed schemes run the
        // DC tag miss handler here and suspend the thread until it
        // (and, for blocking schemes, the fill) completes.
        inHandler_ = true;
        scheme_.finishWalk(coreId_, vaddr, pte,
                           [this, seq, vaddr, pte](Tick) {
                               sim_.pokeClocked(wakeIdx_);
                               inHandler_ = false;
                               const PageNum vpn = pageOf(vaddr);
                               tlb_.insert(vpn, pte);
                               walkerBusy_ = false;
                               finishTranslation(seq, pte);
                               // Coalesce queued misses to the same
                               // page into this walk's result.
                               for (auto it = walkQueue_.begin();
                                    it != walkQueue_.end();) {
                                   RobEntry *e = entryFor(*it);
                                   panic_if(!e, "walker lost an entry");
                                   if (pageOf(e->vaddr) == vpn) {
                                       const std::uint64_t s = *it;
                                       it = walkQueue_.erase(it);
                                       finishTranslation(s, pte);
                                   } else {
                                       ++it;
                                   }
                               }
                               if (!walkQueue_.empty()) {
                                   const std::uint64_t next =
                                       walkQueue_.front();
                                   RobEntry *e = entryFor(next);
                                   panic_if(!e, "walker lost an entry");
                                   startWalk(next, e->vaddr);
                               }
                           });
    });
}

void
Core::finishTranslation(std::uint64_t seq, Pte *pte)
{
    RobEntry *e = entryFor(seq);
    panic_if(!e, name_, ": translation finished for a retired entry");
    e->state = MemState::ReadyToIssue;
    if (e->isWrite)
        scheme_.notifyStore(pte);
    issueQueue_.push_back({seq, pte});
    tryIssuePending();
}

void
Core::tryIssuePending()
{
    if (l1Blocked_) {
        // Nothing that could let the L1 accept the head has happened
        // since it refused it (recvRetry() would have cleared the
        // flag), so a re-offer is refused again: count it, build none.
        l1_.chargeRejects(1);
        return;
    }
    while (!issueQueue_.empty()) {
        auto [seq, pte] = issueQueue_.front();
        RobEntry *e = entryFor(seq);
        panic_if(!e, name_, ": issue-pending entry vanished");
        MemSpace space;
        const Addr paddr = scheme_.memAddrFor(*pte, e->vaddr, space);
        MemRequestPtr req;
        if (e->isWrite) {
            req = makeRequest(paddr, true, Category::Demand, space,
                              curTick(), nullptr, coreId_);
        } else {
            req = makeRequest(
                paddr, false, Category::Demand, space, curTick(),
                [this, seq](Tick) {
                    sim_.pokeClocked(wakeIdx_);
                    if (RobEntry *entry = entryFor(seq)) {
                        entry->complete = true;
                        entry->state = MemState::Done;
                    }
                },
                coreId_);
        }
        req->sender = this;
        if (!l1_.tryAccess(req)) {
            l1Blocked_ = true; // Sleep until recvRetry().
            return;
        }
        issueQueue_.pop_front();
        if (e->isWrite) {
            // Posted store: retires without waiting for the data path.
            e->complete = true;
            e->state = MemState::Done;
        } else {
            e->state = MemState::WaitingData;
        }
    }
}

} // namespace nomad
