#include "channel.hh"

#include <algorithm>
#include <bit>

#include "sim/trace.hh"

namespace nomad
{

namespace
{

/** Trace name of a CAS burst by category and direction. */
const char *
burstName(Category cat, bool is_write)
{
    switch (cat) {
      case Category::Demand: return is_write ? "WR.demand" : "RD.demand";
      case Category::Metadata: return is_write ? "WR.meta" : "RD.meta";
      case Category::Fill: return is_write ? "WR.fill" : "RD.fill";
      case Category::Writeback: return is_write ? "WR.wb" : "RD.wb";
      case Category::PageWalk: return is_write ? "WR.walk" : "RD.walk";
      default: return is_write ? "WR" : "RD";
    }
}

} // namespace

DramChannel::DramChannel(Simulation &sim, const std::string &name,
                         const DramTiming &timing, DramStats &stats)
    : SimObject(sim, name), timing_(timing), stats_(stats)
{
    const Tick r = timing.clkRatio;
    tCL_ = timing.tCL * r;
    tCWL_ = timing.tCWL * r;
    tRCD_ = timing.tRCD * r;
    tRP_ = timing.tRP * r;
    tRAS_ = timing.tRAS * r;
    tRTP_ = timing.tRTP * r;
    tWR_ = timing.tWR * r;
    tWTR_ = timing.tWTR * r;
    tRTW_ = timing.tRTW * r;
    tCCD_ = timing.tCCD * r;
    tRRD_ = timing.tRRD * r;
    tFAW_ = timing.tFAW * r;
    tRFC_ = timing.tRFC * r;
    tREFI_ = timing.tREFI * r;
    tBL_ = timing.burstCycles * r;

    const std::uint32_t banks =
        timing.ranksPerChannel * timing.banksPerRank();
    fatal_if(banks > MaxBanks, name, ": ", banks,
             " banks per channel; the scheduler's bank masks hold 64");
    ranks_.resize(timing.ranksPerChannel);
    for (std::uint32_t i = 0; i < timing.ranksPerChannel; ++i) {
        // Stagger refresh across ranks to avoid artificial alignment.
        ranks_[i].nextRefresh =
            tREFI_ + (tREFI_ / timing.ranksPerChannel) * i;
    }
    // Empty, the channel's first work is rank 0's first refresh.
    setWake(tREFI_);
    banks_.resize(banks);
    for (std::uint32_t b = 0; b < banks; ++b) {
        banks_[b].rank = b / timing.banksPerRank();
        banks_[b].group = b / timing.banksPerGroup;
    }
    nextCasGroup_.assign(timing.ranksPerChannel * timing.bankGroups, 0);
    readQ_.banks.resize(banks);
    writeQ_.banks.resize(banks);
    wakeIdx_ = sim.addClocked(this, timing.clkRatio);
}

bool
DramChannel::enqueue(const MemRequestPtr &req, const DramCoord &coord)
{
    // Only a push changes what tick() or skipTicks() would do, so only
    // a push pokes (before it, as pokeClocked() requires).
    const Tick now = curTick();
    const Addr block = blockAlign(req->addr);
    const std::uint32_t bank =
        coord.rank * timing_.banksPerRank() + coord.flatBank(timing_);
    // A block's coordinates depend only on its address, so a queued
    // write to it can only be in its own bank's list.
    const auto &writes = writeQ_.banks[bank];
    const bool write_queued =
        std::any_of(writes.begin(), writes.end(),
                    [block](const QEntry &e) { return e.block == block; });

    if (req->isWrite) {
        // Merge with an already-queued write to the same block.
        if (write_queued) {
            ++stats_.mergedWrites;
            stats_.addTraffic(req->category, true, BlockBytes);
            ++stats_.writeReqs;
            req->complete(now);
            return true;
        }
        if (writeQ_.size >= timing_.writeQueueDepth) {
            writeRetry_.owe(*req);
            return false;
        }
        // A read refused on a full read queue may forward from this
        // write once it is queued.
        if (refusedReads_ & refusedBit(block))
            payReadRetries();
        sim_.pokeClocked(wakeIdx_);
        writeQ_.push(bank, {req, block, coord.row, now});
        noteQueued(writeQ_, true, bank);
        ++stats_.writeReqs;
        stats_.addTraffic(req->category, true, BlockBytes);
        // Posted write: signal acceptance immediately.
        req->complete(now);
        return true;
    }

    // Read: forward from a queued write if the data is newer here.
    if (write_queued) {
        ++stats_.forwards;
        ++stats_.readReqs;
        stats_.readLatency.sample(1.0);
        // Completion on the next CPU tick keeps callback ordering
        // out of the caller's stack frame.
        auto r = req;
        const Tick done = now + 1;
        schedule(1, [r, done]() { r->complete(done); });
        return true;
    }
    if (readQ_.size >= timing_.readQueueDepth) {
        if (req->sender) {
            readRetry_.owe(*req);
            refusedReads_ |= refusedBit(block);
        }
        return false;
    }
    sim_.pokeClocked(wakeIdx_);
    readQ_.push(bank, {req, block, coord.row, now});
    noteQueued(readQ_, false, bank);
    return true;
}

void
DramChannel::noteQueued(Queue &q, bool is_write, std::uint32_t b)
{
    const std::vector<QEntry> &list = q.banks[b];
    Lane &lane = q.lanes[b];
    const BankState &bank = banks_[b];
    // A younger entry changes the lane only as the first hit on the
    // open row or as the head of an empty list; either way it can
    // only add a command, so the bound stays exact as a minimum.
    if (lane.hitSeq == NoHit && isOpen(b) && list.back().row == bank.row) {
        lane.hitSeq = list.back().seq;
        lane.hitPos = static_cast<std::uint32_t>(list.size() - 1);
    }
    settleLane(lane, b, is_write);
    setWake(std::min({nextWake_, std::max(casGate(is_write), lane.casAt),
                      lane.rowAt}));
}

void
DramChannel::findHit(Queue &q, std::uint32_t b, std::size_t from)
{
    const BankState &bank = banks_[b];
    const std::vector<QEntry> &list = q.banks[b];
    Lane &lane = q.lanes[b];
    lane.hitSeq = NoHit;
    if (!isOpen(b))
        return;
    for (std::size_t i = from; i < list.size(); ++i) {
        if (list[i].row == bank.row) {
            lane.hitSeq = list[i].seq;
            lane.hitPos = static_cast<std::uint32_t>(i);
            return;
        }
    }
}

void
DramChannel::settleLane(Lane &lane, std::uint32_t b, bool is_write) const
{
    // A refresh raises every nextActivate of its rank to its end, and
    // a bank only opens after that, so no gate below needs the rank's
    // refresh window.
    const BankState &bank = banks_[b];
    lane.casAt = lane.hitSeq == NoHit
                     ? MaxTick
                     : std::max(bank.nextCas[is_write],
                                nextCasGroup_[bank.group]);
    if (!isOpen(b))
        lane.rowAt =
            std::max(bank.nextActivate, ranks_[bank.rank].actGate);
    else
        lane.rowAt =
            lane.headRow == bank.row ? MaxTick : bank.nextPrecharge;
}

void
DramChannel::settleBanks(std::uint64_t mask)
{
    for (mask &= readQ_.busy | writeQ_.busy; mask; mask &= mask - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(mask));
        settleLane(readQ_.lanes[b], b, false);
        settleLane(writeQ_.lanes[b], b, true);
    }
}

void
DramChannel::refresh(std::uint32_t r)
{
    RankState &rank = ranks_[r];
    const Tick now = curTick();

    // Catch up the schedule in case we were idle across intervals; a
    // single tRFC penalty stands in for the missed ones, which is
    // harmless because the channel was empty while they were due.
    while (rank.nextRefresh <= now)
        rank.nextRefresh += tREFI_;

    const std::uint32_t first = r * timing_.banksPerRank();
    const std::uint32_t last = first + timing_.banksPerRank();
    Tick start = now;
    for (std::uint32_t b = first; b < last; ++b) {
        if (isOpen(b))
            start = std::max(start, banks_[b].nextPrecharge + tRP_);
    }
    const Tick until = start + tRFC_;
    if (observer_)
        observe(DramCommand::Ref, start, first, 0);
    for (std::uint32_t b = first; b < last; ++b) {
        banks_[b].nextActivate = std::max(banks_[b].nextActivate, until);
        readQ_.lanes[b].hitSeq = NoHit;
        writeQ_.lanes[b].hitSeq = NoHit;
    }
    const std::uint64_t rank_banks = bankSpan(first, timing_.banksPerRank());
    openBanks_ &= ~rank_banks;
    settleBanks(rank_banks);
    ++stats_.refreshes;
    stats_.energyPj += timing_.eRefresh;
}

void
DramChannel::observe(DramCommand cmd, Tick tick, std::uint32_t bank,
                     std::uint64_t row) const
{
    const std::uint32_t flat = bank % timing_.banksPerRank();
    observer_->command(cmd, tick, banks_[bank].rank,
                       flat / timing_.banksPerGroup,
                       flat % timing_.banksPerGroup, row);
}

void
DramChannel::issueCas(std::uint32_t b, QEntry entry, bool is_write,
                      Tick now)
{
    BankState &bank = banks_[b];

    if (entry.sawConflict)
        ++stats_.rowConflicts;
    else if (entry.sawActivate)
        ++stats_.rowMisses;
    else
        ++stats_.rowHits;

    nextCasGroup_[bank.group] = now + tCCD_;
    if (observer_)
        observe(is_write ? DramCommand::Wr : DramCommand::Rd, now, b,
                entry.row);

    // Data-bus busy interval: burst start to burst end on this
    // channel's track (category Dram, opt-in: --trace-dram).
    if (auto *sink = tracer();
        sink && sink->enabled(trace::Cat::Dram)) {
        const Tick start = now + (is_write ? tCWL_ : tCL_);
        sink->complete(
            tracePid(), name(), burstName(entry.req->category, is_write),
            trace::Cat::Dram, start, tBL_,
            {{"addr", static_cast<double>(entry.req->addr)},
             {"row", static_cast<double>(entry.row)},
             {"bank",
              static_cast<double>(b % timing_.banksPerRank())}});
    }

    if (is_write) {
        const Tick burst_end = now + tCWL_ + tBL_;
        busBusyUntil_ = burst_end;
        bank.nextPrecharge =
            std::max(bank.nextPrecharge, burst_end + tWR_);
        nextCas_[false] = std::max(nextCas_[false], burst_end + tWTR_);
        stats_.energyPj += timing_.eWrite;
        // The write request already completed at acceptance (posted).
        return;
    }

    const Tick data_ready = now + tCL_ + tBL_;
    busBusyUntil_ = data_ready;
    bank.nextPrecharge = std::max(bank.nextPrecharge, now + tRTP_);
    nextCas_[true] = std::max(nextCas_[true], now + tRTW_);
    stats_.energyPj += timing_.eRead;

    ++stats_.readReqs;
    stats_.addTraffic(entry.req->category, false, BlockBytes);
    stats_.readLatency.sample(
        static_cast<double>(data_ready - entry.enqueued));

    auto req = entry.req;
    sim_.events().schedule(data_ready,
                           [req, data_ready]() {
                               req->complete(data_ready);
                           });
}

bool
DramChannel::tryIssue(Queue &q, bool is_write)
{
    if (q.size == 0)
        return false;

    const Tick now = curTick();
    // The channel-wide CAS gate is the same for every entry of one
    // direction; while it is closed no lane's CAS passes.
    const Tick cas_end = now >= casGate(is_write) ? now + 1 : 0;

    // FR-FCFS in one walk over the busy banks' lanes. First ready: the
    // oldest entry that can CAS now, which is the oldest hit on its
    // bank's open row among the banks whose CAS gates pass (they
    // depend only on the bank). Failing that, first come: the oldest
    // bank head that can PRE or ACT now. A bank's oldest entry is its
    // only PRE/ACT claimant, so a younger one cannot steal the bank
    // and livelock it. Both minima are taken over every bank, with no
    // early exit, so that the compiler can select instead of branch.
    constexpr std::uint64_t None = NoHit;
    std::uint64_t cas_seq = None, head_seq = None;
    std::uint32_t cas_bank = 0, head_bank = 0;
    for (std::uint64_t busy = q.busy; busy; busy &= busy - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(busy));
        const Lane &lane = q.lanes[b];
        const std::uint64_t hit = lane.casAt < cas_end ? lane.hitSeq : None;
        if (hit < cas_seq) {
            cas_seq = hit;
            cas_bank = b;
        }
        const std::uint64_t head = lane.rowAt <= now ? lane.headSeq : None;
        if (head < head_seq) {
            head_seq = head;
            head_bank = b;
        }
    }

    if (cas_seq != None) {
        // The entry frees a slot its queue's refused senders wait on.
        if (is_write)
            writeRetry_.pay();
        else
            payReadRetries();
        const std::size_t pos = q.lanes[cas_bank].hitPos;
        QEntry entry = q.take(cas_bank, pos);
        // Entries before the hit are on other rows.
        findHit(q, cas_bank, pos);
        issueCas(cas_bank, std::move(entry), is_write, now);
        // tCCD moved for the open banks of the group (a closed one has
        // no hit), tRTP/tWR for this one.
        settleBanks(bankSpan(banks_[cas_bank].group * timing_.banksPerGroup,
                             timing_.banksPerGroup) &
                    openBanks_);
        return true;
    }
    if (head_seq == None)
        return false;

    QEntry &head = q.banks[head_bank].front();
    BankState &bank = banks_[head_bank];
    const std::uint64_t head_bit = 1ULL << head_bank;
    if (openBanks_ & head_bit) {
        if (observer_)
            observe(DramCommand::Pre, now, head_bank, bank.row);
        openBanks_ &= ~head_bit;
        bank.nextActivate = std::max(bank.nextActivate, now + tRP_);
        head.sawConflict = true;
        readQ_.lanes[head_bank].hitSeq = NoHit;
        writeQ_.lanes[head_bank].hitSeq = NoHit;
        settleBanks(head_bit);
        return true;
    }
    if (observer_)
        observe(DramCommand::Act, now, head_bank, head.row);
    RankState &rank = ranks_[bank.rank];
    stats_.energyPj += timing_.eActPre;
    openBanks_ |= head_bit;
    bank.row = head.row;
    bank.nextCas[false] = std::max(bank.nextCas[false], now + tRCD_);
    bank.nextCas[true] = std::max(bank.nextCas[true], now + tRCD_);
    bank.nextPrecharge = std::max(bank.nextPrecharge, now + tRAS_);
    rank.actWindow[rank.actWindowIdx] = now;
    rank.actWindowIdx = (rank.actWindowIdx + 1) % rank.actWindow.size();
    ++rank.actCount;
    // The four-activate window only binds once four ACTs have
    // actually happened (a zero-initialised window must not throttle
    // the first activates after reset).
    rank.actGate = now + tRRD_;
    if (rank.actCount >= rank.actWindow.size())
        rank.actGate = std::max(
            rank.actGate, rank.actWindow[rank.actWindowIdx] + tFAW_);
    if (!head.sawConflict)
        head.sawActivate = true;
    findHit(readQ_, head_bank, 0);
    findHit(writeQ_, head_bank, 0);
    // tRRD/tFAW moved for every closed bank of the rank.
    settleBanks((bankSpan(bank.rank * timing_.banksPerRank(),
                          timing_.banksPerRank()) &
                 ~openBanks_) |
                head_bit);
    return true;
}

void
DramChannel::updateDrainMode()
{
    const std::size_t reads = readQ_.size, writes = writeQ_.size;
    if (!drainingWrites_ &&
        (writes >= timing_.writeHighWatermark ||
         (reads == 0 && writes != 0))) {
        drainingWrites_ = true;
    }
    if (drainingWrites_ &&
        (writes <= timing_.writeLowWatermark || writes == 0)) {
        // Leave drain mode when low watermark reached and reads wait.
        if (reads != 0 || writes == 0)
            drainingWrites_ = false;
    }
}

Tick
DramChannel::queueWake(const Queue &q, bool is_write) const
{
    // A CAS waits on the later of the channel-wide gate and its own,
    // and max distributes over min: apply the channel gate once.
    Tick cas = MaxTick, row = MaxTick;
    for (std::uint64_t busy = q.busy; busy; busy &= busy - 1) {
        const Lane &lane = q.lanes[std::countr_zero(busy)];
        cas = std::min(cas, lane.casAt);
        row = std::min(row, lane.rowAt);
    }
    return std::min(std::max(cas, casGate(is_write)), row);
}

void
DramChannel::tick()
{
    // The hysteresis runs on every edge: it is path-dependent across
    // queue-size changes, so an edge slept through must still see it
    // (skipTicks() applies it to elided edges).
    updateDrainMode();
    // Before the bound no gate can open: every gate is a threshold on
    // frozen state, enqueue() lowers the bound, and the bound never
    // passes a rank's next refresh.
    if (curTick() < nextWake_)
        return;

    for (std::uint32_t r = 0; r < ranks_.size(); ++r)
        if (curTick() >= ranks_[r].nextRefresh)
            refresh(r);

    // The primary direction goes first (writes while draining, reads
    // otherwise); when it is blocked on timing, the other one may use
    // the command bus. An evaluation past the bound issues a command
    // unless a refresh started on this edge.
    const bool drain = drainingWrites_;
    if (!tryIssue(drain ? writeQ_ : readQ_, drain))
        tryIssue(drain ? readQ_ : writeQ_, !drain);

    // The next evaluation is the first edge on which either direction
    // can issue, or a rank's refresh falls due.
    Tick wake = std::min(queueWake(readQ_, false), queueWake(writeQ_, true));
    for (const auto &rank : ranks_)
        wake = std::min(wake, rank.nextRefresh);
    setWake(wake);
}

} // namespace nomad
