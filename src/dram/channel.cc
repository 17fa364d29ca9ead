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
    fatal_if(banks > 64, name, ": ", banks,
             " banks per channel; the scheduler's bank masks hold 64");
    ranks_.resize(timing.ranksPerChannel);
    for (std::uint32_t i = 0; i < timing.ranksPerChannel; ++i) {
        // Stagger refresh across ranks to avoid artificial alignment.
        ranks_[i].nextRefresh =
            tREFI_ + (tREFI_ / timing.ranksPerChannel) * i;
    }
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
    sim_.pokeClocked(wakeIdx_);
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
        writeQ_.push(bank, {req, block, coord.row, now});
        setWake(0);
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
    readQ_.push(bank, {req, block, coord.row, now});
    setWake(0);
    return true;
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

    const auto first = banks_.begin() + r * timing_.banksPerRank();
    const auto last = first + timing_.banksPerRank();
    Tick start = now;
    for (auto bank = first; bank != last; ++bank) {
        if (bank->open)
            start = std::max(start, bank->nextPrecharge + tRP_);
    }
    rank.refreshUntil = start + tRFC_;
    if (observer_)
        observe(DramCommand::Ref, start, r * timing_.banksPerRank(), 0);
    for (auto bank = first; bank != last; ++bank) {
        bank->open = false;
        bank->nextActivate =
            std::max(bank->nextActivate, rank.refreshUntil);
    }
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
        nextReadCas_ = std::max(nextReadCas_, burst_end + tWTR_);
        stats_.energyPj += timing_.eWrite;
        // The write request already completed at acceptance (posted).
        return;
    }

    const Tick data_ready = now + tCL_ + tBL_;
    busBusyUntil_ = data_ready;
    bank.nextPrecharge = std::max(bank.nextPrecharge, now + tRTP_);
    nextWriteCas_ = std::max(nextWriteCas_, now + tRTW_);
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
DramChannel::tryIssue(Queue &q, bool is_write, Tick &wake)
{
    if (q.size == 0)
        return false;

    const Tick now = curTick();

    // Channel-global CAS constraints are identical for every entry of
    // one direction; failing them rules out every CAS of this pass.
    // The bound contributed is the gate itself — conservative (bank
    // locals may push further out), which only shortens the sleep.
    const Tick cas_lat = is_write ? tCWL_ : tCL_;
    Tick gate = is_write ? nextWriteCas_ : nextReadCas_;
    if (busBusyUntil_ > cas_lat)
        gate = std::max(gate, busBusyUntil_ - cas_lat);
    const bool cas_open = now >= gate;
    if (!cas_open)
        wake = std::min(wake, gate);

    // FR-FCFS in one walk over the busy banks. First ready: the oldest
    // entry that can CAS now, which is the oldest hit on its bank's
    // open row among the banks whose CAS gates pass (they depend only
    // on the bank). Failing that, first come: the oldest bank head
    // that can PRE or ACT now. A bank's oldest entry is its only
    // PRE/ACT claimant, so a younger one cannot steal the bank and
    // livelock it. Each blocked bank contributes the exact tick its
    // failing gate opens; once a command is found, the bound no
    // longer matters and only older CAS candidates are sought.
    constexpr std::uint64_t None = ~0ULL;
    std::uint64_t cas_seq = None, head_seq = None;
    std::uint32_t cas_bank = 0, head_bank = 0;
    std::size_t cas_pos = 0;
    for (std::uint64_t busy = q.busy; busy; busy &= busy - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(busy));
        const std::vector<QEntry> &list = q.banks[b];
        const QEntry &head = list.front();
        const BankState &bank = banks_[b];
        const RankState &rank = ranks_[bank.rank];
        if (cas_open && bank.open && head.seq < cas_seq) {
            const auto hit = std::find_if(
                list.begin(), list.end(),
                [&bank](const QEntry &e) { return e.row == bank.row; });
            if (hit != list.end()) {
                const Tick t = std::max(
                    {rank.refreshUntil,
                     is_write ? bank.nextWrite : bank.nextRead,
                     nextCasGroup_[bank.group]});
                if (now < t) {
                    wake = std::min(wake, t);
                } else if (hit->seq < cas_seq) {
                    cas_seq = hit->seq;
                    cas_bank = b;
                    cas_pos = static_cast<std::size_t>(hit - list.begin());
                }
            }
        }
        if (cas_seq != None || head.seq > head_seq)
            continue;
        Tick t;
        if (now < rank.refreshUntil) {
            t = rank.refreshUntil;
        } else if (bank.open) {
            // A head on the open row waits on CAS timing only (bounded
            // above); one on another row needs a PRE.
            if (bank.row == head.row)
                continue;
            t = bank.nextPrecharge;
        } else {
            // The four-activate window only binds once four ACTs have
            // actually happened (a zero-initialised window must not
            // throttle the first activates after reset).
            t = std::max(bank.nextActivate, rank.nextAct);
            if (rank.actCount >= rank.actWindow.size())
                t = std::max(t,
                             rank.actWindow[rank.actWindowIdx] + tFAW_);
        }
        if (now < t) {
            wake = std::min(wake, t);
        } else {
            head_seq = head.seq;
            head_bank = b;
        }
    }

    if (cas_seq != None) {
        // The entry frees a slot its queue's refused senders wait on.
        if (is_write)
            writeRetry_.pay();
        else
            payReadRetries();
        issueCas(cas_bank, q.take(cas_bank, cas_pos), is_write, now);
        return true;
    }
    if (head_seq == None)
        return false;

    QEntry &head = q.banks[head_bank].front();
    BankState &bank = banks_[head_bank];
    if (bank.open) {
        if (observer_)
            observe(DramCommand::Pre, now, head_bank, bank.row);
        bank.open = false;
        bank.nextActivate = std::max(bank.nextActivate, now + tRP_);
        head.sawConflict = true;
        return true;
    }
    if (observer_)
        observe(DramCommand::Act, now, head_bank, head.row);
    RankState &rank = ranks_[bank.rank];
    stats_.energyPj += timing_.eActPre;
    bank.open = true;
    bank.row = head.row;
    bank.nextRead = std::max(bank.nextRead, now + tRCD_);
    bank.nextWrite = std::max(bank.nextWrite, now + tRCD_);
    bank.nextPrecharge = std::max(bank.nextPrecharge, now + tRAS_);
    rank.nextAct = now + tRRD_;
    rank.actWindow[rank.actWindowIdx] = now;
    rank.actWindowIdx = (rank.actWindowIdx + 1) % rank.actWindow.size();
    ++rank.actCount;
    if (!head.sawConflict)
        head.sawActivate = true;
    return true;
}

void
DramChannel::tick()
{
    // Inside a computed sleep window nothing can change: every gate
    // below is a threshold on frozen state (enqueue() would have reset
    // the bound), the bound never passes a rank's next refresh, and
    // the hysteresis is at a fixed point while the queues are frozen.
    if (curTick() < nextWake_)
        return;

    for (std::uint32_t r = 0; r < ranks_.size(); ++r)
        if (curTick() >= ranks_[r].nextRefresh)
            refresh(r);

    // Empty channel: nothing below can issue a command, and the
    // hysteresis update reduces to leaving drain mode, so fold that
    // in and sleep until the earliest refresh.
    if (idle()) {
        drainingWrites_ = false;
        Tick wake = MaxTick;
        for (const auto &rank : ranks_)
            wake = std::min(wake, rank.nextRefresh);
        setWake(wake);
        return;
    }

    // Write-drain hysteresis.
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

    Queue &primary = drainingWrites_ ? writeQ_ : readQ_;
    Queue &secondary = drainingWrites_ ? readQ_ : writeQ_;
    const bool primary_is_write = drainingWrites_;

    Tick wake = MaxTick;
    if (tryIssue(primary, primary_is_write, wake))
        return;
    // The primary direction is fully blocked on timing; opportunistically
    // service the other direction rather than idling the command bus.
    if (tryIssue(secondary, !primary_is_write, wake))
        return;

    // Nothing could issue: every gate that failed is of the form
    // `now >= threshold` over state only this function mutates, and the
    // failed passes collected the minimum of those thresholds as they
    // walked. Refresh bookkeeping mutates bank state on its own
    // schedule, so the sleep window must also end no later than the
    // earliest due refresh. A bound at or before now simply disables
    // the sleep (the guard re-evaluates every tick), never skips work.
    for (const auto &rank : ranks_)
        wake = std::min(wake, rank.nextRefresh);
    setWake(wake);
}

} // namespace nomad
