#include "migration_engine.hh"

#include "harden/check.hh"
#include "harden/diag.hh"
#include "sim/trace.hh"

namespace nomad
{

MigrationEngine::MigrationEngine(Simulation &sim, const std::string &name,
                                 const MigrationEngineParams &params,
                                 DramDevice &near, MemPort &far_link)
    : SimObject(sim, name),
      promotionsStarted(name + ".promotionsStarted",
                        "promotion copies started"),
      demotionsStarted(name + ".demotionsStarted",
                       "demotion writebacks started"),
      promotionsDone(name + ".promotionsDone",
                     "promotion copies completed"),
      demotionsDone(name + ".demotionsDone",
                    "demotion writebacks completed"),
      writeAborts(name + ".writeAborts",
                  "write-triggered migration aborts (rewind + refetch)"),
      migrationsFailed(name + ".migrationsFailed",
                       "migrations cancelled past the abort budget"),
      staleReadsDropped(name + ".staleReadsDropped",
                        "read arrivals orphaned by aborts/releases"),
      migrationLatency(name + ".migrationLatency",
                       "migration start to completion (ticks)"),
      copyRetries(name + ".copyRetries",
                  "copy-timeout abort-and-refetch events"),
      params_(params),
      engine_(sim, name, *this, near, far_link, params.numSlots,
              params.maxReadsInFlight, params.copyTimeoutTicks,
              staleReadsDropped, copyRetries),
      migrations_(params.numSlots)
{
    fatal_if(params.numSlots == 0, name,
             ": need at least one migration slot");
    fatal_if(params.maxReadsInFlight == 0, name,
             ": need at least one in-flight read");
    promoIndex_.reserve(params.numSlots);
    demoIndex_.reserve(params.numSlots);

    auto &reg = sim.statistics();
    reg.add(&promotionsStarted);
    reg.add(&demotionsStarted);
    reg.add(&promotionsDone);
    reg.add(&demotionsDone);
    reg.add(&writeAborts);
    reg.add(&migrationsFailed);
    reg.add(&staleReadsDropped);
    reg.add(&migrationLatency);

    // Mirrors NomadBackEnd: the retry stat only exists on hardened
    // runs so the default stats-JSON stream stays byte-identical.
    if (sim.harden())
        reg.add(&copyRetries);

    engine_.setClockedHandle(sim.addClocked(this, 1));
}

const char *
MigrationEngine::spanName(bool is_demotion) const
{
    return is_demotion ? "demote" : "promote";
}

bool
MigrationEngine::startPromotion(PageNum pfn, PageNum cfn,
                                DoneCallback done, FailCallback failed)
{
    return startMigration(false, pfn, cfn, std::move(done),
                          std::move(failed));
}

bool
MigrationEngine::startDemotion(PageNum cfn, PageNum pfn,
                               DoneCallback done, FailCallback failed)
{
    return startMigration(true, pfn, cfn, std::move(done),
                          std::move(failed));
}

bool
MigrationEngine::startMigration(bool is_demotion, PageNum pfn,
                                PageNum cfn, DoneCallback done,
                                FailCallback failed)
{
    engine_.poke();
    const int slot = engine_.findFreeSlot();
    if (slot < 0)
        return false; // Engine saturated; the caller declines.
    const Tick now = curTick();
    CopySlot &s = engine_.start(slot, is_demotion, pfn, cfn, false, 0);
    Migration &m = migrations_[slot];
    m.abortRetries = 0;
    m.onDone = std::move(done);
    m.onFail = std::move(failed);
    if (is_demotion) {
        demoIndex_.insert(cfn, slot);
        ++demotionsStarted;
    } else {
        promoIndex_.insert(pfn, slot);
        ++promotionsStarted;
    }

    if (auto *sink = tracer();
        sink && sink->enabled(trace::Cat::Copy)) {
        s.traceId = sink->nextAsyncId();
        sink->asyncBegin(tracePid(), spanName(is_demotion),
                         trace::Cat::Copy, s.traceId, now,
                         {{"pfn", static_cast<double>(pfn)},
                          {"cfn", static_cast<double>(cfn)}});
    }

    engine_.issueReads(slot);
    return true;
}

void
MigrationEngine::copyDone(int slot)
{
    CopySlot &s = engine_.slot(slot);
    migrationLatency.sample(
        static_cast<double>(curTick() - s.acceptedAt));
    if (s.writeback)
        ++demotionsDone;
    else
        ++promotionsDone;
    if (auto *sink = s.traceId ? tracer() : nullptr) {
        sink->asyncEnd(tracePid(), spanName(s.writeback),
                       trace::Cat::Copy, s.traceId, curTick(),
                       {{"latency", static_cast<double>(
                                        curTick() - s.acceptedAt)},
                        {"aborts", static_cast<double>(
                                       migrations_[slot].abortRetries)}});
        s.traceId = 0;
    }
    DoneCallback done = std::move(migrations_[slot].onDone);
    releaseSlot(slot);
    if (done)
        done(curTick());
}

void
MigrationEngine::noteFarWrite(PageNum pfn)
{
    engine_.poke();
    const int *slot = promoIndex_.find(pfn);
    if (!slot)
        return;
    CopySlot &s = engine_.slot(*slot);
    Migration &m = migrations_[*slot];
    ++writeAborts;
    engine_.wake();
    if (auto *sink = s.traceId ? tracer() : nullptr) {
        sink->asyncInstant(tracePid(), "migration_abort",
                           trace::Cat::Copy, s.traceId, curTick(),
                           {{"retries",
                             static_cast<double>(m.abortRetries)}});
    }
    if (m.abortRetries >= params_.maxAbortRetries) {
        // Write-hot page: stop fighting the writer. The page stays in
        // the far tier and the frontend releases the reserved frame.
        cancelMigration(*slot);
        return;
    }
    ++m.abortRetries;
    // Transactional abort: everything staged is stale (the writer just
    // mutated the source), so rewind fully and refetch from scratch.
    s.restart(curTick());
    engine_.issueReads(*slot);
}

void
MigrationEngine::noteNearWrite(PageNum cfn)
{
    engine_.poke();
    const int *slot = demoIndex_.find(cfn);
    if (!slot)
        return;
    // The frame is dirty again; the writeback streamed so far is
    // stale. Cancel outright — the frontend keeps the frame and a
    // later daemon pass retries the demotion.
    ++writeAborts;
    cancelMigration(*slot);
}

void
MigrationEngine::cancelMigration(int slot)
{
    CopySlot &s = engine_.slot(slot);
    ++migrationsFailed;
    if (auto *sink = s.traceId ? tracer() : nullptr) {
        sink->asyncEnd(tracePid(), spanName(s.writeback),
                       trace::Cat::Copy, s.traceId, curTick(),
                       {{"cancelled", 1},
                        {"aborts", static_cast<double>(
                                       migrations_[slot].abortRetries)}});
        s.traceId = 0;
    }
    FailCallback failed = std::move(migrations_[slot].onFail);
    releaseSlot(slot);
    if (failed)
        failed(curTick());
}

void
MigrationEngine::releaseSlot(int slot)
{
    const CopySlot &s = engine_.slot(slot);
    if (s.writeback)
        demoIndex_.erase(s.cfn);
    else
        promoIndex_.erase(s.pfn);
    migrations_[slot].onDone = nullptr;
    migrations_[slot].onFail = nullptr;
    engine_.release(slot);
}

void
MigrationEngine::snapshot(harden::Snapshot &snap) const
{
    snap.set(name_, "activeSlots",
             static_cast<double>(engine_.activeSlots()));
    for (int i = 0; i < static_cast<int>(engine_.numSlots()); ++i) {
        const CopySlot &s = engine_.slot(i);
        if (!s.valid)
            continue;
        snap.set(name_, "slot" + std::to_string(i),
                 detail::concat(
                     s.writeback ? "demote" : "promote",
                     " pfn=", s.pfn, " cfn=", s.cfn,
                     " r=", __builtin_popcountll(s.rVec),
                     " b=", __builtin_popcountll(s.bVec),
                     " w=", __builtin_popcountll(s.wVec),
                     " inflight=", s.readsInFlight,
                     " aborts=", migrations_[i].abortRetries,
                     " stuck=", s.stuck ? 1 : 0,
                     " idleFor=", curTick() - s.lastProgress));
    }
}

} // namespace nomad
