#include "system.hh"

#include <algorithm>
#include <ostream>

#include "harden/watchdog.hh"
#include "schemes.hh"
#include "sim/json.hh"
#include "sim/stat_sampler.hh"
#include "sim/trace.hh"

namespace nomad
{

System::System(const SystemConfig &config) : config_(config)
{
    config_.validate();
    const SchemeRow &row = *schemeRow(config_.scheme);
    sim_ = std::make_unique<Simulation>();
    Simulation &sim = *sim_;
    sim.setKernelMode(config_.legacyKernel
                          ? Simulation::KernelMode::LegacyPolling
                          : Simulation::KernelMode::EventDriven);

    // Hardening: parse the fault spec and attach the context before
    // any component is built, since components latch hardened-feature
    // decisions (extra stats, fault hooks) at construction time.
    if (!config_.harden.faultSpec.empty()) {
        faultSpec_ = harden::FaultSpec::parse(config_.harden.faultSpec);
        injector_ = std::make_unique<harden::FaultInjector>(
            faultSpec_, config_.seed);
    }
    if (config_.harden.any()) {
        hardenCtx_.checkInvariants = config_.harden.checkInvariants;
        hardenCtx_.injector = injector_.get();
        hardenCtx_.watchdogTicks = config_.harden.watchdogTicks;
        sim.setHarden(&hardenCtx_);
    }

    const WorkloadProfile &profile =
        config.customWorkload ? *config.customWorkload
                              : profileByName(config.workload);

    // Size off-package memory to hold every core's footprint.
    SystemConfig &cfg = config_;
    const std::uint64_t needed_frames =
        static_cast<std::uint64_t>(config.numCores) *
            profile.footprintPages +
        (1ULL << 16);
    const std::uint64_t needed_bytes = needed_frames * PageBytes;
    if (cfg.ddr.capacityBytes < needed_bytes) {
        // Round up to a power of two so the address decode stays sane.
        std::uint64_t cap = cfg.ddr.capacityBytes;
        while (cap < needed_bytes)
            cap *= 2;
        cfg.ddr.capacityBytes = cap;
    }
    const std::uint64_t on_package_frames =
        row.onPackageFrames ? row.onPackageFrames(cfg) : cfg.dcFrames;
    cfg.hbm.capacityBytes =
        std::max<std::uint64_t>(cfg.hbm.capacityBytes,
                                on_package_frames * PageBytes);

    pageTable_ = std::make_unique<PageTable>(cfg.ddr.capacityBytes /
                                             PageBytes);
    ddr_ = std::make_unique<DramDevice>(sim, "ddr", cfg.ddr);
    hbm_ = std::make_unique<DramDevice>(sim, "hbm", cfg.hbm);

    // Copy-timeout policy for NomadBackEnd-based schemes (NOMAD's
    // fill engine, TDC's copy engine): an explicit value wins;
    // otherwise default to a safe recovery threshold whenever faults
    // can lose DRAM responses. A no-retry fault clause forces it off
    // so watchdog tests can wedge the model on purpose.
    const auto copyTimeoutPolicy = [this, &cfg]() -> Tick {
        Tick ticks = cfg.harden.copyTimeoutTicks;
        if (injector_) {
            if (faultSpec_.noRetry)
                ticks = 0;
            else if (ticks == 0)
                ticks = 150'000;
        }
        return ticks;
    };

    // Scheme: built by its table row; every per-scheme parameter
    // fixup lives in the row's build function (schemes.cc).
    scheme_ = row.build(sim, cfg, *ddr_, *hbm_, *pageTable_,
                        copyTimeoutPolicy());

    // SRAM hierarchy --------------------------------------------------
    l3_ = std::make_unique<SramCache>(sim, "l3", cfg.l3, scheme_.get());
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        l2s_.push_back(std::make_unique<SramCache>(
            sim, "cpu" + std::to_string(c) + ".l2", cfg.l2, l3_.get()));
        l1s_.push_back(std::make_unique<SramCache>(
            sim, "cpu" + std::to_string(c) + ".l1", cfg.l1,
            l2s_.back().get()));
    }

    // flush_cache_range() support: invalidate in every cache level.
    scheme_->setFlushHook(
        [this](MemSpace space, Addr base, std::uint64_t len) {
            std::uint32_t killed = l3_->invalidateRange(space, base, len);
            for (auto &l2 : l2s_)
                killed += l2->invalidateRange(space, base, len);
            for (auto &l1 : l1s_)
                killed += l1->invalidateRange(space, base, len);
            return killed;
        });

    // TLBs, generators, cores ----------------------------------------
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        tlbs_.push_back(std::make_unique<Tlb>(
            sim, "cpu" + std::to_string(c) + ".tlb", cfg.tlb));
        Tlb &tlb = *tlbs_.back();
        DramCacheScheme *scheme = scheme_.get();
        const int core_id = static_cast<int>(c);
        tlb.onInsert = [scheme, core_id](PageNum vpn, const Pte &pte) {
            scheme->tlbInserted(core_id, vpn, pte);
        };
        tlb.onEvict = [scheme, core_id](PageNum vpn, const Pte &pte) {
            scheme->tlbEvicted(core_id, vpn, pte);
        };

        gens_.push_back(std::make_unique<SyntheticGenerator>(
            profile, static_cast<Addr>(c + 1) << 40,
            cfg.seed * 7919 + c));

        CoreParams cp = cfg.core;
        cp.instructionLimit = cfg.warmupInstructionsPerCore;
        cores_.push_back(std::make_unique<Core>(
            sim, "cpu" + std::to_string(c), core_id, cp, *gens_.back(),
            tlb, *l1s_[c], *scheme_, *pageTable_));
    }
    // A core whose L1 refused its request re-resolves the address on
    // every re-offer, so a PTE remap must wake it (PageTable::remap).
    pageTable_->setRemapListener([this]() {
        for (auto &core : cores_)
            core->recvRetry();
    });

    // TLB shootdown support (only used by the Fig-ablation mode that
    // disables the paper's shootdown avoidance). Schemes that never
    // shoot down inherit the no-op base hook.
    scheme_->setShootdownHook([this](int core, PageNum vpn) {
        if (core >= 0 && core < static_cast<int>(tlbs_.size()))
            tlbs_[core]->invalidate(vpn);
    });

    // Observability ---------------------------------------------------
    if (cfg.obs.traceSink) {
        sim.setTrace(cfg.obs.traceSink, cfg.obs.tracePid);
        cfg.obs.traceSink->processName(
            cfg.obs.tracePid, cfg.obs.runLabel.empty()
                                  ? std::string("nomad-sim")
                                  : cfg.obs.runLabel);
    }
    if (cfg.obs.samplePeriod > 0) {
        sampler_ = std::make_unique<StatSampler>(sim, "sampler",
                                                 cfg.obs.samplePeriod);
        StatSampler &sampler = *sampler_;

        sampler.addProbe("cpu.instructions", [this]() {
            double sum = 0;
            for (const auto &core : cores_)
                sum += core->instructions.value();
            return sum;
        });
        sampler.addProbe("hbm.bytes", [this]() {
            const auto &s = hbm_->stats();
            return s.bytesRead.value() + s.bytesWritten.value();
        });
        sampler.addProbe("ddr.bytes", [this]() {
            const auto &s = ddr_->stats();
            return s.bytesRead.value() + s.bytesWritten.value();
        });

        // Scheme-owned gauges and rate stats; each scheme appends its
        // probes after the generic ones (registration order is part of
        // the stats-JSON golden contract).
        scheme_->samplerProbes(sampler);
        sampler.start();
    }
}

System::~System() = default;

harden::Snapshot
System::buildSnapshot() const
{
    harden::Snapshot snap;
    snap.set("sim", "tick", static_cast<double>(sim_->now()));
    snap.set("sim", "eventsFired",
             static_cast<double>(sim_->events().fired()));
    snap.set("sim", "eventsPending",
             static_cast<double>(sim_->events().size()));
    const Tick next = sim_->events().nextEventTick();
    if (next != MaxTick)
        snap.set("sim", "nextEventTick", static_cast<double>(next));

    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const std::string sec = "cpu" + std::to_string(i);
        snap.set(sec, "retired",
                 static_cast<double>(cores_[i]->retiredTotal()));
        snap.set(sec, "stall", std::string(cores_[i]->stallReason()));
    }

    scheme_->snapshot(snap);

    snap.set("hbm", "queuedReads",
             static_cast<double>(hbm_->queuedReads()));
    snap.set("hbm", "queuedWrites",
             static_cast<double>(hbm_->queuedWrites()));
    snap.set("ddr", "queuedReads",
             static_cast<double>(ddr_->queuedReads()));
    snap.set("ddr", "queuedWrites",
             static_cast<double>(ddr_->queuedWrites()));

    if (injector_) {
        snap.set("faults", "spec", faultSpec_.describe());
        snap.set("faults", "dropped",
                 static_cast<double>(injector_->dropped));
        snap.set("faults", "delayed",
                 static_cast<double>(injector_->delayed));
        snap.set("faults", "stuckCopies",
                 static_cast<double>(injector_->stuckCopies));
        snap.set("faults", "blockedCommands",
                 static_cast<double>(injector_->blockedCommands));
    }
    return snap;
}

void
System::runUntilCoresDone()
{
    auto all_done = [this]() {
        return std::all_of(cores_.begin(), cores_.end(),
                           [](const auto &c) { return c->done(); });
    };
    // Progress signature for the watchdog: retired instructions only.
    // Event activity is deliberately excluded — periodic self-
    // rescheduling events (the stat sampler, DRAM refresh) fire
    // forever in a wedged model, so counting them would mask a
    // livelock in which simulated time and events advance but no
    // core ever retires again.
    harden::Watchdog watchdog(hardenCtx_.watchdogTicks);
    auto signature = [this]() {
        std::uint64_t sig = 0;
        for (const auto &core : cores_)
            sig += core->retiredTotal();
        return sig;
    };
    while (!all_done()) {
        if (abortCheck_ && abortCheck_()) {
            harden::Diagnostic d;
            d.kind = harden::ErrorKind::Timeout;
            d.component = "system";
            d.tick = sim_->now();
            d.message =
                "aborted at tick " + std::to_string(sim_->now());
            d.snapshot = buildSnapshot();
            throw SimAborted(std::move(d));
        }
        sim_->run(100'000);
        if (watchdog.poll(sim_->now(), signature())) {
            harden::Diagnostic d;
            d.kind = harden::ErrorKind::Stall;
            d.component = "system";
            d.tick = sim_->now();
            d.message = detail::concat(
                "no forward progress for ",
                watchdog.stalledFor(sim_->now()),
                " ticks (watchdog threshold ", watchdog.limit(), ")");
            d.snapshot = buildSnapshot();
            throw harden::SimError(std::move(d));
        }
    }
    // Let in-flight page copies and writebacks drain so back-to-back
    // phases start from a quiescent memory system.
    sim_->run(50'000);
    if (hardenCtx_.checkInvariants && sim_->harden() != nullptr) {
        // Injected faults can legitimately stretch the drain (copy
        // timeouts re-fetch lost reads); allow a bounded grace period
        // before declaring anything still in flight a leak.
        for (int i = 0; i < 20 && !scheme_->quiesced(); ++i)
            sim_->run(50'000);
        if (!scheme_->quiesced()) {
            harden::Diagnostic d;
            d.kind = harden::ErrorKind::Stall;
            d.component = scheme_->name();
            d.tick = sim_->now();
            d.message = "scheme failed to quiesce after the cores "
                        "finished (copies stuck in flight)";
            d.snapshot = buildSnapshot();
            throw harden::SimError(std::move(d));
        }
        scheme_->checkDrained();
    }
}

void
System::runWarmup()
{
    panic_if(warmedUp_, "warm-up already ran");
    runUntilCoresDone();
    warmedUp_ = true;
}

SystemResults
System::runMeasured()
{
    panic_if(!warmedUp_, "runWarmup() must precede runMeasured()");
    sim_->statistics().resetAll();
    if (sampler_)
        sampler_->clear();
    measureStart_ = sim_->now();
    for (auto &core : cores_) {
        core->setInstructionLimit(config_.warmupInstructionsPerCore +
                                  config_.instructionsPerCore);
    }
    runUntilCoresDone();
    return collect();
}

SystemResults
System::run()
{
    runWarmup();
    return runMeasured();
}

SystemResults
System::collect() const
{
    SystemResults r;
    // Elapsed time is the longest per-core busy window, which excludes
    // the post-run drain phase (cores stop counting once done).
    double ticks = 0;
    for (const auto &core : cores_)
        ticks = std::max(ticks, core->cycles.value());
    if (ticks == 0)
        ticks = static_cast<double>(sim_->now() - measureStart_);
    r.elapsedCycles = ticks;
    r.seconds = ticks / (config_.cpuGhz * 1e9);
    const double us = r.seconds * 1e6;

    double ipc_sum = 0;
    double stall_sum = 0;
    double handler_sum = 0;
    double mem_sum = 0;
    for (const auto &core : cores_) {
        ipc_sum += core->ipc();
        const double cyc = std::max(core->cycles.value(), 1.0);
        stall_sum += (core->stallHandler.value() +
                      core->stallWalk.value() +
                      core->stallMem.value()) /
                     cyc;
        handler_sum += core->stallHandler.value() / cyc;
        mem_sum += core->stallMem.value() / cyc;
    }
    const double n = static_cast<double>(cores_.size());
    r.ipc = ipc_sum / n;
    r.stallRatio = stall_sum / n;
    r.handlerStallRatio = handler_sum / n;
    r.memStallRatio = mem_sum / n;

    r.dcReadLatency = scheme_->demandReadLatency.mean();
    r.llcMpms = us > 0 ? (l3_->misses.value() +
                          l3_->missesMerged.value()) /
                             us
                       : 0;

    // Scheme-specific metrics: each scheme fills its subset of the
    // record (fills/writebacks/rmhb plus whatever else it owns).
    scheme_->collectStats(r);

    // DRAM-side bandwidth.
    const auto &hs = hbm_->stats();
    auto cat_gbs = [&](Category c) {
        return r.seconds > 0
                   ? hs.categoryBytes[static_cast<std::size_t>(c)]
                             .value() /
                         BytesPerGB / r.seconds
                   : 0;
    };
    r.hbmDemandGBs = cat_gbs(Category::Demand);
    r.hbmMetadataGBs = cat_gbs(Category::Metadata);
    r.hbmFillGBs = cat_gbs(Category::Fill);
    r.hbmWritebackGBs = cat_gbs(Category::Writeback);
    r.hbmRowHitRate = hs.rowHitRate();

    const auto &ds = ddr_->stats();
    r.ddrTotalGBs =
        r.seconds > 0
            ? (ds.bytesRead.value() + ds.bytesWritten.value()) /
                  BytesPerGB /
                  r.seconds
            : 0;
    r.ddrRowHitRate = ds.rowHitRate();
    return r;
}

void
System::writeStatsJson(std::ostream &os) const
{
    const SystemResults r = collect();
    const std::string workload = config_.customWorkload
                                     ? config_.customWorkload->name
                                     : config_.workload;

    auto str_field = [&os](const char *key, const std::string &v,
                           bool last = false) {
        os << "      ";
        json::writeString(os, key);
        os << ": ";
        json::writeString(os, v);
        os << (last ? "\n" : ",\n");
    };
    auto num_field = [&os](const char *key, double v,
                           bool last = false) {
        os << "      ";
        json::writeString(os, key);
        os << ": ";
        json::writeNumber(os, v);
        os << (last ? "\n" : ",\n");
    };

    os << "{\n  \"meta\": {\n";
    str_field("scheme", schemeKindName(config_.scheme));
    str_field("workload", workload);
    str_field("run_label", config_.obs.runLabel.empty()
                               ? schemeKindName(config_.scheme) +
                                     std::string("/") + workload
                               : config_.obs.runLabel);
    num_field("cores", config_.numCores);
    num_field("instructions_per_core",
              static_cast<double>(config_.instructionsPerCore));
    num_field("cpu_ghz", config_.cpuGhz);
    num_field("dc_frames", static_cast<double>(config_.dcFrames));
    num_field("elapsed_ticks", r.elapsedCycles, true);
    os << "  },\n  \"results\": {\n";
    num_field("ipc", r.ipc);
    num_field("stall_ratio", r.stallRatio);
    num_field("handler_stall_ratio", r.handlerStallRatio);
    num_field("mem_stall_ratio", r.memStallRatio);
    num_field("tag_mgmt_latency", r.tagMgmtLatency);
    num_field("dc_read_latency", r.dcReadLatency);
    num_field("rmhb_gbs", r.rmhbGBs);
    num_field("llc_mpms", r.llcMpms);
    num_field("hbm_demand_gbs", r.hbmDemandGBs);
    num_field("hbm_metadata_gbs", r.hbmMetadataGBs);
    num_field("hbm_fill_gbs", r.hbmFillGBs);
    num_field("hbm_writeback_gbs", r.hbmWritebackGBs);
    num_field("hbm_row_hit_rate", r.hbmRowHitRate);
    num_field("ddr_total_gbs", r.ddrTotalGBs);
    num_field("ddr_row_hit_rate", r.ddrRowHitRate);
    num_field("buffer_hit_rate", r.bufferHitRate);
    num_field("data_miss_rate", r.dataMissRate);
    num_field("fills", static_cast<double>(r.fills));
    num_field("writebacks", static_cast<double>(r.writebacks));
    // Scheme-owned fields, kept out of other schemes' JSON so their
    // golden outputs stay byte-identical.
    for (const SchemeResultField &f : schemeRow(config_.scheme)->results)
        num_field(f.key, f.get(r));
    num_field("seconds", r.seconds, true);
    os << "  },\n  \"stats\": ";
    sim_->statistics().dumpJson(os);
    os << ",\n  \"timeseries\": ";
    if (sampler_)
        sampler_->dumpJson(os);
    else
        os << "null";
    os << "\n}\n";
}

} // namespace nomad
