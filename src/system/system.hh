/**
 * @file
 * Full-system assembly: cores + TLBs + SRAM hierarchy + DRAM cache
 * scheme + HBM/DDR4 devices, with warm-up handling and the metric
 * extraction every benchmark harness uses.
 */

#ifndef NOMAD_SYSTEM_SYSTEM_HH
#define NOMAD_SYSTEM_SYSTEM_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/sram_cache.hh"
#include "cpu/core.hh"
#include "dram/device.hh"
#include "dramcache/alloy_scheme.hh"
#include "dramcache/banshee_scheme.hh"
#include "dramcache/baseline_scheme.hh"
#include "dramcache/ideal_scheme.hh"
#include "dramcache/nomad_scheme.hh"
#include "dramcache/scheme_results.hh"
#include "dramcache/tdc_scheme.hh"
#include "dramcache/tdram_scheme.hh"
#include "dramcache/tid_scheme.hh"
#include "tiering/tiering_scheme.hh"
#include "harden/check.hh"
#include "harden/diag.hh"
#include "harden/fault.hh"
#include "sim/simulation.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"
#include "workload/workload.hh"

namespace nomad
{

class StatSampler;

/**
 * Display name of @p k ("NOMAD", "TiD", ...: the name in its
 * scheme-table row, system/schemes.hh), or "?" outside the enum.
 */
const char *schemeKindName(SchemeKind k);

/**
 * Round-trip parse of a schemeKindName() string (case-insensitive);
 * std::nullopt for unknown names. CLI surfaces use this instead of
 * silently defaulting when a scheme string does not match.
 */
std::optional<SchemeKind> schemeKindFromName(const std::string &name);

/**
 * Observability hooks threaded through SystemConfig. All optional:
 * the default leaves tracing and sampling off with zero overhead
 * beyond a null-pointer test per instrumented site.
 */
struct ObservabilityConfig
{
    /** Shared trace sink; several Systems may use one sink. */
    trace::TraceSink *traceSink = nullptr;
    /** trace_event pid identifying this run's process group. */
    std::uint32_t tracePid = 0;
    /** Perfetto process name / stats-JSON run label. */
    std::string runLabel;
    /** Stat-sampler period in ticks; 0 disables sampling. */
    Tick samplePeriod = 0;
};

/**
 * Hardening switches threaded through SystemConfig (docs/HARDENING.md).
 * All optional: the default leaves fault injection, invariant checking
 * and the watchdog off, and the simulation byte-identical to an
 * unhardened build.
 */
struct HardenConfig
{
    /** `--fault-spec` text (see harden::FaultSpec); empty = no faults. */
    std::string faultSpec;
    /** Evaluate NOMAD_CHECK sites and drain-time leak checks. */
    bool checkInvariants = false;
    /** Forward-progress watchdog threshold in ticks; 0 disables. */
    Tick watchdogTicks = 0;
    /**
     * Back-end copy timeout (abort-and-refetch). 0 = auto: defaulted
     * to a safe value when faults are injected, off otherwise; a
     * `no-retry` fault clause forces it off.
     */
    Tick copyTimeoutTicks = 0;

    bool
    any() const
    {
        return checkInvariants || watchdogTicks > 0 ||
               copyTimeoutTicks > 0 || !faultSpec.empty();
    }
};

/** Everything needed to build and run one experiment. */
struct SystemConfig
{
    std::uint32_t numCores = 4;
    SchemeKind scheme = SchemeKind::Nomad;
    /** Rate mode: every core runs this profile in its own VA window. */
    std::string workload = "cact";
    /** When set, overrides `workload` with a caller-built profile. */
    std::optional<WorkloadProfile> customWorkload;
    std::uint64_t instructionsPerCore = 200'000;
    std::uint64_t warmupInstructionsPerCore = 200'000;
    std::uint64_t seed = 12345;
    double cpuGhz = 3.2;
    /**
     * Drive the clocked components with the legacy global-tick polling
     * loop instead of the event-driven kernel, which fires each one
     * only at its own wake tick. The two are byte-identical in output;
     * the poll loop is kept as the reference for equivalence testing
     * (`--legacy-kernel`).
     */
    bool legacyKernel = false;

    CoreParams core;
    TlbParams tlb{64, 192, 8, 8};
    CacheParams l1{32 * 1024, 8, 4, 16, 8};
    CacheParams l2{128 * 1024, 8, 12, 24, 8};
    CacheParams l3{512 * 1024, 16, 38, 64, 8};

    /**
     * DRAM cache capacity in 4KB frames. The whole memory system is
     * scaled to 1/256 of the paper's (4MB DC standing in for ~1GB,
     * 512KB LLC for 8MB) so that FIFO steady state — several full
     * wraps of the free queue — arrives within a few hundred thousand
     * instructions per core. All capacity *ratios* (DC:LLC, DC:TLB
     * reach, footprint:DC) track the paper; see DESIGN.md.
     */
    std::uint64_t dcFrames = 1024;

    DramTiming hbm = DramTiming::hbm2();
    DramTiming ddr = DramTiming::ddr4_3200();

    NomadParams nomad;
    TdcParams tdc;
    TidParams tid;
    /**
     * Tiering-mode knobs (scheme == SchemeKind::Tiering). nearFrames
     * defaults to dcFrames; farLinkTicks models the CXL/remote link
     * on top of the off-package DRAM's own timing.
     */
    TieringParams tiering;
    // Contemporary-scheme knobs (docs/SCHEMES.md).
    AlloyParams alloy;
    BansheeParams banshee;
    TdramParams tdram;

    ObservabilityConfig obs;
    HardenConfig harden;

    /**
     * Range/consistency-check the configuration; throws
     * harden::SimError(ConfigError) with a field-level message on the
     * first violation. System's constructor calls this, and CLIs call
     * it early to reject bad flag values before any work happens.
     */
    void validate() const;
};

/**
 * Thrown out of run()/runWarmup()/runMeasured() when the installed
 * abort check fires (see System::setAbortCheck). The experiment
 * runner uses this for cooperative per-job timeouts: a run that
 * exceeds its wall-clock deadline unwinds cleanly instead of hanging
 * its worker thread forever. Carries a model snapshot through the
 * structured-diagnostic path when raised by a running System.
 */
class SimAborted : public harden::SimError
{
  public:
    explicit SimAborted(const std::string &msg)
        : harden::SimError(harden::ErrorKind::Timeout, msg)
    {}

    explicit SimAborted(harden::Diagnostic diag)
        : harden::SimError(std::move(diag))
    {}
};

// SystemResults lives with the scheme API so scheme-owned
// collectStats() hooks can fill it without an upward include.
// (dramcache/scheme_results.hh, pulled in via the scheme headers.)

/** One assembled simulation instance. */
class System
{
  public:
    explicit System(const SystemConfig &config);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Warm up (caches, TLBs, DC occupancy), reset statistics, then run
     * the measured window until every core retires its instruction
     * budget. Returns the extracted metrics.
     */
    SystemResults run();

    /** Run only the warm-up phase (for tests that inspect mid-state). */
    void runWarmup();

    /** Run the measured phase; runWarmup() must have been called. */
    SystemResults runMeasured();

    Simulation &sim() { return *sim_; }
    Core &core(std::uint32_t i) { return *cores_[i]; }
    std::uint32_t numCores() const { return config_.numCores; }
    DramCacheScheme &scheme() { return *scheme_; }
    SramCache &l3() { return *l3_; }
    Tlb &tlb(std::uint32_t i) { return *tlbs_[i]; }
    DramDevice &hbm() { return *hbm_; }
    DramDevice &ddr() { return *ddr_; }
    PageTable &pageTable() { return *pageTable_; }
    const SystemConfig &config() const { return config_; }

    /** Extract metrics for the current measured window. */
    SystemResults collect() const;

    /** The stat sampler, or null when obs.samplePeriod was 0. */
    StatSampler *sampler() { return sampler_.get(); }

    /** The fault injector, or null when no faults were configured. */
    harden::FaultInjector *injector() { return injector_.get(); }

    /**
     * Capture the structured model snapshot attached to watchdog,
     * timeout and drain diagnostics (docs/HARDENING.md): simulation
     * time and event-queue state, per-core stall reasons, scheme
     * in-flight state, DRAM queue depths, fault counters.
     */
    harden::Snapshot buildSnapshot() const;

    /**
     * Install a cancellation probe, polled between ~100k-tick
     * simulation chunks on this System's own thread. When it returns
     * true the current run phase throws SimAborted. Null clears it.
     */
    void setAbortCheck(std::function<bool()> check)
    {
        abortCheck_ = std::move(check);
    }

    /**
     * Write this run's stats as one JSON object:
     *   {"meta": {...}, "results": {...}, "stats": {...},
     *    "timeseries": {...} | null}
     * per the schema in docs/OBSERVABILITY.md.
     */
    void writeStatsJson(std::ostream &os) const;

  private:
    void runUntilCoresDone();

    SystemConfig config_;
    harden::FaultSpec faultSpec_;
    std::unique_ptr<harden::FaultInjector> injector_;
    harden::Context hardenCtx_;
    std::unique_ptr<Simulation> sim_;
    std::unique_ptr<PageTable> pageTable_;
    std::unique_ptr<DramDevice> ddr_;
    std::unique_ptr<DramDevice> hbm_;
    std::unique_ptr<DramCacheScheme> scheme_;
    std::unique_ptr<SramCache> l3_;
    std::vector<std::unique_ptr<SramCache>> l2s_;
    std::vector<std::unique_ptr<SramCache>> l1s_;
    std::vector<std::unique_ptr<Tlb>> tlbs_;
    std::vector<std::unique_ptr<SyntheticGenerator>> gens_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::unique_ptr<StatSampler> sampler_;
    std::function<bool()> abortCheck_;
    Tick measureStart_ = 0;
    bool warmedUp_ = false;
};

} // namespace nomad

#endif // NOMAD_SYSTEM_SYSTEM_HH
