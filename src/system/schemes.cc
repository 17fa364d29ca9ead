/**
 * @file
 * The scheme table's rows, and SystemConfig::validate(), which runs
 * the scheme-independent checks and then the selected row's
 * validator. Each build function applies that scheme's parameter
 * fixups (frame counts, capacities, the copy timeout); each validator
 * checks only that scheme's parameter block, so NOMAD's PCSHR
 * constraints are not enforced while running Alloy.
 */

#include "schemes.hh"

#include <algorithm>
#include <cctype>
#include <iterator>

#include "harden/diag.hh"
#include "harden/fault.hh"
#include "system.hh"

namespace nomad
{

namespace
{

[[noreturn]] void
reject(const std::string &msg)
{
    throw harden::SimError(harden::ErrorKind::ConfigError,
                           "bad config: " + msg);
}

/** SchemeResultField::get for the SystemResults member @p Member. */
template <auto Member>
double
result(const SystemResults &r)
{
    return static_cast<double>(r.*Member);
}

// Baseline ------------------------------------------------------------

std::unique_ptr<DramCacheScheme>
buildBaseline(Simulation &sim, const SystemConfig &, DramDevice &ddr,
              DramDevice &, PageTable &page_table, Tick)
{
    return std::make_unique<BaselineScheme>(sim, "baseline", ddr,
                                            page_table);
}

// TiD -----------------------------------------------------------------

std::unique_ptr<DramCacheScheme>
buildTid(Simulation &sim, const SystemConfig &cfg, DramDevice &ddr,
         DramDevice &hbm, PageTable &page_table, Tick)
{
    TidParams p = cfg.tid;
    p.capacityBytes = cfg.dcFrames * PageBytes;
    return std::make_unique<TidScheme>(sim, "tid", p, ddr, hbm,
                                       page_table);
}

void
validateTid(const SystemConfig &cfg)
{
    if (cfg.tid.mshrs == 0)
        reject("tid.mshrs must be >= 1");
    if (cfg.tid.assoc == 0 || cfg.tid.lineBytes == 0)
        reject("tid assoc/lineBytes must be nonzero");
}

// TDC -----------------------------------------------------------------

std::unique_ptr<DramCacheScheme>
buildTdc(Simulation &sim, const SystemConfig &cfg, DramDevice &ddr,
         DramDevice &hbm, PageTable &page_table, Tick copy_timeout)
{
    TdcParams p = cfg.tdc;
    p.frontEnd.numFrames = cfg.dcFrames;
    p.frontEnd.evictionThreshold =
        std::max<std::uint64_t>(96, cfg.dcFrames / 8);
    p.copyEngines = cfg.numCores;
    p.copyTimeoutTicks = copy_timeout;
    return std::make_unique<TdcScheme>(sim, "tdc", p, ddr, hbm,
                                       page_table);
}

// NOMAD ---------------------------------------------------------------

std::unique_ptr<DramCacheScheme>
buildNomad(Simulation &sim, const SystemConfig &cfg, DramDevice &ddr,
           DramDevice &hbm, PageTable &page_table, Tick copy_timeout)
{
    NomadParams p = cfg.nomad;
    p.frontEnd.numFrames = cfg.dcFrames;
    p.frontEnd.evictionThreshold =
        std::max<std::uint64_t>(96, cfg.dcFrames / 8);
    p.backEnd.copyTimeoutTicks = copy_timeout;
    return std::make_unique<NomadScheme>(sim, "nomad", p, ddr, hbm,
                                         page_table);
}

void
validateNomad(const SystemConfig &cfg)
{
    const NomadBackEndParams &be = cfg.nomad.backEnd;
    if (be.numPcshrs == 0)
        reject("nomad.backEnd.numPcshrs must be >= 1");
    if (be.numBuffers > be.numPcshrs)
        reject(detail::concat("nomad.backEnd.numBuffers (",
                              be.numBuffers,
                              ") must not exceed numPcshrs (",
                              be.numPcshrs,
                              "); a buffer is only ever assigned "
                              "to one PCSHR"));
    if (be.subEntriesPerPcshr == 0)
        reject("nomad.backEnd.subEntriesPerPcshr must be >= 1");
    if (be.maxReadsInFlight == 0)
        reject("nomad.backEnd.maxReadsInFlight must be >= 1");
    if (be.bufferReadLatency == 0)
        reject("nomad.backEnd.bufferReadLatency must be a nonzero "
               "latency");
    if (cfg.nomad.numBackEnds == 0)
        reject("nomad.numBackEnds must be >= 1");
    if (cfg.nomad.controllerQueueDepth == 0)
        reject("nomad.controllerQueueDepth must be >= 1");
}

// Ideal ---------------------------------------------------------------

std::unique_ptr<DramCacheScheme>
buildIdeal(Simulation &sim, const SystemConfig &cfg, DramDevice &ddr,
           DramDevice &hbm, PageTable &page_table, Tick)
{
    return std::make_unique<IdealScheme>(sim, "ideal", ddr, hbm,
                                         page_table, cfg.dcFrames);
}

// Tiering -------------------------------------------------------------

std::unique_ptr<DramCacheScheme>
buildTiering(Simulation &sim, const SystemConfig &cfg, DramDevice &ddr,
             DramDevice &hbm, PageTable &page_table, Tick copy_timeout)
{
    TieringParams p = cfg.tiering;
    if (p.nearFrames == 0)
        p.nearFrames = cfg.dcFrames;
    if (p.engine.copyTimeoutTicks == 0)
        p.engine.copyTimeoutTicks = copy_timeout;
    return std::make_unique<TieringScheme>(sim, "tiering", p, ddr, hbm,
                                           page_table);
}

void
validateTiering(const SystemConfig &cfg)
{
    if (cfg.tiering.promoteThreshold == 0)
        reject("tiering.promoteThreshold must be >= 1; a zero "
               "threshold would promote every page on first touch");
    if (cfg.tiering.heatEpochTicks == 0)
        reject("tiering.heatEpochTicks must be >= 1");
    if (cfg.tiering.engine.numSlots == 0)
        reject("tiering.engine.numSlots must be >= 1");
    if (cfg.tiering.engine.maxReadsInFlight == 0)
        reject("tiering.engine.maxReadsInFlight must be >= 1");
    // Tiering only makes sense when the far tier is slower than the
    // near tier: compare idle read latencies (ACT + CAS + one burst,
    // in CPU ticks) with the far link on top.
    auto idle_read = [](const DramTiming &t) {
        return static_cast<Tick>(t.tRCD + t.tCL + t.burstCycles) *
               t.clkRatio;
    };
    const Tick near_lat = idle_read(cfg.hbm);
    const Tick far_lat = idle_read(cfg.ddr) + cfg.tiering.farLinkTicks;
    if (far_lat < near_lat)
        reject(detail::concat(
            "tiering far tier is faster than the near tier (", far_lat,
            " < ", near_lat,
            " ticks idle read); raise tiering.farLinkTicks or "
            "pick a slower far-tier timing"));
}

std::uint64_t
tieringFrames(const SystemConfig &cfg)
{
    return std::max<std::uint64_t>(cfg.dcFrames, cfg.tiering.nearFrames);
}

constexpr SchemeResultField TieringResults[] = {
    {"promotions", result<&SystemResults::promotions>},
    {"demotions", result<&SystemResults::demotions>},
    {"migration_aborts", result<&SystemResults::migrationAborts>},
    {"near_read_p50", result<&SystemResults::nearReadP50>},
    {"near_read_p99", result<&SystemResults::nearReadP99>},
    {"far_read_p50", result<&SystemResults::farReadP50>},
    {"far_read_p99", result<&SystemResults::farReadP99>},
};

// Alloy ---------------------------------------------------------------

std::unique_ptr<DramCacheScheme>
buildAlloy(Simulation &sim, const SystemConfig &cfg, DramDevice &ddr,
           DramDevice &hbm, PageTable &page_table, Tick)
{
    AlloyParams p = cfg.alloy;
    if (p.capacityBytes == 0)
        p.capacityBytes = cfg.dcFrames * PageBytes;
    return std::make_unique<AlloyScheme>(sim, "alloy", p, ddr, hbm,
                                         page_table);
}

void
validateAlloy(const SystemConfig &cfg)
{
    if (cfg.alloy.mshrs == 0)
        reject("alloy.mshrs must be >= 1");
    if (cfg.alloy.controllerQueueDepth == 0)
        reject("alloy.controllerQueueDepth must be >= 1");
    if (cfg.alloy.capacityBytes % BlockBytes != 0)
        reject("alloy.capacityBytes must be a multiple of the "
               "64B block size");
}

std::uint64_t
alloyFrames(const SystemConfig &cfg)
{
    const std::uint64_t frames =
        (cfg.alloy.capacityBytes + PageBytes - 1) / PageBytes;
    return std::max<std::uint64_t>(cfg.dcFrames, frames);
}

constexpr SchemeResultField AlloyResults[] = {
    {"miss_predictions", result<&SystemResults::missPredictions>},
    {"spurious_fetches", result<&SystemResults::spuriousFetches>},
};

// Banshee -------------------------------------------------------------

std::unique_ptr<DramCacheScheme>
buildBanshee(Simulation &sim, const SystemConfig &cfg, DramDevice &ddr,
             DramDevice &hbm, PageTable &page_table, Tick copy_timeout)
{
    BansheeParams p = cfg.banshee;
    if (p.numFrames == 0)
        p.numFrames = cfg.dcFrames;
    p.backEnd.copyTimeoutTicks = copy_timeout;
    return std::make_unique<BansheeScheme>(sim, "banshee", p, ddr, hbm,
                                           page_table);
}

void
validateBanshee(const SystemConfig &cfg)
{
    if (cfg.banshee.cacheThreshold == 0)
        reject("banshee.cacheThreshold must be >= 1; a zero "
               "threshold would cache every page on first touch");
    if (cfg.banshee.heatEpochTicks == 0)
        reject("banshee.heatEpochTicks must be >= 1");
    if (cfg.banshee.fillWindowTicks == 0)
        reject("banshee.fillWindowTicks must be >= 1");
    if (cfg.banshee.fillBudgetBytes < PageBytes)
        reject("banshee.fillBudgetBytes must admit at least one "
               "page per window");
    if (cfg.banshee.replaceScanLimit == 0)
        reject("banshee.replaceScanLimit must be >= 1");
    if (cfg.banshee.backEnd.numPcshrs == 0)
        reject("banshee.backEnd.numPcshrs must be >= 1");
    if (cfg.banshee.backEnd.maxReadsInFlight == 0)
        reject("banshee.backEnd.maxReadsInFlight must be >= 1");
}

std::uint64_t
bansheeFrames(const SystemConfig &cfg)
{
    return std::max<std::uint64_t>(cfg.dcFrames, cfg.banshee.numFrames);
}

constexpr SchemeResultField BansheeResults[] = {
    {"fills_throttled", result<&SystemResults::fillsThrottled>},
};

// TDRAM ---------------------------------------------------------------

std::unique_ptr<DramCacheScheme>
buildTdram(Simulation &sim, const SystemConfig &cfg, DramDevice &ddr,
           DramDevice &hbm, PageTable &page_table, Tick)
{
    TdramParams p = cfg.tdram;
    if (p.capacityBytes == 0)
        p.capacityBytes = cfg.dcFrames * PageBytes;
    return std::make_unique<TdramScheme>(sim, "tdram", p, ddr, hbm,
                                         page_table);
}

void
validateTdram(const SystemConfig &cfg)
{
    if (cfg.tdram.assoc == 0)
        reject("tdram.assoc must be >= 1");
    if (cfg.tdram.mshrs == 0)
        reject("tdram.mshrs must be >= 1");
    if (cfg.tdram.controllerQueueDepth == 0)
        reject("tdram.controllerQueueDepth must be >= 1");
    if (cfg.tdram.capacityBytes %
            (static_cast<std::uint64_t>(cfg.tdram.assoc) * BlockBytes) !=
        0)
        reject("tdram.capacityBytes must divide evenly into "
               "assoc-way sets of 64B blocks");
}

std::uint64_t
tdramFrames(const SystemConfig &cfg)
{
    const std::uint64_t frames =
        (cfg.tdram.capacityBytes + PageBytes - 1) / PageBytes;
    return std::max<std::uint64_t>(cfg.dcFrames, frames);
}

constexpr SchemeResultField TdramResults[] = {
    {"early_misses", result<&SystemResults::earlyMisses>},
};

// The table -----------------------------------------------------------

constexpr SchemeRow Rows[] = {
    {"Baseline", buildBaseline, nullptr, nullptr, {}},
    {"TiD", buildTid, validateTid, nullptr, {}},
    {"TDC", buildTdc, nullptr, nullptr, {}},
    {"NOMAD", buildNomad, validateNomad, nullptr, {}},
    {"Ideal", buildIdeal, nullptr, nullptr, {}},
    {"Tiering", buildTiering, validateTiering, tieringFrames,
     TieringResults},
    {"Alloy", buildAlloy, validateAlloy, alloyFrames, AlloyResults},
    {"Banshee", buildBanshee, validateBanshee, bansheeFrames,
     BansheeResults},
    {"TDRAM", buildTdram, validateTdram, tdramFrames, TdramResults},
};
static_assert(std::size(Rows) == NumSchemeKinds,
              "the scheme table needs one row per SchemeKind");

} // namespace

const SchemeRow *
schemeRow(SchemeKind kind)
{
    const auto i = static_cast<std::size_t>(kind);
    return i < std::size(Rows) ? &Rows[i] : nullptr;
}

const char *
schemeKindName(SchemeKind k)
{
    const SchemeRow *row = schemeRow(k);
    return row ? row->name : "?";
}

std::optional<SchemeKind>
schemeKindFromName(const std::string &name)
{
    auto lower = [](const std::string &s) {
        std::string out = s;
        for (char &c : out)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        return out;
    };
    const std::string want = lower(name);
    for (SchemeKind k : EverySchemeKind) {
        if (lower(schemeKindName(k)) == want)
            return k;
    }
    return std::nullopt;
}

void
SystemConfig::validate() const
{
    if (numCores == 0)
        reject("numCores must be >= 1");
    // The per-core TLB directories are 64-bit masks, one bit per core.
    if (numCores > 64)
        reject(detail::concat("numCores must be <= 64 (got ", numCores,
                              ")"));
    if (cpuGhz <= 0)
        reject(detail::concat("cpuGhz must be positive (got ", cpuGhz,
                              ")"));
    if (dcFrames == 0)
        reject("dcFrames must be >= 1");
    if (instructionsPerCore == 0)
        reject("instructionsPerCore must be >= 1");
    if (!customWorkload && findProfile(workload) == nullptr)
        reject("unknown workload profile '" + workload + "'");
    if (core.issueWidth == 0 || core.retireWidth == 0)
        reject("core issue/retire width must be >= 1");
    if (core.windowSize == 0)
        reject("core windowSize must be >= 1");

    const SchemeRow *row = schemeRow(scheme);
    if (row == nullptr)
        reject(detail::concat("unknown scheme kind ",
                              static_cast<unsigned>(scheme)));
    if (row->validate)
        row->validate(*this);

    // Parse early so a malformed spec is rejected as a config error
    // with the clause-level message, not deep inside construction.
    if (!harden.faultSpec.empty())
        harden::FaultSpec::parse(harden.faultSpec);
}

} // namespace nomad
