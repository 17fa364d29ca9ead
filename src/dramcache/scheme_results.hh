/**
 * @file
 * The per-run metrics record shared by every scheme.
 *
 * SystemResults is the flat metrics struct System::collect() returns
 * after a measured window. The system fills the scheme-independent
 * fields (elapsed time, IPC, stall breakdown, DRAM-side bandwidth)
 * and then hands the record to DramCacheScheme::collectStats(), which
 * fills whatever subset below belongs to that scheme. Scheme-specific
 * extras a scheme wants in the stats JSON are listed in its row of
 * the scheme table (SchemeResultField, system/schemes.hh) so the
 * writer needs no per-scheme conditionals.
 */

#ifndef NOMAD_DRAMCACHE_SCHEME_RESULTS_HH
#define NOMAD_DRAMCACHE_SCHEME_RESULTS_HH

#include <cstdint>

namespace nomad
{

/** Bytes per GB for bandwidth reporting (2^30; fixed across schemes). */
constexpr double BytesPerGB = 1024.0 * 1024.0 * 1024.0;

/** Metrics extracted after a measured run. */
struct SystemResults
{
    double elapsedCycles = 0;
    double seconds = 0;
    double ipc = 0;              ///< Mean of per-core IPC.
    double stallRatio = 0;       ///< Mean fraction of stalled cycles.
    double handlerStallRatio = 0;///< OS-routine share of stalls.
    double memStallRatio = 0;    ///< Memory-data share of stalls.
    double tagMgmtLatency = 0;   ///< Mean handler latency (OS schemes).
    double dcReadLatency = 0;    ///< Mean demand read latency (ticks).
    double rmhbGBs = 0;          ///< (fills + writebacks) * grain / s.
    double llcMpms = 0;          ///< L3 misses per microsecond.
    double hbmDemandGBs = 0;
    double hbmMetadataGBs = 0;
    double hbmFillGBs = 0;
    double hbmWritebackGBs = 0;
    double hbmRowHitRate = 0;
    double ddrTotalGBs = 0;
    double ddrRowHitRate = 0;
    double bufferHitRate = 0;    ///< NOMAD: PCB hits / read data misses.
    double dataMissRate = 0;     ///< NOMAD: data misses / DC accesses.
    std::uint64_t fills = 0;
    std::uint64_t writebacks = 0;

    // Tiering mode only (zero elsewhere) ------------------------------
    std::uint64_t promotions = 0;    ///< Pages promoted near.
    std::uint64_t demotions = 0;     ///< Pages demoted far (any kind).
    std::uint64_t migrationAborts = 0; ///< Write-triggered aborts.
    double nearReadP50 = 0;          ///< Near-tier demand read p50.
    double nearReadP99 = 0;          ///< Near-tier demand read p99.
    double farReadP50 = 0;           ///< Far-tier demand read p50.
    double farReadP99 = 0;           ///< Far-tier demand read p99.

    // Line-grain contemporaries (zero elsewhere) ----------------------
    std::uint64_t missPredictions = 0; ///< Alloy: predicted-miss probes.
    std::uint64_t spuriousFetches = 0; ///< Alloy: wasted parallel reads.
    std::uint64_t earlyMisses = 0;     ///< TDRAM: tag-probe early misses.
    std::uint64_t fillsThrottled = 0;  ///< Banshee: fills deferred by BW cap.
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_SCHEME_RESULTS_HH
