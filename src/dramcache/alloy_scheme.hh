/**
 * @file
 * Alloy Cache: the direct-mapped TAD comparison scheme.
 *
 * Models Qureshi & Loh's latency-optimized DRAM cache (MICRO'12): a
 * direct-mapped cache of 64B lines where tag and data are fused into
 * one unit (TAD) streamed out in a single on-package burst, so a hit
 * costs exactly one access — no separate tag lookup, no associative
 * probe. Misses are covered by a MAP-G-style global miss predictor: on
 * a predicted miss the off-package fetch launches in parallel with
 * nothing (the tag probe is free in the TAD burst), while a predicted
 * hit that turns out to miss pays a serialization penalty — the fetch
 * waits behind an on-package probe — and a predicted miss that turns
 * out to hit wastes an off-package read (spurious fetch). The TAD
 * format's bandwidth tax (tag bits riding every burst) is modeled as
 * one extra on-package metadata burst per BlockBytes/tagBytesPerAccess
 * TAD accesses.
 */

#ifndef NOMAD_DRAMCACHE_ALLOY_SCHEME_HH
#define NOMAD_DRAMCACHE_ALLOY_SCHEME_HH

#include "dramcache/line_cache_scheme.hh"

namespace nomad
{

/** Alloy construction parameters. */
struct AlloyParams
{
    /** Set from dcFrames by the scheme-table row when left 0. */
    std::uint64_t capacityBytes = 0;
    std::uint32_t mshrs = 32;
    std::uint32_t targetsPerMshr = 8;
    std::uint32_t maxWritebackJobs = 64;
    std::uint32_t controllerQueueDepth = 64;
    /**
     * Tag bytes carried per TAD access; one 64B metadata burst is
     * charged every BlockBytes/tagBytesPerAccess accesses. 0 disables
     * the overhead (idealised TAD).
     */
    std::uint32_t tagBytesPerAccess = 8;
    /**
     * Width of the global MAP-G saturating counter. Counter >= half
     * range predicts hit; hits increment, misses decrement. 0 pins
     * the predictor to always-miss (every fetch launches early, every
     * actual hit pays a spurious off-package read).
     */
    std::uint32_t predictorBits = 3;
};

/** Direct-mapped TAD line cache with a global miss predictor. */
class AlloyScheme : public LineCacheScheme
{
  public:
    AlloyScheme(Simulation &sim, const std::string &name,
                const AlloyParams &params, DramDevice &off_package,
                DramDevice &on_package, PageTable &page_table);

    void collectStats(SystemResults &r) const override;

    const AlloyParams &params() const { return params_; }

    // Statistics --------------------------------------------------------
    stats::Scalar missPredictions; ///< Accesses predicted to miss.
    stats::Scalar spuriousFetches; ///< Predicted-miss hits (wasted read).
    stats::Scalar tagBursts;       ///< TAD tag-overhead metadata bursts.

  protected:
    void launchFetch(std::size_t slot) override;
    void retryLaunch(std::size_t slot) override;
    void onHitAccess(Addr line_addr, std::uint64_t set) override;
    void recordOutcome(bool hit) override;

  private:
    bool predictMiss() const { return predictor_ < predictorMid_; }
    void noteTad();
    void issueProbe(std::size_t slot);

    AlloyParams params_;
    std::uint32_t predictor_ = 0;    ///< MAP-G counter (0 = miss bias).
    std::uint32_t predictorMax_ = 0;
    std::uint32_t predictorMid_ = 0;
    /** TAD accesses since the last charged tag burst. */
    std::uint32_t tadsSinceBurst_ = 0;
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_ALLOY_SCHEME_HH
