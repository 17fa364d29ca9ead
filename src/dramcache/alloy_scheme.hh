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
 * format's bandwidth tax (8 tag bytes riding every burst) is modeled
 * as one extra on-package metadata burst per 8 TAD accesses.
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
    /**
     * The global MAP-G predictor is a 3-bit saturating counter: hits
     * increment it, misses decrement it, and the upper half of its
     * range predicts a hit.
     */
    static constexpr std::uint32_t PredictorMax = 7;
    static constexpr std::uint32_t PredictorHit = 4;
    /** 8 tag bytes per TAD access fill one 64B burst every 8. */
    static constexpr std::uint32_t TadsPerTagBurst = 8;

    bool predictMiss() const { return predictor_ < PredictorHit; }
    void noteTad();
    void issueProbe(std::size_t slot);

    AlloyParams params_;
    std::uint32_t predictor_ = 0;    ///< MAP-G counter (0 = miss bias).
    /** TAD accesses since the last charged tag burst. */
    std::uint32_t tadsSinceBurst_ = 0;
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_ALLOY_SCHEME_HH
