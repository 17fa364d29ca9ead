/**
 * @file
 * TDRAM: the tag-enhanced DRAM comparison scheme.
 *
 * Models a tag-enhanced on-package DRAM (HPCA'24-style): the DRAM die
 * stores tags next to the data mats and returns tag+data in one
 * access, so — like Alloy — a hit costs exactly one on-package burst
 * and zero metadata traffic; unlike Alloy the cache is set-associative
 * (no conflict-miss cliff) and misses are caught by an *early miss
 * detection* path: a fast on-die tag check answers after tagCheckTicks
 * without streaming any data, and the off-package fetch launches right
 * then. No miss predictor, no spurious fetches, no serialization
 * penalty — the cost shows up as the (small) fixed tag-check delay on
 * every miss.
 */

#ifndef NOMAD_DRAMCACHE_TDRAM_SCHEME_HH
#define NOMAD_DRAMCACHE_TDRAM_SCHEME_HH

#include "dramcache/line_cache_scheme.hh"

namespace nomad
{

/** TDRAM construction parameters. */
struct TdramParams
{
    /** Set from dcFrames by the scheme-table row when left 0. */
    std::uint64_t capacityBytes = 0;
    std::uint32_t assoc = 16;
    std::uint32_t mshrs = 32;
    std::uint32_t targetsPerMshr = 8;
    std::uint32_t maxWritebackJobs = 64;
    std::uint32_t controllerQueueDepth = 64;
    /** On-die tag-check latency before a miss's fetch launches. */
    Tick tagCheckTicks = 4;
};

/** Set-associative tag-enhanced line cache with early miss detection. */
class TdramScheme : public LineCacheScheme
{
  public:
    TdramScheme(Simulation &sim, const std::string &name,
                const TdramParams &params, DramDevice &off_package,
                DramDevice &on_package, PageTable &page_table);

    void collectStats(SystemResults &r) const override;

    const TdramParams &params() const { return params_; }

    // Statistics --------------------------------------------------------
    stats::Scalar earlyMisses; ///< Misses settled by the on-die check.

  protected:
    void launchFetch(std::size_t slot) override;

  private:
    TdramParams params_;
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_TDRAM_SCHEME_HH
