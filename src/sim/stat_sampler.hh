/**
 * @file
 * Periodic statistics sampling.
 *
 * A StatSampler snapshots a set of probes every N ticks into an
 * in-memory time series, so quantities like PCSHR occupancy, free
 * cache frames, or cumulative RMHB traffic can be plotted over the
 * run instead of only being summed at the end. A probe is either a
 * registered statistic (sampled through StatBase::snapshot()) or an
 * arbitrary gauge function (for state that is not a statistic, like
 * a queue depth).
 *
 * Each sample is also mirrored to the simulation's TraceSink (when
 * attached) as counter events, so the same series shows up as counter
 * tracks in Perfetto.
 */

#ifndef NOMAD_SIM_STAT_SAMPLER_HH
#define NOMAD_SIM_STAT_SAMPLER_HH

#include <functional>
#include <string>
#include <vector>

#include "simulation.hh"
#include "stats.hh"

namespace nomad
{

/** Snapshots selected stats/gauges every period ticks. */
class StatSampler : public SimObject
{
  public:
    StatSampler(Simulation &sim, const std::string &name, Tick period);

    /** Add a gauge probe; must be added before start(). */
    void addProbe(std::string probe_name, std::function<double()> fn);

    /** Add a statistic probe, sampled through snapshot(). */
    void
    addStat(const stats::StatBase *stat)
    {
        addProbe(stat->name(), [stat]() { return stat->snapshot(); });
    }

    /** Begin sampling (records one sample immediately). */
    void start();

    /** Stop sampling; collected data stays available. */
    void stop() { running_ = false; }

    /** Drop collected samples (e.g., at the measured-window start). */
    void clear();

    Tick period() const { return period_; }
    std::size_t numProbes() const { return probes_.size(); }
    std::size_t numSamples() const { return ticks_.size(); }
    const std::vector<Tick> &sampleTicks() const { return ticks_; }

    /** Series @p i, parallel to sampleTicks(). */
    const std::vector<double> &
    series(std::size_t i) const
    {
        return probes_[i].values;
    }

    /**
     * Dump as one JSON object:
     *   {"period": N, "ticks": [...],
     *    "series": {"<probe>": [...], ...}}
     */
    void dumpJson(std::ostream &os) const;

  private:
    struct Probe
    {
        std::string name;
        std::function<double()> fn;
        std::vector<double> values;
    };

    void sample();

    Tick period_;
    bool running_ = false;
    std::vector<Probe> probes_;
    std::vector<Tick> ticks_;
};

} // namespace nomad

#endif // NOMAD_SIM_STAT_SAMPLER_HH
