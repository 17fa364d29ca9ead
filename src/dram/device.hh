/**
 * @file
 * A multi-channel DRAM device (one HBM stack or one DDR4 memory pool).
 *
 * The device routes requests to channels by the address map,
 * ticks its channels at the controller clock, and aggregates statistics.
 */

#ifndef NOMAD_DRAM_DEVICE_HH
#define NOMAD_DRAM_DEVICE_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "dram/channel.hh"
#include "dram/stats.hh"
#include "mem/request.hh"
#include "sim/simulation.hh"

namespace nomad
{

/**
 * Complete DRAM device; implements the downstream MemPort.
 *
 * The device itself is not clocked: each channel registers with the
 * simulation individually (at the controller clock), so the run loop
 * wakes exactly the channels that have work instead of pumping the
 * whole device whenever any one channel is busy.
 */
class DramDevice : public SimObject, public MemPort
{
  public:
    DramDevice(Simulation &sim, const std::string &name,
               const DramTiming &timing);

    /** Route @p req to its channel; false when that channel is full. */
    bool tryAccess(const MemRequestPtr &req) override;

    /** True when every channel's queues are drained. */
    bool
    idle() const
    {
        for (const auto &ch : channels_)
            if (!ch->idle())
                return false;
        return true;
    }

    const DramTiming &timing() const { return timing_; }
    DramStats &stats() { return stats_; }
    const DramStats &stats() const { return stats_; }
    DramChannel &channel(std::uint32_t idx) { return *channels_[idx]; }

    /** Queued reads across all channels (diagnostic snapshots). */
    std::size_t
    queuedReads() const
    {
        std::size_t total = 0;
        for (const auto &ch : channels_)
            total += ch->readQueueSize();
        return total;
    }

    /** Queued writes across all channels (diagnostic snapshots). */
    std::size_t
    queuedWrites() const
    {
        std::size_t total = 0;
        for (const auto &ch : channels_)
            total += ch->writeQueueSize();
        return total;
    }

  private:
    DramTiming timing_;
    DramStats stats_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
};

} // namespace nomad

#endif // NOMAD_DRAM_DEVICE_HH
