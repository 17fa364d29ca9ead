/**
 * @file
 * Layer drivers: the workload, cache, vm and dram layers driven on
 * their own through their public entry points, so each layer's host
 * cost per operation can be read off the spans they record.
 */

#ifndef NOMAD_PERFBENCH_LAYERS_HH
#define NOMAD_PERFBENCH_LAYERS_HH

#include "spans.hh"
#include "system/system.hh"

namespace perfbench
{

/**
 * Drive each layer alone for about @p seconds, fed core 0's stream of
 * @p cfg (its profile and seed). Every layer pass is one trace: a
 * "<layer>.driver" span with one child span per batch of calls, whose
 * `ops` argument counts the calls the batch covers:
 *
 *   workload.next     SyntheticGenerator::next
 *   vm.lookup         Tlb::lookup, and Tlb::insert on a miss
 *   cache.access      Simulation::run while a clocked feeder offers
 *                     the batch to SramCache::tryAccess on L1 (L1 ->
 *                     L2 -> L3 -> fixed-latency memory), two per tick
 *   dram.hbm.access   Simulation::run while a feeder offers the batch
 *   dram.ddr.access   to DramDevice::tryAccess, one per tick
 *
 * The layers that need ticks are called from inside Simulation::run,
 * as in the full system, so their fills and scheduling are included.
 */
void driveLayers(const nomad::SystemConfig &cfg, double seconds,
                 SpanRecorder &rec);

} // namespace perfbench

#endif // NOMAD_PERFBENCH_LAYERS_HH
