/**
 * @file
 * Define a custom workload two ways and run it under NOMAD:
 *
 *  1. From an INI config file (see the inline template below).
 *  2. Programmatically, by filling a WorkloadProfile.
 *
 *   ./build/examples/custom_workload [config.ini]
 */

#include <cstdio>

#include "sim/config.hh"
#include "system/system.hh"

using namespace nomad;

namespace
{

/** Build a profile from an INI [workload] section. */
WorkloadProfile
profileFromConfig(const Config &cfg)
{
    WorkloadProfile p;
    p.name = cfg.getString("workload.name", "custom");
    p.memRatio = cfg.getDouble("workload.mem_ratio", 0.3);
    p.storeRatio = cfg.getDouble("workload.store_ratio", 0.25);
    p.footprintPages =
        cfg.getUint("workload.footprint_pages", 8192);
    p.hotPages = cfg.getUint("workload.hot_pages", 128);
    p.streamFraction = cfg.getDouble("workload.stream_fraction", 0.5);
    p.revisitFraction =
        cfg.getDouble("workload.revisit_fraction", 0.0);
    p.blocksPerVisit =
        cfg.getUint<std::uint32_t>("workload.blocks_per_visit", 64);
    p.sequentialBlocks =
        cfg.getBool("workload.sequential_blocks", true);
    p.rereferenceProb =
        cfg.getDouble("workload.rereference_prob", 0.7);
    p.concurrentStreams =
        cfg.getUint<std::uint32_t>("workload.concurrent_streams", 2);
    return p;
}

const char *DefaultIni = R"(
[workload]
name = mystream
mem_ratio = 0.33
store_ratio = 0.4
footprint_pages = 16384
hot_pages = 96
stream_fraction = 0.9
revisit_fraction = 0.3
blocks_per_visit = 64
sequential_blocks = true
rereference_prob = 0.6
concurrent_streams = 4
)";

double
runNomad(const WorkloadProfile &profile)
{
    SystemConfig cfg;
    cfg.scheme = SchemeKind::Nomad;
    cfg.customWorkload = profile;
    cfg.instructionsPerCore = 100'000;
    cfg.warmupInstructionsPerCore = 100'000;
    System system(cfg);
    return system.run().ipc;
}

} // namespace

int
main(int argc, char **argv)
{
    // 1. From a config file (or the built-in template).
    const Config cfg = argc > 1 ? Config::fromFile(argv[1])
                                : Config::fromString(DefaultIni);
    const WorkloadProfile profile = profileFromConfig(cfg);
    std::printf("1. Config-defined workload '%s': NOMAD IPC %.3f\n",
                profile.name.c_str(), runNomad(profile));

    // 2. Programmatic variant: the same stream but pointer-chasing.
    WorkloadProfile chase = profile;
    chase.name = profile.name + "-sparse";
    chase.blocksPerVisit = 8;
    chase.sequentialBlocks = false;
    std::printf("2. Programmatic variant '%s': NOMAD IPC %.3f\n",
                chase.name.c_str(), runNomad(chase));
    return 0;
}
