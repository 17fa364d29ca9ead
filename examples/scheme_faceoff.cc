/**
 * @file
 * Compare every memory scheme on one workload and print a
 * full metric panel: IPC, stall breakdown, DC access time,
 * tag-management latency, bandwidth use, and NOMAD's
 * page-copy-buffer hit rate. The scheme list comes from the scheme
 * table (docs/SCHEMES.md) — a newly added scheme shows up here
 * without touching this file.
 *
 *   ./build/examples/scheme_faceoff [workload] [instructions-per-core]
 *
 * Workloads: cact sssp bwav les libq gems bfs cc lbm mcf bc ast pr
 * sop tc (Table I of the paper).
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "system/schemes.hh"
#include "system/system.hh"

using namespace nomad;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "libq";
    const std::uint64_t instructions =
        argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 200'000;

    const auto &profile = profileByName(workload);
    std::printf("Workload '%s' (%s class): paper RMHB %.1f GB/s, "
                "MPMS %.0f\n\n",
                workload.c_str(), workloadClassName(profile.klass),
                profile.paperRmhbGBs, profile.paperLlcMpms);
    std::printf("%-9s %6s %7s %7s %8s %8s %9s %8s %7s\n", "scheme",
                "IPC", "stall%", "OS%", "DCread", "tagLat",
                "HBM GB/s", "DDR GB/s", "PCBhit");

    for (SchemeKind kind : EverySchemeKind) {
        SystemConfig cfg;
        cfg.scheme = kind;
        cfg.workload = workload;
        cfg.instructionsPerCore = instructions;
        cfg.warmupInstructionsPerCore = instructions;
        System system(cfg);
        const SystemResults r = system.run();
        const double hbm_total = r.hbmDemandGBs + r.hbmMetadataGBs +
                                 r.hbmFillGBs + r.hbmWritebackGBs;
        std::printf("%-9s %6.3f %6.1f%% %6.1f%% %8.1f %8.0f %9.1f "
                    "%8.1f %6.1f%%\n",
                    schemeKindName(kind), r.ipc, 100 * r.stallRatio,
                    100 * r.handlerStallRatio, r.dcReadLatency,
                    r.tagMgmtLatency, hbm_total, r.ddrTotalGBs,
                    100 * r.bufferHitRate);
    }
    return 0;
}
