/**
 * @file
 * End-to-end ordering smoke test: the upper-bound scheme does not lose
 * to no cache. Every scheme's own smoke run, with sane top-level
 * metrics, is EverySchemeSmoke in test_registry.cc.
 */

#include <gtest/gtest.h>

#include "system/system.hh"

namespace nomad
{
namespace
{

SystemConfig
smallConfig(SchemeKind scheme, const std::string &workload)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.scheme = scheme;
    cfg.workload = workload;
    cfg.instructionsPerCore = 20'000;
    cfg.warmupInstructionsPerCore = 20'000;
    cfg.dcFrames = 2048; // Small DC so misses happen quickly.
    return cfg;
}

TEST(SmokeOrdering, IdealBeatsBaselineOnStreamingWorkload)
{
    System base(smallConfig(SchemeKind::Baseline, "cact"));
    System ideal(smallConfig(SchemeKind::Ideal, "cact"));
    const double base_ipc = base.run().ipc;
    const double ideal_ipc = ideal.run().ipc;
    EXPECT_GT(ideal_ipc, base_ipc * 0.95)
        << "the upper-bound scheme should not lose to no-cache";
}

} // namespace
} // namespace nomad
