/**
 * @file
 * nomad-chaos: seeded chaos-fuzzing campaigns with automatic
 * fault-schedule minimization (docs/CHAOS.md).
 *
 * Campaign mode — fuzz a suite's jobs with random fault schedules:
 *
 *   nomad-chaos --suite fig9 --trials 50 --watchdog 2000000 \
 *               --bundle-dir chaos-out
 *
 *   --suite=NAME        suite whose jobs are fuzzed (default fig9)
 *   --trials=N          fuzzing trials (default 25); trial t runs
 *                       suite job t mod njobs
 *   --seed=S            base seed (default 12345); every trial's job
 *                       seed and fault schedule derive from it
 *   --timeout=SEC       per-trial wall-clock deadline (default none)
 *   --shrink-budget=N   oracle runs per minimization (default 200;
 *                       0 disables shrinking)
 *   --watchdog=TICKS    forward-progress watchdog for every trial
 *   --copy-timeout=T    back-end copy-timeout override
 *   --bundle-dir=DIR    write a repro bundle per failure
 *   --instr=N --cores=N scale knobs, as in nomad-sweep
 *   --quiet             suppress per-trial progress on stderr
 *
 * Replay mode — re-run a bundle and verify it still fails the same:
 *
 *   nomad-chaos --replay=BUNDLE_DIR [--diag-out=PATH]
 *
 * Exit status: campaign mode exits 0 when no trial failed, 1 when
 * failures were found (and bundled); replay mode exits 0 when the
 * recorded failure reproduced, 1 when it did not.
 */

#include <cstdio>

#include "chaos.hh"
#include "harden/diag.hh"
#include "sim/config.hh"
#include "sim/logging.hh"

using namespace nomad;
using namespace nomad::runner;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(
        argc, argv,
        {{"suite", true}, {"trials", true}, {"seed", true},
         {"timeout", true}, {"shrink-budget", true}, {"watchdog", true},
         {"copy-timeout", true}, {"bundle-dir", true}, {"instr", true},
         {"cores", true}, {"replay", true}, {"diag-out", true},
         {"quiet", false}},
        "docs/CHAOS.md");

    const bool quiet = cfg.getBool("quiet", false);

    if (const std::string bundle = cfg.getString("replay");
        !bundle.empty()) {
        try {
            const bool reproduced = replayBundle(
                bundle, cfg.getString("diag-out"), !quiet);
            return reproduced ? 0 : 1;
        } catch (const harden::SimError &e) {
            fatal(e.what());
        }
    }

    ChaosOptions opts;
    opts.suite = cfg.getString("suite", "fig9");
    opts.scale.instrPerCore =
        cfg.getUintOrEnv("instr", "NOMAD_BENCH_INSTR", 0);
    opts.scale.cores =
        cfg.getUintOrEnv<std::uint32_t>("cores", "NOMAD_BENCH_CORES", 0);
    opts.baseSeed = cfg.getUint("seed", 12345);
    opts.trials = cfg.getUint<unsigned>("trials", 25);
    opts.timeoutSeconds = cfg.getDouble("timeout", 0);
    opts.shrinkBudget = cfg.getUint<unsigned>("shrink-budget", 200);
    opts.watchdogTicks = cfg.getUint("watchdog", 0);
    opts.copyTimeoutTicks = cfg.getUint("copy-timeout", 0);
    opts.bundleDir = cfg.getString("bundle-dir");
    opts.progress = !quiet;

    std::printf("nomad-chaos: suite %s, %u trial%s, base seed %llu\n",
                opts.suite.c_str(), opts.trials,
                opts.trials == 1 ? "" : "s",
                static_cast<unsigned long long>(opts.baseSeed));

    ChaosReport report;
    try {
        report = runChaosCampaign(opts);
    } catch (const harden::SimError &e) {
        fatal(e.what());
    }

    std::printf("\n%u trial%s run, %zu failure%s\n", report.trialsRun,
                report.trialsRun == 1 ? "" : "s",
                report.failures.size(),
                report.failures.size() == 1 ? "" : "s");
    for (const ChaosFailure &f : report.failures) {
        std::printf("  trial %-3u %-24s %-19s spec '%s'\n", f.trial,
                    f.jobLabel.c_str(),
                    nomad::harden::errorKindName(f.kind),
                    f.minimized.describe().c_str());
        if (!f.bundlePath.empty())
            std::printf("            bundle: %s\n",
                        f.bundlePath.c_str());
    }
    return report.failures.empty() ? 0 : 1;
}
