/**
 * @file
 * Simulator-throughput benchmark: host MIPS (millions of simulated
 * instructions per host wall-clock second) per scheme per Table I
 * workload class.
 *
 * Runs the `throughput` suite (one class representative x all five
 * schemes, 20 jobs; see docs/RUNNER.md) on one worker so each job's
 * wall time is uncontended, and writes the measurement as a
 * BENCH_throughput.json entry (schema: docs/PERFORMANCE.md).
 *
 * A calibration spin loop (xorshift64*) is timed first so entries
 * recorded on different machines stay comparable: scripts/check_perf.py
 * compares `total.mips / calibration_mops` ratios, not raw MIPS.
 *
 *   --instr=N            instructions per core per run (default 600k)
 *   --cores=N            cores per system (default 4)
 *   --out=PATH           measurement file (default BENCH_throughput.json)
 *   --label=NAME         entry label recorded in the file (default
 *                        "local")
 *   --check-invariants   run every job with live invariant checks
 */

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include "runner/suites.hh"
#include "sim/config.hh"
#include "sim/logging.hh"

namespace
{

using namespace nomad;

/**
 * Millions of xorshift64* iterations per second, best of three
 * ~0.1s spins. A pure integer-ALU + branch loop is a rough but
 * stable proxy for the simulator's own instruction mix.
 */
double
calibrateMops()
{
    constexpr std::uint64_t kIters = 60'000'000;
    double best = 0;
    std::uint64_t sink = 0x9e3779b97f4a7c15ull;
    for (int rep = 0; rep < 3; ++rep) {
        std::uint64_t x = 0x243f6a8885a308d3ull + rep;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < kIters; ++i) {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            sink += x * 0x2545f4914f6cdd1dull;
        }
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        best = std::max(best, kIters / dt.count() / 1e6);
    }
    // Defeat dead-code elimination without polluting the report.
    if (sink == 0)
        std::fprintf(stderr, "calibration sink was zero\n");
    return best;
}

std::string
utcDate()
{
    const std::time_t t = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&t, &tm);
    char buf[16];
    std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm);
    return buf;
}

struct RunRecord
{
    std::string scheme;
    std::string workload;
    std::string klass;
    std::uint64_t instructions = 0;
    double wallSeconds = 0;
    double mips = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(
        argc, argv,
        {{"instr", true}, {"cores", true}, {"out", true},
         {"label", true}, {"check-invariants", false}},
        "docs/PERFORMANCE.md");
    std::string outPath = cfg.getString("out");
    if (outPath.empty())
        outPath = "BENCH_throughput.json";
    std::string label = cfg.getString("label");
    if (label.empty())
        label = "local";

    std::printf("Simulator throughput: host MIPS per scheme per workload "
                "class\n");

    const double calib = calibrateMops();
    std::printf("calibration: %.0f M xorshift64* iters/s\n", calib);

    runner::SuiteOptions suiteOpts;
    suiteOpts.instrPerCore = cfg.getUint("instr", 0);
    suiteOpts.cores = static_cast<std::uint32_t>(cfg.getUint("cores", 0));
    runner::Sweep sweep;
    runner::buildSuite("throughput", suiteOpts, sweep);
    runner::SweepOptions opts;
    opts.harden.checkInvariants = cfg.getBool("check-invariants", false);
    opts.progress = runner::Sweep::stderrProgress();
    const std::vector<runner::SweepRunResult> results = sweep.run(opts);

    // Per-job simulated instructions (warm-up window included: it is
    // simulated work all the same).
    const SystemConfig &scale = sweep.job(0).config;
    const std::uint64_t instrPerCore = scale.instructionsPerCore;
    const std::uint32_t cores = scale.numCores;
    const std::uint64_t instrPerJob =
        static_cast<std::uint64_t>(cores) * instrPerCore * 2;

    // One record per completed job, in suite order: class-major,
    // scheme-minor (docs/RUNNER.md).
    std::vector<RunRecord> runs;
    std::vector<std::string> workloads; // Table rows, suite order.
    std::uint64_t totalInstr = 0;
    double totalWall = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SystemConfig &job = sweep.job(i).config;
        if (workloads.empty() || workloads.back() != job.workload)
            workloads.push_back(job.workload);
        const runner::SweepRunResult &r = results[i];
        if (!r.ok())
            continue;
        RunRecord rec;
        rec.scheme = schemeKindName(job.scheme);
        rec.workload = job.workload;
        rec.klass = workloadClassName(profileByName(job.workload).klass);
        rec.instructions = instrPerJob;
        rec.wallSeconds = r.report.wallSeconds;
        rec.mips =
            rec.wallSeconds > 0 ? instrPerJob / rec.wallSeconds / 1e6 : 0;
        totalInstr += instrPerJob;
        totalWall += rec.wallSeconds;
        runs.push_back(std::move(rec));
    }

    std::printf("\n%-10s", "class");
    for (const SchemeKind k : runner::allSchemeKinds())
        std::printf("%12s", schemeKindName(k));
    std::printf("\n");
    for (const std::string &workload : workloads) {
        std::printf("%-10s",
                    workloadClassName(profileByName(workload).klass));
        for (const SchemeKind k : runner::allSchemeKinds()) {
            double mips = 0;
            for (const RunRecord &rec : runs) {
                if (rec.workload == workload &&
                    rec.scheme == schemeKindName(k))
                    mips = rec.mips;
            }
            std::printf("%12.2f", mips);
        }
        std::printf("  (%s)\n", workload.c_str());
    }
    const double totalMips =
        totalWall > 0 ? totalInstr / totalWall / 1e6 : 0;
    std::printf("\ntotal: %.3f MIPS over %.2fs wall "
                "(%.4f MIPS per calibration Mop)\n",
                totalMips, totalWall,
                calib > 0 ? totalMips / calib : 0);

    // One trajectory entry, schema nomad-bench-throughput-v1
    // (docs/PERFORMANCE.md). scripts/check_perf.py compares and
    // appends these.
    std::ofstream out(outPath);
    fatal_if(!out, "cannot write ", outPath);
    out << "{\n\"schema\": \"nomad-bench-throughput-v1\",\n"
        << "\"entries\": [\n{\n"
        << "  \"label\": \"" << label << "\",\n"
        << "  \"date\": \"" << utcDate() << "\",\n"
        << "  \"instr_per_core\": " << instrPerCore << ",\n"
        << "  \"cores\": " << cores << ",\n"
        << "  \"calibration_mops\": " << calib << ",\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunRecord &r = runs[i];
        out << "    {\"scheme\": \"" << r.scheme
            << "\", \"workload\": \"" << r.workload
            << "\", \"workload_class\": \"" << r.klass
            << "\", \"instructions\": " << r.instructions
            << ", \"wall_seconds\": " << r.wallSeconds
            << ", \"mips\": " << r.mips << "}"
            << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"total\": {\"instructions\": " << totalInstr
        << ", \"wall_seconds\": " << totalWall
        << ", \"mips\": " << totalMips << ", \"norm_mips\": "
        << (calib > 0 ? totalMips / calib : 0) << "}\n}\n]}\n";
    out.close();
    std::printf("throughput entry: %s\n", outPath.c_str());
    return 0;
}
