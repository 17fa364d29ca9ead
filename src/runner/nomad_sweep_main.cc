/**
 * @file
 * nomad-sweep: the experiment CLI. Runs any registered suite
 * (--list shows them; scripts/regen_experiments.py renders the
 * paper's tables from their merged stats) as a concurrent sweep on
 * up to --jobs worker threads, with the observability CLI plus the
 * runner knobs:
 *
 *   nomad-sweep --suite fig9 --jobs 8 --stats-json out.json
 *
 *   --suite=NAME        which suite to run (--list shows them)
 *   --scheme=A,B        restrict the suite to the listed schemes
 *                       (scheme names, case-insensitive; unknown
 *                       names fail listing every scheme)
 *   --jobs=N            worker threads (default 1)
 *   --seed=S            base RNG seed (default 12345); each job runs
 *                       with deriveSeed(S, index), so results do not
 *                       depend on N
 *   --timeout=SEC       per-job wall-clock deadline (default none);
 *                       an overrun is reported `timeout`, not fatal
 *   --stats-json=PATH   merged {"runs": [...]} in submission order
 *   --trace=PATH        shared Chrome trace; job i gets pid i+1
 *   --trace-dram        enable the high-volume DRAM category
 *   --sample-period=N   stat-sampler period (default 5000)
 *   --instr=N --cores=N scale knobs (env NOMAD_BENCH_* honoured)
 *   --quiet             suppress per-job progress on stderr
 *   --list              print the suite registry and exit
 *
 * Campaign resilience (docs/RUNNER.md, "Campaign resilience"):
 *
 *   --retries=K         re-run failed/timed-out jobs up to K extra
 *                       times (same derived seed) with exponential
 *                       backoff; attempt history lands in the
 *                       failures array
 *   --retry-backoff-ms=MS  first backoff delay (default 100; doubles
 *                       per attempt, capped at 60s)
 *   --campaign-dir=DIR  checkpoint/resume directory: job outcomes
 *                       persist as they retire, and re-running the
 *                       same sweep with the same DIR skips completed
 *                       jobs and produces byte-identical merged stats
 *
 * Hardening knobs (docs/HARDENING.md), applied to every job:
 *
 *   --fault-spec=SPEC   deterministic fault injection, e.g.
 *                       seed=7:drop-dram=0.01:stuck-copy=0.005
 *   --check-invariants  enable model invariant checks + drain audit
 *   --watchdog=TICKS    forward-progress watchdog threshold
 *   --copy-timeout=T    per-page-copy retry timeout in ticks
 *
 * Exit status: 0 when every job completed, 1 otherwise (the sweep
 * itself always runs to the end; failures never abort it).
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "harden/fault.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "suites.hh"
#include "sweep.hh"
#include "system/schemes.hh"

using namespace nomad;
using namespace nomad::runner;

namespace
{

void
listSuites()
{
    std::printf("available suites (--suite=NAME):\n");
    for (const SuiteInfo &s : allSuites())
        std::printf("  %-10s %s\n", s.name, s.description);
}

/** Every scheme's name, in table order, comma-separated. */
std::string
schemeNames()
{
    std::string out;
    for (SchemeKind k : EverySchemeKind) {
        if (!out.empty())
            out += ", ";
        out += schemeKindName(k);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(
        argc, argv,
        {{"suite", true}, {"scheme", true}, {"jobs", true},
         {"seed", true}, {"timeout", true}, {"stats-json", true},
         {"trace", true}, {"sample-period", true}, {"instr", true},
         {"cores", true}, {"fault-spec", true}, {"watchdog", true},
         {"copy-timeout", true}, {"retries", true},
         {"retry-backoff-ms", true}, {"campaign-dir", true},
         {"trace-dram", false}, {"quiet", false}, {"list", false},
         {"check-invariants", false}, {"legacy-kernel", false}},
        "docs/RUNNER.md");
    if (cfg.getBool("list", false)) {
        listSuites();
        return 0;
    }

    const std::string suiteName = cfg.getString("suite");
    if (suiteName.empty()) {
        std::fprintf(stderr,
                     "usage: nomad-sweep --suite=NAME [--jobs=N] "
                     "[--stats-json=PATH] ... (--list for suites)\n");
        return 2;
    }

    SuiteOptions suiteOpts;
    suiteOpts.instrPerCore =
        cfg.getUintOrEnv("instr", "NOMAD_BENCH_INSTR", 0);
    suiteOpts.cores =
        cfg.getUintOrEnv<std::uint32_t>("cores", "NOMAD_BENCH_CORES", 0);
    // --scheme=a,b filters the suite's job set to the listed schemes;
    // an unknown name fails listing every scheme in the table.
    if (const std::string filter = cfg.getString("scheme");
        !filter.empty()) {
        std::size_t pos = 0;
        while (pos <= filter.size()) {
            const std::size_t comma = filter.find(',', pos);
            const std::string name = filter.substr(
                pos, comma == std::string::npos ? std::string::npos
                                                : comma - pos);
            if (!name.empty()) {
                const std::optional<SchemeKind> kind =
                    schemeKindFromName(name);
                if (!kind)
                    fatal("unknown scheme '", name, "' (registered: ",
                          schemeNames(), ")");
                suiteOpts.schemes.push_back(*kind);
            }
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    }

    Sweep sweep;
    if (!buildSuite(suiteName, suiteOpts, sweep)) {
        std::fprintf(stderr, "unknown suite '%s'\n",
                     suiteName.c_str());
        listSuites();
        return 2;
    }

    const std::string statsPath = cfg.getString("stats-json");
    std::unique_ptr<trace::TraceSink> sink;
    if (const std::string path = cfg.getString("trace");
        !path.empty()) {
        sink = std::make_unique<trace::TraceSink>(path);
        if (cfg.getBool("trace-dram", false))
            sink->setEnabled(trace::Cat::Dram, true);
    }

    SweepOptions opts;
    opts.jobs = cfg.getUint<unsigned>("jobs", 1);
    opts.baseSeed = cfg.getUint("seed", 12345);
    opts.timeoutSeconds = cfg.getDouble("timeout", 0);
    opts.wantStatsJson = !statsPath.empty();
    opts.traceSink = sink.get();
    if (sink || !statsPath.empty())
        opts.samplePeriod = cfg.getUint("sample-period", 5000);
    if (!cfg.getBool("quiet", false))
        opts.progress = Sweep::stderrProgress();
    opts.legacyKernel = cfg.getBool("legacy-kernel", false);
    opts.harden.faultSpec = cfg.getString("fault-spec");
    opts.harden.checkInvariants =
        cfg.getBool("check-invariants", false);
    opts.harden.watchdogTicks = cfg.getUint("watchdog", 0);
    opts.harden.copyTimeoutTicks = cfg.getUint("copy-timeout", 0);
    opts.maxRetries = cfg.getUint<unsigned>("retries", 0);
    opts.retryBackoffMs = cfg.getUint<unsigned>("retry-backoff-ms", 100);
    opts.campaignDir = cfg.getString("campaign-dir");
    opts.campaignLabel = suiteName;
    // Reject a malformed spec up front with the parser's clause-level
    // message rather than N identical per-job failures.
    try {
        harden::FaultSpec::parse(opts.harden.faultSpec);
    } catch (const harden::SimError &e) {
        fatal(e.what());
    }

    // The worker count Sweep::run starts: never more than the jobs,
    // and at least the calling thread.
    const std::size_t workers = std::max<std::size_t>(
        1, std::min<std::size_t>(opts.jobs, sweep.size()));
    std::printf("nomad-sweep: suite %s, %zu jobs on %zu worker%s\n",
                suiteName.c_str(), sweep.size(), workers,
                workers == 1 ? "" : "s");
    const std::vector<SweepRunResult> results = sweep.run(opts);

    // Summary table: one line per job, submission order.
    std::printf("\n%-28s %-8s %8s %8s %10s\n", "label", "status",
                "IPC", "DCrd-cyc", "wall(s)");
    std::size_t okCount = 0;
    for (const SweepRunResult &r : results) {
        if (r.ok()) {
            ++okCount;
            std::printf("%-28s %-8s %8.3f %8.1f %10.2f\n",
                        r.report.label.c_str(),
                        jobStatusName(r.report.status), r.results.ipc,
                        r.results.dcReadLatency,
                        r.report.wallSeconds);
        } else {
            std::printf("%-28s %-8s %26s %s\n",
                        r.report.label.c_str(),
                        jobStatusName(r.report.status), "",
                        r.report.error.c_str());
        }
    }
    std::printf("\n%zu/%zu jobs completed\n", okCount,
                results.size());

    if (sink) {
        sink->close();
        sink.reset();
    }
    if (!statsPath.empty()) {
        std::ofstream out(statsPath);
        fatal_if(!out, "cannot write ", statsPath);
        Sweep::writeMergedStats(out, results);
        std::printf("stats JSON: %s\n", statsPath.c_str());
    }
    return okCount == results.size() ? 0 : 1;
}
