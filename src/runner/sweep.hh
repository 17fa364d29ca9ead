/**
 * @file
 * The sweep engine: an ordered list of independent SimJobs run by up
 * to N worker threads, with deterministic per-job seeding and
 * trace-pid assignment, failure/timeout isolation,
 * retry-with-backoff, checkpoint/resume via a campaign directory,
 * live progress, and merged stats-JSON output in submission order.
 *
 * Determinism contract (docs/RUNNER.md): for a fixed sweep and base
 * seed, every job's SystemConfig — seed included — is computed from
 * its submission index *before* anything runs, so the `runs[]`
 * stats-JSON array is byte-identical at --jobs 1 and --jobs N.
 * Retries re-run a job with its unchanged config (same derived
 * seed), and a resumed campaign splices persisted shards back in
 * verbatim, so neither extends beyond host-side wall-clock
 * (JobReport::wallSeconds, progress lines) what varies between runs.
 */

#ifndef NOMAD_RUNNER_SWEEP_HH
#define NOMAD_RUNNER_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim_job.hh"

namespace nomad::runner
{

/**
 * Called once per job with its final report (attempt history
 * included), the count of finished jobs so far and the sweep's job
 * count. Calls are serialised and the count rises by one per call;
 * jobs a resumed campaign loaded from disk count as finished from
 * the start and are not reported. Runs on worker threads; keep it
 * cheap.
 */
using SweepProgress = std::function<void(
    const JobReport &, std::size_t done, std::size_t total)>;

/** Execution knobs for one Sweep::run(). */
struct SweepOptions
{
    /** Worker threads, the calling thread included; at most one
     *  per job left to run, at least one. */
    unsigned jobs = 1;
    std::uint64_t baseSeed = 12345; ///< Mixed with each job index.
    double timeoutSeconds = 0;      ///< Per-job deadline; 0: none.
    bool wantStatsJson = false;     ///< Collect per-run records.
    /** Shared, may be null; job i traces as pid i + 1. */
    trace::TraceSink *traceSink = nullptr;
    Tick samplePeriod = 0;          ///< StatSampler period; 0: off.
    SweepProgress progress;         ///< Null: silent.
    /**
     * Hardening applied to every job, field-by-field: a set field
     * overrides the job's own config, an unset one leaves it alone
     * (docs/HARDENING.md). Fault injection stays deterministic per
     * job — the injector mixes the spec seed with the job's derived
     * seed, so rerunning a failed job replays its faults exactly.
     */
    HardenConfig harden;
    /** Run every job on the legacy polling kernel (--legacy-kernel). */
    bool legacyKernel = false;
    /**
     * Failed/timed-out jobs are re-run up to this many extra times
     * with the same config (same derived seed), with exponential
     * backoff between attempts; every attempt is kept in
     * JobReport::attempts. 0 disables retries.
     */
    unsigned maxRetries = 0;
    /** First backoff delay; doubles per attempt (capped at 60s). */
    unsigned retryBackoffMs = 100;
    /**
     * Checkpoint/resume directory (docs/RUNNER.md). Empty: off.
     * When set, each job's outcome is persisted as it retires, jobs
     * already recorded Done in the directory are loaded instead of
     * re-run, and stats capture is forced on so shards always carry
     * the run record.
     */
    std::string campaignDir;
    /** Display label written into the campaign manifest. */
    std::string campaignLabel;
};

/** Outcome of one sweep entry, in submission order. */
struct SweepRunResult
{
    JobReport report;      ///< Status, error text, attempt history.
    SystemResults results; ///< Valid only when status == Done.
    std::string statsJson; ///< One run record, or empty.
    /** True when the outcome was loaded from the campaign directory
     *  instead of executed in this session. Cached results restore
     *  only statsJson plus the headline metrics (ipc,
     *  dcReadLatency); the rest of `results` stays zero. */
    bool fromCache = false;

    bool ok() const { return report.status == JobStatus::Done; }
};

/** An ordered collection of simulation jobs to run concurrently. */
class Sweep
{
  public:
    /** Append @p job; returns its submission index. */
    std::size_t add(SimJob job);

    std::size_t size() const { return jobs_.size(); }

    const SimJob &job(std::size_t i) const { return jobs_[i]; }

    /**
     * Execute every job; results are in submission order. Each
     * worker takes the next job index, runs it under the retry loop,
     * checkpoints it and reports progress. An exception from a
     * campaign write or from the progress hook stops the sweep:
     * run() rethrows the first one once every worker has finished
     * its current job.
     */
    std::vector<SweepRunResult> run(const SweepOptions &opts);

    /**
     * Write the merged `{"runs": [...]}` document: the statsJson of
     * every successful result, submission order preserved. When any
     * job ended non-Done the document degrades gracefully instead of
     * being abandoned: a `"mode": "degraded"` marker plus a
     * `failures` array (one entry per non-Done job, attempt history
     * and structured diagnostics included) follow the partial runs.
     */
    static void writeMergedStats(
        std::ostream &os, const std::vector<SweepRunResult> &results);

    /** Render one failures[] entry for @p report (the exact JSON
     *  writeMergedStats emits; also persisted in campaign shards). */
    static void writeFailureEntry(std::ostream &os,
                                  const JobReport &report);

    /** A progress callback printing `[sweep] k/n status label` lines
     *  to stderr. */
    static SweepProgress stderrProgress();

  private:
    std::vector<SimJob> jobs_;
};

} // namespace nomad::runner

#endif // NOMAD_RUNNER_SWEEP_HH
