/**
 * @file
 * One simulation as a sweep job: a fully-specified SystemConfig that
 * a worker thread can build, run, and tear down without touching
 * anything shared, plus the status, attempt and report types that
 * record how it ended.
 *
 * A System and everything it owns (event queue, stat registry,
 * RNGs) is thread-confined by construction; the only cross-job
 * state is the optional shared TraceSink, which serialises records
 * internally (src/sim/trace.hh).
 */

#ifndef NOMAD_RUNNER_SIM_JOB_HH
#define NOMAD_RUNNER_SIM_JOB_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harden/diag.hh"
#include "system/system.hh"

namespace nomad::runner
{

/**
 * Mix (base seed, job index) into one per-job RNG seed via two
 * SplitMix64 rounds. Depends only on its inputs, so a sweep's
 * results are bit-identical whatever the worker count, and distinct
 * indices land far apart even for adjacent bases.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t index);

/** One simulation unit: a config plus its display label. */
struct SimJob
{
    std::string label;
    SystemConfig config;
    /** Optional hook run after construction, before run() (e.g. the
     *  ablation benches poke scheme knobs). Must only touch the
     *  passed System. */
    std::function<void(System &)> post;
};

/** Per-job execution knobs, uniform across a sweep. */
struct SimJobOptions
{
    /** Capture writeStatsJson() output into SimJobOutput::statsJson. */
    bool wantStatsJson = false;
    /** Wall-clock deadline in seconds; 0 disables. Checked between
     *  ~100k-tick chunks, overrun throws runner::JobTimeout. */
    double timeoutSeconds = 0;
};

/** What a completed simulation job returns. */
struct SimJobOutput
{
    SystemResults results;
    std::string statsJson; ///< One stats-JSON run record, or empty.
};

/**
 * Thrown by runSimJob on a deadline overrun. A typed
 * harden::SimError so a timeout raised inside a running System
 * carries its model snapshot into the job report.
 */
class JobTimeout : public harden::SimError
{
  public:
    explicit JobTimeout(harden::Diagnostic diag)
        : harden::SimError(std::move(diag))
    {}
};

/**
 * Build and run @p job's System on the calling thread. Throws
 * JobTimeout on deadline overrun; other exceptions propagate to the
 * sweep, which records them as the attempt's failure.
 */
SimJobOutput runSimJob(const SimJob &job, const SimJobOptions &opts);

/** Terminal states of one job. */
enum class JobStatus
{
    Done,     ///< Ran to completion.
    Failed,   ///< Threw; `error` holds the exception text.
    TimedOut, ///< Threw JobTimeout (cooperative deadline).
};

/** "done", "failed" or "timeout": the name reports and journals use. */
const char *jobStatusName(JobStatus s);

/**
 * One execution attempt of a job. The retry loop (`--retries`)
 * records every attempt — including the final one — so a flaky or
 * injected failure keeps its full trail of structured diagnostics
 * even after a later attempt succeeds.
 */
struct JobAttempt
{
    JobStatus status = JobStatus::Failed;
    std::string error;
    /** Structured diagnostic JSON, snapshot included, when the
     *  attempt died with a harden::SimError; empty otherwise. */
    std::string diagJson;
    double wallSeconds = 0; ///< Host wall-clock of this attempt.
};

/** Outcome of one job: its last attempt plus the whole history. */
struct JobReport
{
    std::size_t index = 0;    ///< Submission index.
    std::string label;
    JobStatus status = JobStatus::Failed;
    std::string error;        ///< Failed/TimedOut detail.
    /** Structured diagnostic JSON (docs/HARDENING.md) when the job
     *  died with a harden::SimError; empty otherwise. */
    std::string diagJson;
    double wallSeconds = 0;   ///< Host wall-clock, retries included.
    /** Attempt history, oldest first; empty for a job a resumed
     *  campaign loaded from disk. */
    std::vector<JobAttempt> attempts;
};

} // namespace nomad::runner

#endif // NOMAD_RUNNER_SIM_JOB_HH
