/**
 * @file
 * Campaign persistence: crash-tolerant checkpoint/resume for sweeps
 * (docs/RUNNER.md, "Campaign resilience").
 *
 * A campaign directory makes a long sweep restartable: as each job
 * reaches a terminal state its outcome is persisted — the raw
 * stats-JSON run record as a shard file, failure details as a
 * pre-rendered JSON fragment, and one line in an append-only journal.
 * Re-running the same sweep with the same directory replays the
 * journal, loads the shards of jobs that already completed, and runs
 * only the rest; the merged stats document is byte-identical to an
 * uninterrupted run because completed shards are stored verbatim.
 *
 * Layout of a campaign directory:
 *
 *   journal            append-only, one line per terminal job state;
 *                      the header pins the sweep identity hash.
 *                      Last entry per job wins, so retried/resumed
 *                      jobs simply append.
 *   manifest.json      human-readable description of the sweep
 *                      (label, hash, per-job labels and seeds);
 *                      written once at creation, never read back.
 *   jobs/<i>.stats.json    the job's stats-JSON run record, verbatim.
 *   jobs/<i>.failure.json  the failures[] fragment of a job whose
 *                          last session ended non-Done (informational;
 *                          such jobs rerun on resume).
 *
 * Crash safety: shards are written to a temp name and renamed before
 * the journal line is appended and flushed, so a torn write can at
 * worst lose the *last* job's checkpoint — which then simply reruns.
 */

#ifndef NOMAD_RUNNER_CAMPAIGN_HH
#define NOMAD_RUNNER_CAMPAIGN_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "sim_job.hh"

namespace nomad::runner
{

/** FNV-1a 64-bit; the campaign identity hash. */
std::uint64_t fnv1a64(const std::string &s);

/** One persisted terminal job outcome, replayed from the journal. */
struct CampaignRecord
{
    JobStatus status = JobStatus::Failed;
    unsigned attempts = 0;      ///< Attempts spent in that session.
    double ipc = 0;             ///< Headline metrics for the summary
    double dcReadLatency = 0;   ///< table on resume.
    double wallSeconds = 0;     ///< Original host wall-clock.
    std::string error;
};

/** One campaign directory, opened for a specific sweep. */
class Campaign
{
  public:
    explicit Campaign(std::string dir);

    /**
     * Open (or create) the directory for a sweep whose identity
     * hashes to @p config_hash over @p njobs jobs. An existing
     * journal whose header disagrees throws SimError(ConfigError) —
     * resuming a *different* sweep into the same directory would
     * silently splice unrelated results. @p manifest_json is written
     * as manifest.json on first creation.
     */
    void open(std::uint64_t config_hash, std::size_t njobs,
              const std::string &manifest_json);

    const std::string &dir() const { return dir_; }

    /** True when job @p i completed in an earlier session. */
    bool completed(std::size_t i) const;

    /** The replayed record for job @p i, or null. */
    const CampaignRecord *record(std::size_t i) const;

    /**
     * Read job @p i's persisted stats shard into @p stats_json.
     * Returns false (caller reruns the job) when the shard is
     * missing, e.g. the process died between journal append and a
     * later inspection, or the campaign ran without stats capture.
     */
    bool loadStats(std::size_t i, std::string &stats_json) const;

    /**
     * Persist job @p i's terminal outcome: shards first (atomic
     * rename), then the journal line (flushed). Thread-safe; called
     * from worker threads as jobs retire. @p failure_json is the
     * pre-rendered failures[] fragment for non-Done outcomes, empty
     * otherwise.
     */
    void record(std::size_t i, const JobReport &report, double ipc,
                double dc_read_latency, const std::string &stats_json,
                const std::string &failure_json);

  private:
    std::string journalPath() const;
    std::string statsPath(std::size_t i) const;
    std::string failurePath(std::size_t i) const;

    std::string dir_;
    std::map<std::size_t, CampaignRecord> records_;
    mutable std::mutex mutex_;
};

} // namespace nomad::runner

#endif // NOMAD_RUNNER_CAMPAIGN_HH
