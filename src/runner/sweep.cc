#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "campaign.hh"
#include "mem/request.hh"
#include "sim/json.hh"

namespace nomad::runner
{

std::size_t
Sweep::add(SimJob job)
{
    if (job.config.obs.runLabel.empty())
        job.config.obs.runLabel = job.label;
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
}

namespace
{

/**
 * Canonical identity of a finalized sweep, hashed into the campaign
 * journal header. Covers everything that changes simulated output:
 * job order, labels, derived seeds, scale, scheme/workload selection
 * and the effective hardening flags. Advisory by design — it catches
 * flag-level mismatches (different suite, seed, scale, fault spec),
 * not arbitrary code changes between sessions.
 */
std::uint64_t
sweepIdentityHash(const std::vector<SimJob> &jobs,
                  const SweepOptions &opts)
{
    std::ostringstream ss;
    ss << "nomad-sweep-identity-v1|" << opts.baseSeed << "|"
       << jobs.size();
    for (const SimJob &job : jobs) {
        const SystemConfig &cfg = job.config;
        ss << "\n" << job.label << "|" << cfg.seed << "|"
           << static_cast<int>(cfg.scheme) << "|" << cfg.workload
           << "|"
           << (cfg.customWorkload ? cfg.customWorkload->name : "")
           << "|" << cfg.numCores << "|" << cfg.instructionsPerCore
           << "|" << cfg.warmupInstructionsPerCore << "|"
           << cfg.dcFrames << "|" << cfg.obs.samplePeriod << "|"
           << cfg.harden.faultSpec << "|"
           << cfg.harden.checkInvariants << "|"
           << cfg.harden.watchdogTicks << "|"
           << cfg.harden.copyTimeoutTicks;
    }
    return fnv1a64(ss.str());
}

std::string
campaignManifestJson(const std::vector<SimJob> &jobs,
                     const SweepOptions &opts, std::uint64_t hash)
{
    std::ostringstream os;
    char hash_text[32];
    std::snprintf(hash_text, sizeof(hash_text), "%016llx",
                  static_cast<unsigned long long>(hash));
    os << "{\n\"schema\": \"nomad-campaign-v1\",\n\"label\": ";
    json::writeString(os, opts.campaignLabel);
    os << ",\n\"hash\": \"" << hash_text << "\",\n\"base_seed\": "
       << opts.baseSeed << ",\n\"njobs\": " << jobs.size()
       << ",\n\"jobs\": [\n";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i)
            os << ",\n";
        os << "{\"index\": " << i << ", \"label\": ";
        json::writeString(os, jobs[i].label);
        os << ", \"seed\": " << jobs[i].config.seed << "}";
    }
    os << "\n]\n}\n";
    return os.str();
}

/**
 * Run one attempt of @p job, auditing the request-pool balance
 * around the System's lifetime: by the time runSimJob returns or
 * unwinds the System is fully torn down, so any pooled request still
 * live is a teardown leak that would compound across in-process
 * retries. With invariant checking on, a leak fails the attempt;
 * otherwise it is appended to the attempt's error text.
 */
JobAttempt
runAttempt(const SimJob &job, const SimJobOptions &jobOpts,
           SweepRunResult &result)
{
    JobAttempt attempt;
    const std::uint64_t live_before = liveRequestCount();
    const auto start = std::chrono::steady_clock::now();
    try {
        SimJobOutput output = runSimJob(job, jobOpts);
        result.results = output.results;
        result.statsJson = std::move(output.statsJson);
        attempt.status = JobStatus::Done;
    } catch (const JobTimeout &e) {
        attempt.status = JobStatus::TimedOut;
        attempt.error = e.what();
        attempt.diagJson = e.diag().toJson();
    } catch (const harden::SimError &e) {
        attempt.status = JobStatus::Failed;
        attempt.error = e.what();
        attempt.diagJson = e.diag().toJson();
    } catch (const std::exception &e) {
        attempt.status = JobStatus::Failed;
        attempt.error = e.what();
    } catch (...) {
        attempt.status = JobStatus::Failed;
        attempt.error = "unknown exception";
    }
    attempt.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    const std::uint64_t live_after = liveRequestCount();
    if (live_after != live_before) {
        const std::string note =
            "job '" + job.label + "' leaked " +
            std::to_string(live_after - live_before) +
            " pooled request(s) across System teardown";
        if (job.config.harden.checkInvariants) {
            harden::Diagnostic d;
            d.kind = harden::ErrorKind::InvariantViolation;
            d.component = "runner";
            d.message = note;
            attempt.status = JobStatus::Failed;
            attempt.error = d.summary();
            attempt.diagJson = d.toJson();
        } else if (!attempt.error.empty()) {
            attempt.error += " [" + note + "]";
        } else {
            attempt.error = "[" + note + "]";
        }
    }
    return attempt;
}

/**
 * Run @p job (submission index @p index) until an attempt succeeds
 * or the retry budget is spent, backing off exponentially between
 * attempts. The report takes its status, error and diagnostic from
 * the last attempt and its wall time from the whole loop.
 */
void
runJob(const SimJob &job, std::size_t index,
       const SimJobOptions &jobOpts, const SweepOptions &opts,
       SweepRunResult &result)
{
    JobReport &report = result.report;
    report.index = index;
    report.label = job.label;
    const auto start = std::chrono::steady_clock::now();
    unsigned backoff_ms = opts.retryBackoffMs;
    for (unsigned attempt = 0;; ++attempt) {
        report.attempts.push_back(runAttempt(job, jobOpts, result));
        if (report.attempts.back().status == JobStatus::Done ||
            attempt >= opts.maxRetries)
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff_ms));
        backoff_ms = backoff_ms >= 30'000 ? 60'000 : backoff_ms * 2;
    }
    const JobAttempt &last = report.attempts.back();
    report.status = last.status;
    report.error = last.error;
    report.diagJson = last.diagJson;
    report.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
}

} // namespace

std::vector<SweepRunResult>
Sweep::run(const SweepOptions &opts)
{
    const std::size_t n = jobs_.size();
    std::vector<SweepRunResult> results(n);

    SimJobOptions jobOpts;
    // A campaign always captures stats so its shards carry the run
    // record whatever the caller does with it.
    jobOpts.wantStatsJson =
        opts.wantStatsJson || !opts.campaignDir.empty();
    jobOpts.timeoutSeconds = opts.timeoutSeconds;

    // Finalise every job's config deterministically up front — seed,
    // trace pid, sampler — so nothing depends on execution order.
    for (std::size_t i = 0; i < n; ++i) {
        SystemConfig &cfg = jobs_[i].config;
        cfg.seed = deriveSeed(opts.baseSeed, i);
        if (opts.traceSink) {
            cfg.obs.traceSink = opts.traceSink;
            cfg.obs.tracePid = static_cast<std::uint32_t>(i + 1);
        }
        if (opts.samplePeriod > 0)
            cfg.obs.samplePeriod = opts.samplePeriod;
        if (opts.legacyKernel)
            cfg.legacyKernel = true;
        if (opts.harden.checkInvariants)
            cfg.harden.checkInvariants = true;
        if (!opts.harden.faultSpec.empty())
            cfg.harden.faultSpec = opts.harden.faultSpec;
        if (opts.harden.watchdogTicks > 0)
            cfg.harden.watchdogTicks = opts.harden.watchdogTicks;
        if (opts.harden.copyTimeoutTicks > 0)
            cfg.harden.copyTimeoutTicks = opts.harden.copyTimeoutTicks;
    }

    // Campaign resume: load completed jobs' shards instead of
    // re-running them; anything else (failed, timed out, or torn
    // mid-write) runs again.
    std::unique_ptr<Campaign> campaign;
    std::vector<std::size_t> pending;
    pending.reserve(n);
    if (!opts.campaignDir.empty()) {
        const std::uint64_t hash = sweepIdentityHash(jobs_, opts);
        campaign = std::make_unique<Campaign>(opts.campaignDir);
        campaign->open(hash, n,
                       campaignManifestJson(jobs_, opts, hash));
    }
    for (std::size_t i = 0; i < n; ++i) {
        SweepRunResult &res = results[i];
        if (!campaign || !campaign->completed(i) ||
            !campaign->loadStats(i, res.statsJson)) {
            pending.push_back(i);
            continue;
        }
        const CampaignRecord *rec = campaign->record(i);
        res.fromCache = true;
        res.report.index = i;
        res.report.label = jobs_[i].label;
        res.report.status = JobStatus::Done;
        res.report.wallSeconds = rec->wallSeconds;
        res.results.ipc = rec->ipc;
        res.results.dcReadLatency = rec->dcReadLatency;
    }

    std::atomic<std::size_t> next{0};
    std::mutex mutex; // Guards finished, failure and progress calls.
    std::size_t finished = n - pending.size();
    std::exception_ptr failure;
    auto worker = [&] {
        for (;;) {
            const std::size_t k = next.fetch_add(1);
            if (k >= pending.size())
                return;
            const std::size_t i = pending[k];
            SweepRunResult &res = results[i];
            try {
                runJob(jobs_[i], i, jobOpts, opts, res);
                // Checkpoint as the job retires: a crash after this
                // point loses nothing. Failures are journaled too,
                // with their failures[] fragment, so the directory
                // is self-describing; they rerun on resume.
                if (campaign) {
                    std::ostringstream fragment;
                    if (!res.ok())
                        writeFailureEntry(fragment, res.report);
                    campaign->record(i, res.report, res.results.ipc,
                                     res.results.dcReadLatency,
                                     res.statsJson, fragment.str());
                }
                const std::lock_guard<std::mutex> lock(mutex);
                ++finished;
                if (opts.progress)
                    opts.progress(res.report, finished, n);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mutex);
                if (!failure)
                    failure = std::current_exception();
                next = pending.size();
            }
        }
    };

    // The calling thread is one of the workers, so --jobs 1 starts
    // no thread. jthreads join on every exit path.
    {
        const std::size_t workers = std::max<std::size_t>(
            1, std::min<std::size_t>(opts.jobs, pending.size()));
        std::vector<std::jthread> helpers;
        helpers.reserve(workers - 1);
        for (std::size_t w = 1; w < workers; ++w)
            helpers.emplace_back(worker);
        worker();
    }
    if (failure)
        std::rethrow_exception(failure);
    return results;
}

void
Sweep::writeFailureEntry(std::ostream &os, const JobReport &report)
{
    os << "{\"label\": ";
    json::writeString(os, report.label);
    os << ", \"status\": ";
    json::writeString(os, jobStatusName(report.status));
    os << ", \"error\": ";
    json::writeString(os, report.error);
    // Attempt history (oldest first) when the retry layer ran the
    // job; each entry keeps its own structured diagnostic, so every
    // timed-out attempt's final model snapshot survives later
    // retries (docs/HARDENING.md).
    if (!report.attempts.empty()) {
        os << ", \"attempts\": [";
        bool first = true;
        for (const JobAttempt &a : report.attempts) {
            if (!first)
                os << ", ";
            first = false;
            os << "{\"status\": ";
            json::writeString(os, jobStatusName(a.status));
            os << ", \"error\": ";
            json::writeString(os, a.error);
            os << ", \"diagnostic\": ";
            if (a.diagJson.empty())
                os << "null";
            else
                os << a.diagJson;
            os << "}";
        }
        os << "]";
    }
    os << ", \"diagnostic\": ";
    if (report.diagJson.empty())
        os << "null";
    else
        os << report.diagJson;
    os << "}";
}

void
Sweep::writeMergedStats(std::ostream &os,
                        const std::vector<SweepRunResult> &results)
{
    os << "{\n\"runs\": [\n";
    bool first = true;
    for (const SweepRunResult &r : results) {
        if (!r.ok() || r.statsJson.empty())
            continue;
        if (!first)
            os << ",\n";
        first = false;
        os << r.statsJson;
    }
    os << "]";
    // Failed and timed-out jobs degrade the document instead of
    // abandoning it: partial runs stay usable, a mode marker says so,
    // and a "failures" array carries the structured diagnostics.
    // Emitted only when something failed so a clean sweep's output is
    // byte-identical to the historic schema.
    bool any_failed = false;
    for (const SweepRunResult &r : results)
        any_failed = any_failed || !r.ok();
    if (any_failed) {
        os << ",\n\"mode\": \"degraded\",\n\"failures\": [\n";
        bool first_fail = true;
        for (const SweepRunResult &r : results) {
            if (r.ok())
                continue;
            if (!first_fail)
                os << ",\n";
            first_fail = false;
            writeFailureEntry(os, r.report);
        }
        os << "\n]";
    }
    os << "}\n";
}

SweepProgress
Sweep::stderrProgress()
{
    return [](const JobReport &report, std::size_t done,
              std::size_t total) {
        if (report.status == JobStatus::Done) {
            std::fprintf(stderr, "[sweep] %zu/%zu done %s (%.1fs%s)\n",
                         done, total, report.label.c_str(),
                         report.wallSeconds,
                         report.attempts.size() > 1 ? ", retried"
                                                    : "");
        } else {
            std::fprintf(stderr, "[sweep] %zu/%zu %s %s%s%s\n", done,
                         total, jobStatusName(report.status),
                         report.label.c_str(),
                         report.error.empty() ? "" : ": ",
                         report.error.c_str());
        }
    };
}

} // namespace nomad::runner
