#include "sim_job.hh"

#include <chrono>
#include <sstream>

namespace nomad::runner
{

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Done: return "done";
      case JobStatus::Failed: return "failed";
      case JobStatus::TimedOut: return "timeout";
    }
    return "unknown";
}

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t index)
{
    auto splitmix = [](std::uint64_t x) {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    };
    return splitmix(splitmix(base) ^ (index + 1));
}

SimJobOutput
runSimJob(const SimJob &job, const SimJobOptions &opts)
{
    System system(job.config);
    if (opts.timeoutSeconds > 0) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration<double>(opts.timeoutSeconds);
        system.setAbortCheck([deadline] {
            return std::chrono::steady_clock::now() >= deadline;
        });
    }
    if (job.post)
        job.post(system);

    SimJobOutput out;
    try {
        out.results = system.run();
    } catch (const SimAborted &e) {
        // Re-raise as the runner's timeout type, keeping the model
        // snapshot the System attached at the abort point.
        harden::Diagnostic d = e.diag();
        d.message = job.label + ": exceeded " +
                    std::to_string(opts.timeoutSeconds) +
                    "s deadline (" + d.message + ")";
        throw JobTimeout(std::move(d));
    }
    if (opts.wantStatsJson) {
        std::ostringstream ss;
        system.writeStatsJson(ss);
        out.statsJson = ss.str();
    }
    return out;
}

} // namespace nomad::runner
