#include "campaign.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "harden/diag.hh"

namespace fs = std::filesystem;

namespace nomad::runner
{

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace
{

constexpr const char *JournalVersion = "nomad-campaign-v1";

[[noreturn]] void
campaignError(const std::string &msg)
{
    throw harden::SimError(harden::ErrorKind::ConfigError,
                           "campaign: " + msg);
}

/** Keep journal lines one-per-record: escape the error text. */
std::string
escapeLine(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
unescapeLine(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 == s.size()) {
            out += s[i];
            continue;
        }
        switch (s[++i]) {
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          default: out += s[i];
        }
    }
    return out;
}

bool
statusFromName(const std::string &name, JobStatus &out)
{
    for (const JobStatus s :
         {JobStatus::Done, JobStatus::Failed, JobStatus::TimedOut}) {
        if (name == jobStatusName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

/** Exact double round-trip for the journal's metric fields. */
std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
writeFileAtomic(const std::string &path, const std::string &content)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            campaignError("cannot write " + tmp);
        out << content;
        out.flush();
        if (!out)
            campaignError("short write to " + tmp);
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        campaignError("cannot rename " + tmp + " -> " + path + ": " +
                      ec.message());
}

} // namespace

Campaign::Campaign(std::string dir) : dir_(std::move(dir)) {}

std::string
Campaign::journalPath() const
{
    return dir_ + "/journal";
}

std::string
Campaign::statsPath(std::size_t i) const
{
    return dir_ + "/jobs/" + std::to_string(i) + ".stats.json";
}

std::string
Campaign::failurePath(std::size_t i) const
{
    return dir_ + "/jobs/" + std::to_string(i) + ".failure.json";
}

void
Campaign::open(std::uint64_t config_hash, std::size_t njobs,
               const std::string &manifest_json)
{
    std::error_code ec;
    fs::create_directories(dir_ + "/jobs", ec);
    if (ec)
        campaignError("cannot create " + dir_ + "/jobs: " +
                      ec.message());

    char hash_text[32];
    std::snprintf(hash_text, sizeof(hash_text), "%016llx",
                  static_cast<unsigned long long>(config_hash));

    std::ifstream journal(journalPath());
    if (!journal) {
        // Fresh campaign: pin the identity in the journal header and
        // drop the human-readable manifest beside it.
        std::ofstream out(journalPath(), std::ios::trunc);
        if (!out)
            campaignError("cannot create " + journalPath());
        out << JournalVersion << " hash=" << hash_text
            << " njobs=" << njobs << "\n";
        out.flush();
        if (!out)
            campaignError("short write to " + journalPath());
        writeFileAtomic(dir_ + "/manifest.json", manifest_json);
        return;
    }

    // Resume: the header must match this sweep exactly.
    std::string header;
    std::getline(journal, header);
    std::istringstream hs(header);
    std::string version, hash_field, njobs_field;
    hs >> version >> hash_field >> njobs_field;
    if (version != JournalVersion)
        campaignError(dir_ + " is not a campaign directory (journal "
                      "header '" + header + "')");
    const std::string want_hash = std::string("hash=") + hash_text;
    const std::string want_njobs =
        "njobs=" + std::to_string(njobs);
    if (hash_field != want_hash || njobs_field != want_njobs)
        campaignError(
            dir_ + " was created for a different sweep (journal: " +
            hash_field + " " + njobs_field + ", this sweep: " +
            want_hash + " " + want_njobs +
            "); same suite, seed, scale and hardening flags are "
            "required to resume — use a fresh --campaign-dir "
            "otherwise");

    // Replay, last entry per job wins. A truncated final line (torn
    // write during a crash) is dropped by the field checks below.
    std::string line;
    while (std::getline(journal, line)) {
        std::istringstream ls(line);
        std::string tag, status_name;
        std::size_t index = 0;
        CampaignRecord rec;
        ls >> tag >> index >> status_name >> rec.attempts >>
            rec.ipc >> rec.dcReadLatency >> rec.wallSeconds;
        if (!ls || tag != "job" || index >= njobs ||
            !statusFromName(status_name, rec.status))
            continue;
        std::string rest;
        std::getline(ls, rest);
        if (!rest.empty() && rest.front() == ' ')
            rest.erase(0, 1);
        rec.error = unescapeLine(rest);
        records_[index] = std::move(rec);
    }
}

bool
Campaign::completed(std::size_t i) const
{
    const CampaignRecord *rec = record(i);
    return rec != nullptr && rec->status == JobStatus::Done;
}

const CampaignRecord *
Campaign::record(std::size_t i) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = records_.find(i);
    return it == records_.end() ? nullptr : &it->second;
}

bool
Campaign::loadStats(std::size_t i, std::string &stats_json) const
{
    std::ifstream in(statsPath(i), std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    stats_json = ss.str();
    return !stats_json.empty();
}

void
Campaign::record(std::size_t i, const JobReport &report, double ipc,
                 double dc_read_latency, const std::string &stats_json,
                 const std::string &failure_json)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (report.status == JobStatus::Done) {
        if (!stats_json.empty())
            writeFileAtomic(statsPath(i), stats_json);
        // A rerun that now succeeds supersedes any stale failure
        // fragment from an earlier session.
        std::error_code ec;
        fs::remove(failurePath(i), ec);
    } else if (!failure_json.empty()) {
        writeFileAtomic(failurePath(i), failure_json);
    }

    std::ofstream out(journalPath(), std::ios::app);
    if (!out)
        campaignError("cannot append to " + journalPath());
    out << "job " << i << " " << jobStatusName(report.status) << " "
        << (report.attempts.empty() ? 1 : report.attempts.size())
        << " " << formatDouble(ipc) << " "
        << formatDouble(dc_read_latency) << " "
        << formatDouble(report.wallSeconds) << " "
        << escapeLine(report.error) << "\n";
    out.flush();
    if (!out)
        campaignError("short write to " + journalPath());

    CampaignRecord rec;
    rec.status = report.status;
    rec.attempts = static_cast<unsigned>(
        report.attempts.empty() ? 1 : report.attempts.size());
    rec.ipc = ipc;
    rec.dcReadLatency = dc_read_latency;
    rec.wallSeconds = report.wallSeconds;
    rec.error = report.error;
    records_[i] = std::move(rec);
}

} // namespace nomad::runner
