/**
 * @file
 * Benchmark driver. Runs one workload's System configurations one
 * after another on one host thread, times the public phase calls from
 * outside (System::System, runWarmup, runMeasured, collect +
 * writeStatsJson), checks the outputs, and writes a raw JSON report
 * that perfbench/run.py turns into metrics.
 *
 *   nomad_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   --out DIR
 *
 * Round 0 runs every configuration once, untimed, and keeps its stats
 * JSON as the reference. Every later round repeats the same seeds and
 * must reproduce that JSON byte for byte. With --trace 1 the timed
 * rounds cycle through untraced, traced (spans around each phase
 * call) and invariant-checked runs, then the layer drivers run, and
 * the spans are written as <DIR>/<NAME>.trace.json.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "layers.hh"
#include "runner/suites.hh"
#include "sim/json.hh"

namespace
{

using namespace nomad;
using perfbench::Clock;
using perfbench::secondsSince;
using perfbench::SpanRecorder;
using perfbench::SpanScope;

constexpr std::uint32_t Cores = 4;
/**
 * Constructions of each configuration behind one setup_s sample. One
 * construction takes 0.05-0.3 ms, short enough for host noise to swamp
 * it; a batch makes each sample last milliseconds.
 */
constexpr int SetupBatch = 20;
/** Timed rounds of each kind, however short --seconds is. */
constexpr std::size_t MinRoundsPerKind = 2;
/** --trace 1: shares of --seconds for the rounds and for each layer. */
constexpr double TracedRoundsShare = 0.75;
constexpr double LayerShare = 0.05;

struct Config
{
    std::string label;
    SystemConfig sys;
};

/**
 * The workload's configurations, all seeded with @p seed. Budgets give
 * every measured window a few tenths of a second, far above the
 * sub-millisecond construction; resident-compute runs five times the
 * instructions because its IPC is about ten times higher.
 */
std::vector<Config>
buildWorkload(const std::string &name, std::uint64_t seed)
{
    runner::SuiteOptions opts;
    opts.cores = Cores;
    std::vector<Config> out;
    auto add = [&](std::string label, SystemConfig cfg) {
        cfg.seed = seed;
        out.push_back(Config{std::move(label), std::move(cfg)});
    };
    if (name == "excess-pagecopy") {
        opts.instrPerCore = 60'000;
        for (SchemeKind k : {SchemeKind::Tdc, SchemeKind::Nomad})
            add(std::string(schemeKindName(k)) + "/cact",
                runner::suiteConfig(opts, k, "cact"));
    } else if (name == "resident-compute") {
        opts.instrPerCore = 300'000;
        for (SchemeKind k : runner::allSchemeKinds())
            add(std::string(schemeKindName(k)) + "/ast",
                runner::suiteConfig(opts, k, "ast"));
    } else if (name == "tiering-farlink") {
        opts.instrPerCore = 30'000;
        for (Tick far : {Tick(1000), Tick(6400)}) {
            SystemConfig cfg =
                runner::suiteConfig(opts, SchemeKind::Tiering, "cact");
            cfg.customWorkload = runner::fig17BurstyProfile();
            cfg.tiering.farLinkTicks = far;
            add("Tiering/bursty/far" + std::to_string(far),
                std::move(cfg));
        }
    }
    return out;
}

/** Host timings and simulated counts of one System run. */
struct RunSample
{
    double constructS = 0;
    double warmupS = 0;
    double measuredS = 0;
    double exportS = 0;
    double totalS = 0;
    std::uint64_t instructions = 0;
    std::uint64_t events = 0;
    std::uint64_t ticks = 0;
    /** Freelist pops in the measured window (see README). */
    std::uint64_t requests = 0;
    std::string stats;
};

/**
 * Construct, warm up, measure, export and tear down one System. With
 * a recorder, each phase call also gets a span under one run span.
 * Throws whatever the simulator throws (harden::SimError above all).
 */
RunSample
runOnce(const SystemConfig &cfg, SpanRecorder *rec)
{
    RunSample s;
    const std::uint32_t trace = rec ? rec->newTrace() : 0;
    const auto t0 = Clock::now();
    SpanScope run(rec, "system.run", SpanRecorder::NoSpan, trace);
    std::unique_ptr<System> sys;
    auto timed = [&](const char *span, double &out, auto &&call) {
        SpanScope scope(rec, span, run.id(), trace);
        const auto t = Clock::now();
        call();
        out = secondsSince(t);
    };
    timed("system.construct", s.constructS,
          [&] { sys = std::make_unique<System>(cfg); });
    timed("system.warmup", s.warmupS, [&] { sys->runWarmup(); });

    const std::uint64_t events0 = sys->sim().events().fired();
    const Tick tick0 = sys->sim().now();
    const std::uint64_t recycled0 = detail::requestPool().recycled;
    timed("system.measured", s.measuredS, [&] { sys->runMeasured(); });
    s.events = sys->sim().events().fired() - events0;
    s.ticks = sys->sim().now() - tick0;
    s.requests = detail::requestPool().recycled - recycled0;
    for (std::uint32_t c = 0; c < sys->numCores(); ++c)
        s.instructions +=
            static_cast<std::uint64_t>(sys->core(c).instructions.value());

    timed("system.export", s.exportS, [&] {
        std::ostringstream os;
        sys->collect();
        sys->writeStatsJson(os);
        s.stats = os.str();
    });
    sys.reset();
    s.totalS = secondsSince(t0);
    return s;
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    fail(const std::string &label, const std::string &why)
    {
        ++failed;
        errors.push_back(label + ": " + why);
        std::fprintf(stderr, "FAIL %s: %s\n", label.c_str(), why.c_str());
    }
};

/**
 * One checked run: a SimError or any other exception, a request-pool
 * leak, or (given @p reference) differing stats JSON fails it.
 */
bool
checkedRun(const Config &c, SpanRecorder *rec, const std::string *reference,
           Report &report, RunSample &out)
{
    ++report.attempted;
    const std::uint64_t live = liveRequestCount();
    try {
        out = runOnce(c.sys, rec);
    } catch (const std::exception &e) {
        report.fail(c.label, e.what());
        return false;
    }
    if (liveRequestCount() != live) {
        report.fail(c.label, "request-pool leak: " +
                                 std::to_string(liveRequestCount() - live) +
                                 " packets still live after teardown");
        return false;
    }
    const bool same = !reference || out.stats == *reference;
    if (reference)
        out.stats = std::string(); // Compared; keep memory flat.
    if (!same) {
        report.fail(c.label, "stats JSON differs from the same-seed "
                             "reference run");
        return false;
    }
    return true;
}

/**
 * This process's peak resident set in KiB. VmHWM, unlike getrusage's
 * ru_maxrss, does not carry over the parent's peak across exec.
 */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stol(line.substr(6));
    }
    return 0;
}

void
writeRound(std::ostream &os, std::string_view kind,
           const std::vector<RunSample> &runs)
{
    os << "{\"kind\": \"" << kind << "\", \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunSample &r = runs[i];
        os << (i ? ", " : "") << "{\"construct_s\": " << num(r.constructS)
           << ", \"warmup_s\": " << num(r.warmupS)
           << ", \"measured_s\": " << num(r.measuredS)
           << ", \"export_s\": " << num(r.exportS)
           << ", \"total_s\": " << num(r.totalS)
           << ", \"instructions\": " << r.instructions
           << ", \"events\": " << r.events << ", \"ticks\": " << r.ticks
           << ", \"requests\": " << r.requests << "}";
    }
    os << "]}";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string out;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *v = argv[i + 1];
        if (key == "--workload")
            a.workload = v;
        else if (key == "--seed")
            a.seed = std::stoull(v);
        else if (key == "--seconds")
            a.seconds = std::stod(v);
        else if (key == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else if (key == "--out")
            a.out = v;
        else
            throw std::invalid_argument("unknown option " + key);
    }
    if (argc % 2 == 0)
        throw std::invalid_argument("every option takes one value");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nomad_perfbench: %s\n", e.what());
        return 2;
    }
    const std::vector<Config> configs =
        buildWorkload(args.workload, args.seed);
    if (configs.empty() || args.out.empty() || args.seconds <= 0) {
        std::fprintf(stderr, "usage: nomad_perfbench --workload "
                             "excess-pagecopy|resident-compute|"
                             "tiering-farlink --seed N --seconds S "
                             "--trace 0|1 --out DIR\n");
        return 2;
    }
    const std::string prefix = args.out + "/" + args.workload;
    Report report;

    // Round 0: the untimed reference run of every configuration.
    std::vector<std::string> reference(configs.size());
    std::vector<RunSample> round0(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        checkedRun(configs[i], nullptr, nullptr, report, round0[i]);
        reference[i] = round0[i].stats;
        std::ofstream(prefix + "." + std::to_string(i) + ".stats.json")
            << reference[i];
    }

    // Set-up samples, one after every round so they span the whole run:
    // the mean time inside System::System() over a batch of
    // constructions (teardown untimed) of each configuration, summed
    // over configurations. Each batch counts as one attempt.
    std::vector<double> setup;
    auto sampleSetup = [&] {
        double sum = 0;
        for (const Config &c : configs) {
            ++report.attempted;
            try {
                double batch = 0;
                for (int rep = 0; rep < SetupBatch; ++rep) {
                    const auto t = Clock::now();
                    System sys(c.sys);
                    batch += secondsSince(t);
                }
                sum += batch / SetupBatch;
            } catch (const std::exception &e) {
                report.fail(c.label, e.what());
            }
        }
        setup.push_back(sum);
    };

    // Timed rounds. With --trace 1 they cycle through three kinds:
    // untraced, traced (spans around every phase call) and
    // invariant-checked (HardenConfig::checkInvariants, whose stats
    // carry extra counters and so are not compared).
    const std::vector<std::string_view> kinds =
        args.trace
            ? std::vector<std::string_view>{"timed", "traced", "checked"}
            : std::vector<std::string_view>{"timed"};
    std::vector<Config> checkedConfigs = configs;
    for (Config &c : checkedConfigs) {
        c.sys.harden.checkInvariants = true;
        c.label += " (invariant-checked)";
    }
    SpanRecorder spans;
    const double roundsBudget =
        args.trace ? args.seconds * TracedRoundsShare : args.seconds;
    std::vector<std::pair<std::string_view, std::vector<RunSample>>> rounds;
    const auto roundsStart = Clock::now();
    for (std::size_t r = 0;
         r < MinRoundsPerKind * kinds.size() ||
         secondsSince(roundsStart) < roundsBudget;
         ++r) {
        const std::string_view kind = kinds[r % kinds.size()];
        std::vector<RunSample> runs(configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i) {
            if (kind == "checked")
                checkedRun(checkedConfigs[i], nullptr, nullptr, report,
                           runs[i]);
            else
                checkedRun(configs[i], kind == "traced" ? &spans : nullptr,
                           &reference[i], report, runs[i]);
        }
        rounds.emplace_back(kind, std::move(runs));
        sampleSetup();
    }

    if (args.trace) {
        perfbench::driveLayers(configs.front().sys,
                               args.seconds * LayerShare, spans);
        std::ofstream trace(prefix + ".trace.json");
        spans.writeChromeJson(trace);
    }

    std::ofstream os(prefix + ".report.json");
    os << "{\"workload\": ";
    json::writeString(os, args.workload);
    os << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
       << ", \"cores\": " << Cores << ",\n\"configs\": [";
    for (std::size_t i = 0; i < configs.size(); ++i) {
        os << (i ? ", " : "") << "{\"label\": ";
        json::writeString(os, configs[i].label);
        os << ", \"instr_per_core\": "
           << configs[i].sys.instructionsPerCore << ", \"stats_file\": ";
        json::writeString(os, prefix + "." + std::to_string(i) +
                                  ".stats.json");
        os << "}";
    }
    os << "],\n\"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"errors\": [";
    for (std::size_t i = 0; i < report.errors.size(); ++i) {
        os << (i ? ", " : "");
        json::writeString(os, report.errors[i]);
    }
    os << "],\n\"setup_s\": [";
    for (std::size_t i = 0; i < setup.size(); ++i)
        os << (i ? ", " : "") << num(setup[i]);
    os << "],\n\"rounds\": [\n";
    writeRound(os, "reference", round0);
    for (const auto &[kind, runs] : rounds) {
        os << ",\n";
        writeRound(os, kind, runs);
    }
    os << "],\n\"trace_file\": ";
    json::writeString(os, args.trace ? prefix + ".trace.json" : "");
    os << ", \"peak_rss_kb\": " << peakRssKb() << "}\n";
    os.close();
    if (!os) {
        std::fprintf(stderr, "nomad_perfbench: cannot write %s\n",
                     (prefix + ".report.json").c_str());
        return 1;
    }
    return 0;
}
