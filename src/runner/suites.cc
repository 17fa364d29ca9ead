#include "suites.hh"

#include <algorithm>
#include <utility>

#include "dramcache/caching_policy.hh"
#include "dramcache/os_managed_scheme.hh"
#include "system/schemes.hh"

namespace nomad::runner
{

namespace
{

/** Two representatives per Table I class: Excess, Tight, Loose, Few.
 *  The first of each is the class's rmhb representative; fig12 runs
 *  both. */
constexpr const char *ClassReps[][2] = {
    {"cact", "bwav"}, {"libq", "bfs"}, {"mcf", "cc"}, {"pr", "ast"}};

constexpr std::uint32_t Fig12Pcshrs[] = {1, 2, 4, 8, 16, 32};
constexpr std::uint32_t Fig13Pcshrs[] = {2, 4, 8, 16, 32};
constexpr std::uint32_t Fig13Cores[] = {2, 4, 8};

/** Fig 15's (n PCSHRs, m page-copy buffers) area-optimized points. */
constexpr std::pair<std::uint32_t, std::uint32_t> Fig15Points[] = {
    {4, 4}, {8, 4}, {16, 4}, {8, 8}, {16, 8}, {32, 8}, {32, 32}};

/** Fig 16's total PCSHR budgets, split over 1 or 2 back-ends. */
constexpr std::uint32_t Fig16Pcshrs[] = {2, 4, 8, 16};

/** Fig 17 far-link latencies: plain DDR behind no link; ~1000 CPU
 *  ticks, a CXL hop (~300ns at 3.2GHz); ~6400, a remote node
 *  (~2us). */
constexpr Tick Fig17FarLinkTicks[] = {0, 1000, 6400};

/** One NOMAD design-choice variant of the ablation suite. */
struct AblationVariant
{
    const char *name;
    void (*tweak)(SystemConfig &);
    /** Applied after construction (policies need the live scheme). */
    void (*post)(System &);
};

const AblationVariant AblationVariants[] = {
    {"default", nullptr, nullptr},
    {"no-critical-first",
     [](SystemConfig &cfg) {
         cfg.nomad.backEnd.criticalDataFirst = false;
     },
     nullptr},
    {"dyn-reprioritize",
     [](SystemConfig &cfg) {
         cfg.nomad.backEnd.dynamicReprioritize = true;
     },
     nullptr},
    {"no-global-mutex",
     [](SystemConfig &cfg) { cfg.nomad.frontEnd.globalMutex = false; },
     nullptr},
    {"tlb-shootdowns",
     [](SystemConfig &cfg) {
         cfg.nomad.frontEnd.tlbShootdownAvoidance = false;
     },
     nullptr},
    {"touch2-filter", nullptr,
     [](System &system) {
         static_cast<OsManagedScheme &>(system.scheme())
             .frontEnd()
             .setCachingPolicy(TouchCountPolicy::make(2));
     }},
    {"cache-50pct", nullptr,
     [](System &system) {
         static_cast<OsManagedScheme &>(system.scheme())
             .frontEnd()
             .setCachingPolicy(makeSamplingPolicy(0.5));
     }},
};

/** --scheme filter: empty selects everything. */
bool
wantScheme(const SuiteOptions &o, SchemeKind k)
{
    return o.schemes.empty() ||
           std::find(o.schemes.begin(), o.schemes.end(), k) !=
               o.schemes.end();
}

/** Append the default run of @p k on @p workload, labelled
 *  "<scheme>/<workload>", unless the scheme filter drops it. */
void
addRun(const SuiteOptions &o, SchemeKind k, const std::string &workload,
       Sweep &out)
{
    if (wantScheme(o, k))
        out.add(SimJob{std::string(schemeKindName(k)) + "/" + workload,
                       suiteConfig(o, k, workload),
                       {}});
}

WorkloadProfile
fig7ResidentProfile()
{
    WorkloadProfile p;
    p.name = "resident";
    p.memRatio = 0.33;
    p.storeRatio = 0.2;
    p.footprintPages = 192;     // Fits TLB reach and the DC per core.
    p.hotPages = 128;
    p.streamFraction = 0.0;
    p.blocksPerVisit = 32;
    p.sequentialBlocks = false; // Defeat L3 so the DC is exercised.
    p.rereferenceProb = 0.2;
    return p;
}

WorkloadProfile
fig7StreamProfile()
{
    WorkloadProfile p;
    p.name = "stream";
    p.memRatio = 0.33;
    p.storeRatio = 0.2;
    p.footprintPages = 8192;
    p.hotPages = 16;
    p.streamFraction = 1.0;
    p.blocksPerVisit = 64;
    p.sequentialBlocks = true;
    p.rereferenceProb = 0.6;
    return p;
}

void
buildFig7(const SuiteOptions &o, Sweep &out)
{
    for (const WorkloadProfile &profile :
         {fig7ResidentProfile(), fig7StreamProfile()}) {
        for (SchemeKind k : EverySchemeKind) {
            if (!wantScheme(o, k))
                continue;
            SystemConfig cfg = suiteConfig(o, k, "cact");
            cfg.customWorkload = profile;
            out.add(SimJob{std::string(schemeKindName(k)) + "/" +
                               profile.name,
                           std::move(cfg),
                           {}});
        }
    }
}

void
buildFig9(const SuiteOptions &o, Sweep &out)
{
    for (const auto &p : allProfiles()) {
        for (SchemeKind k : allSchemeKinds())
            addRun(o, k, p.name, out);
    }
}

void
buildRmhb(const SuiteOptions &o, Sweep &out)
{
    // One Table I class representative per row, every scheme in the
    // table per column, so the miss-handling bandwidth demand of
    // each class can be compared across the whole scheme zoo.
    for (const auto &reps : ClassReps) {
        for (SchemeKind k : EverySchemeKind)
            addRun(o, k, reps[0], out);
    }
}

void
buildFig12(const SuiteOptions &o, Sweep &out)
{
    for (const auto &reps : ClassReps) {
        for (const std::string name : reps) {
            addRun(o, SchemeKind::Baseline, name, out);
            if (!wantScheme(o, SchemeKind::Nomad))
                continue;
            for (const std::uint32_t n : Fig12Pcshrs) {
                SystemConfig cfg =
                    suiteConfig(o, SchemeKind::Nomad, name);
                cfg.nomad.backEnd.numPcshrs = n;
                out.add(SimJob{"nomad/" + name + "/pcshr" +
                                   std::to_string(n),
                               std::move(cfg),
                               {}});
            }
        }
    }
}

void
buildFig13(const SuiteOptions &o, Sweep &out)
{
    if (!wantScheme(o, SchemeKind::Nomad))
        return;
    for (const std::uint32_t c : Fig13Cores) {
        for (const std::string name : ClassReps[0]) { // Excess.
            for (const std::uint32_t n : Fig13Pcshrs) {
                SystemConfig cfg =
                    suiteConfig(o, SchemeKind::Nomad, name);
                cfg.numCores = c;
                cfg.nomad.backEnd.numPcshrs = n;
                out.add(SimJob{"nomad/" + name + "/c" +
                                   std::to_string(c) + "/pcshr" +
                                   std::to_string(n),
                               std::move(cfg),
                               {}});
            }
        }
    }
}

void
buildFig15(const SuiteOptions &o, Sweep &out)
{
    for (const std::string name : {"libq", "gems"}) {
        addRun(o, SchemeKind::Baseline, name, out);
        if (!wantScheme(o, SchemeKind::Nomad))
            continue;
        for (const auto &[n, m] : Fig15Points) {
            SystemConfig cfg = suiteConfig(o, SchemeKind::Nomad, name);
            cfg.nomad.backEnd.numPcshrs = n;
            cfg.nomad.backEnd.numBuffers = m;
            out.add(SimJob{"nomad/" + name + "/n" + std::to_string(n) +
                               "m" + std::to_string(m),
                           std::move(cfg),
                           {}});
        }
    }
}

void
buildFig16(const SuiteOptions &o, Sweep &out)
{
    for (const std::string name : {"cact", "libq"}) {
        addRun(o, SchemeKind::Baseline, name, out);
        if (!wantScheme(o, SchemeKind::Nomad))
            continue;
        for (const std::uint32_t backEnds : {1u, 2u}) {
            for (const std::uint32_t n : Fig16Pcshrs) {
                SystemConfig cfg =
                    suiteConfig(o, SchemeKind::Nomad, name);
                cfg.nomad.numBackEnds = backEnds;
                cfg.nomad.backEnd.numPcshrs = n / backEnds;
                out.add(SimJob{"nomad/" + name +
                                   (backEnds == 1 ? "/cent" : "/dist") +
                                   "/n" + std::to_string(n),
                               std::move(cfg),
                               {}});
            }
        }
    }
}

void
buildAblation(const SuiteOptions &o, Sweep &out)
{
    if (!wantScheme(o, SchemeKind::Nomad))
        return;
    for (const AblationVariant &v : AblationVariants) {
        for (const std::string name : {"cact", "libq", "pr"}) {
            SystemConfig cfg = suiteConfig(o, SchemeKind::Nomad, name);
            if (v.tweak)
                v.tweak(cfg);
            // A null v.post converts to an empty hook.
            out.add(SimJob{"nomad/" + name + "/" + v.name,
                           std::move(cfg), v.post});
        }
    }
}

void
buildTiering(const SuiteOptions &o, Sweep &out)
{
    if (!wantScheme(o, SchemeKind::Tiering))
        return;
    for (const WorkloadProfile &profile :
         {fig17SustainedProfile(), fig17BurstyProfile()}) {
        for (const Tick fl : Fig17FarLinkTicks) {
            SystemConfig cfg =
                suiteConfig(o, SchemeKind::Tiering, "cact");
            cfg.customWorkload = profile;
            cfg.tiering.farLinkTicks = fl;
            out.add(SimJob{"tiering/" + profile.name + "/far" +
                               std::to_string(fl),
                           std::move(cfg),
                           {}});
        }
    }
}

} // namespace

const std::vector<SchemeKind> &
allSchemeKinds()
{
    static const std::vector<SchemeKind> v = {
        SchemeKind::Baseline, SchemeKind::Tid, SchemeKind::Tdc,
        SchemeKind::Nomad, SchemeKind::Ideal};
    return v;
}

const std::vector<SuiteInfo> &
allSuites()
{
    static const std::vector<SuiteInfo> suites = {
        {"fig7",
         "Fig 7: (hit,hit)/(miss,miss) microworkloads x every "
         "registered scheme (18 jobs)",
         buildFig7},
        {"rmhb",
         "RMHB classification: Table I class representatives x "
         "every registered scheme (36 jobs)",
         buildRmhb},
        {"fig9",
         "Table I, Figs 2, 9, 10, 11: all 15 workloads x 5 schemes "
         "(75 jobs)",
         buildFig9},
        {"fig12",
         "Figs 12, 14: class representatives, Baseline + NOMAD "
         "PCSHR sweep (56 jobs)",
         buildFig12},
        {"fig13",
         "Fig 13: Excess workloads x {2,4,8} cores x PCSHR sweep "
         "(30 jobs)",
         buildFig13},
        {"fig15",
         "Fig 15: libq/gems, Baseline + NOMAD (n PCSHRs, m buffers) "
         "points (16 jobs)",
         buildFig15},
        {"fig16",
         "Fig 16: cact/libq, Baseline + centralized/distributed "
         "back-ends x PCSHRs (18 jobs)",
         buildFig16},
        {"ablation",
         "Ablation: 7 NOMAD design-choice variants x cact/libq/pr "
         "(21 jobs)",
         buildAblation},
        {"tiering",
         "Fig 17: tiering far-link latency sweep x "
         "sustained/bursty drifting traffic (6 jobs)",
         buildTiering},
    };
    return suites;
}

bool
buildSuite(const std::string &name, const SuiteOptions &opts,
           Sweep &out)
{
    for (const SuiteInfo &s : allSuites()) {
        if (name == s.name) {
            s.build(opts, out);
            return true;
        }
    }
    return false;
}

SystemConfig
suiteConfig(const SuiteOptions &opts, SchemeKind scheme,
            const std::string &workload)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.workload = workload;
    cfg.numCores = opts.cores ? opts.cores : 4;
    cfg.instructionsPerCore =
        opts.instrPerCore ? opts.instrPerCore : 600'000;
    cfg.warmupInstructionsPerCore = cfg.instructionsPerCore;
    return cfg;
}

WorkloadProfile
fig17SustainedProfile()
{
    WorkloadProfile p;
    p.name = "sustained";
    p.memRatio = 0.35;
    p.storeRatio = 0.25;
    p.footprintPages = 8192;
    p.hotPages = 512;
    p.streamFraction = 0.35; // Most visits hit the (drifting) hot set.
    p.hotZipf = 0.9;
    p.concurrentStreams = 2;
    p.blocksPerVisit = 32;
    p.sequentialBlocks = true;
    p.rereferenceProb = 0.5;
    p.hotShiftInstrs = 50'000; // Drift drives promotion/demotion churn.
    p.hotShiftPages = 128;
    return p;
}

WorkloadProfile
fig17BurstyProfile()
{
    WorkloadProfile p = fig17SustainedProfile();
    p.name = "bursty";
    p.storeRatio = 0.40;       // More stores, more write aborts.
    p.burstLength = 5000;      // libq-style on/off RMHB phases.
    p.computeLength = 5000;
    p.burstMemRatio = 0.50;
    p.computeMemRatio = 0.10;
    return p;
}

} // namespace nomad::runner
