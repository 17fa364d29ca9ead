/**
 * @file
 * Named experiment suites: each is the job set behind one or more of
 * the paper's tables and figures, run as a Sweep by `nomad-sweep
 * --suite NAME`. scripts/regen_experiments.py runs every suite once
 * and renders each table as a view over the suite's merged stats
 * JSON, keyed by run label.
 *
 * Job orders and labels are part of the contract (documented per
 * suite in docs/RUNNER.md): the goldens pin the order, and the views
 * read their axes from the labels.
 */

#ifndef NOMAD_RUNNER_SUITES_HH
#define NOMAD_RUNNER_SUITES_HH

#include <string>
#include <vector>

#include "sweep.hh"
#include "workload/workload.hh"

namespace nomad::runner
{

/** Scale knobs shared by every suite. */
struct SuiteOptions
{
    std::uint64_t instrPerCore = 0; ///< 0: the default (600k).
    std::uint32_t cores = 0;        ///< 0: the default (4).
    /**
     * Scheme filter (`--scheme=a,b`): jobs whose scheme is not
     * listed are skipped at suite-build time. Empty: the suite's
     * full scheme set. Filtering changes submission indices (and
     * therefore derived seeds), but the filtered job list is itself
     * deterministic, so the determinism contract still holds for a
     * fixed filter.
     */
    std::vector<SchemeKind> schemes;
};

/** One registry entry: a named job set and the function that adds it. */
struct SuiteInfo
{
    const char *name;
    const char *description;
    /** Append the suite's jobs, in suite order, to the sweep. */
    void (*build)(const SuiteOptions &, Sweep &);
};

/** Every registered suite, in display order. */
const std::vector<SuiteInfo> &allSuites();

/**
 * Append suite @p name's jobs to @p out. Returns false for an
 * unknown name (registry: allSuites()).
 */
bool buildSuite(const std::string &name, const SuiteOptions &opts,
                Sweep &out);

/** The default SystemConfig for one suite run. */
SystemConfig suiteConfig(const SuiteOptions &opts, SchemeKind scheme,
                         const std::string &workload);

/**
 * Fig 17 (tiering) traffic profiles: a sustained and a bursty
 * stream, both with hot-set drift so promotion/demotion churn is
 * continuous.
 */
WorkloadProfile fig17SustainedProfile();
WorkloadProfile fig17BurstyProfile();

/**
 * The paper's five schemes, in the canonical suite order. Kept as
 * the fig9 job set so its golden output stays stable as schemes are
 * added; perfbench's resident-compute workload runs the same five.
 */
const std::vector<SchemeKind> &allSchemeKinds();

} // namespace nomad::runner

#endif // NOMAD_RUNNER_SUITES_HH
