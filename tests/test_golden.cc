/**
 * @file
 * Golden-output regression tests: small fig9, rmhb and tiering sweeps'
 * merged stats JSON must stay byte-identical to
 * tests/golden/<name>_small.json (3000 instructions per core), and the
 * tags-in-DRAM schemes' rmhb runs to tests/golden/tagsdram_10k.json.
 *
 * This is the guard rail for the raw-speed work (docs/PERFORMANCE.md):
 * every optimization of the simulation kernel — event pooling,
 * flattened lookups, DRAM wake bounds, run-loop skip-ahead, retry
 * notifications — claims to be semantics-preserving, and these tests
 * pin that claim to bytes rather than to eyeballed summary numbers.
 * fig9 covers the paper's five schemes; rmhb adds every other
 * registered scheme (Tiering, Alloy, Banshee, TDRAM); tiering covers
 * the far-link latencies under sustained and bursty traffic;
 * copyfaults pins the copy engines' fault recovery (copy-timeout
 * retries, write aborts, cancellations) under injected faults;
 * tagsdram_10k runs TiD, Alloy and TDRAM at 10000 instructions, the
 * budget at which their late wakes first change the output.
 *
 * To regenerate after an *intentional* modelling change, run the test
 * binary with NOMAD_REGEN_GOLDEN=1 in the environment and commit the
 * refreshed files together with the change that explains it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/suites.hh"
#include "runner/sweep.hh"

#ifndef NOMAD_GOLDEN_DIR
#error "NOMAD_GOLDEN_DIR must point at tests/golden"
#endif

namespace nomad::runner
{
namespace
{

std::string
goldenPath(const std::string &name)
{
    return std::string(NOMAD_GOLDEN_DIR) + "/" + name + ".json";
}

/** Mirror of the nomad-sweep CLI defaults used to create the files:
 *  --suite <suite> --jobs 1 --instr <instr> --cores 2 --stats-json ...,
 *  plus --scheme and the hardening flags when given. */
std::string
runSuiteSmall(const std::string &suite, std::uint64_t instr,
              const std::vector<SchemeKind> &schemes,
              const HardenConfig &harden)
{
    SuiteOptions suiteOpts;
    suiteOpts.instrPerCore = instr;
    suiteOpts.cores = 2;
    suiteOpts.schemes = schemes;
    Sweep sweep;
    if (!buildSuite(suite, suiteOpts, sweep))
        return {};

    SweepOptions opts;
    opts.jobs = 1;
    opts.baseSeed = 12345;
    opts.wantStatsJson = true;
    opts.samplePeriod = 5000;
    opts.harden = harden;
    const std::vector<SweepRunResult> results = sweep.run(opts);

    std::ostringstream out;
    Sweep::writeMergedStats(out, results);
    return out.str();
}

/** Offset of the first byte of the line of @p s holding byte @p pos. */
std::size_t
lineStart(const std::string &s, std::size_t pos)
{
    const std::size_t nl =
        pos == 0 ? std::string::npos : s.rfind('\n', pos - 1);
    return nl == std::string::npos ? 0 : nl + 1;
}

/**
 * Up to @p max chars of the line of @p s that holds byte @p pos,
 * starting a little before @p pos so the difference is in view.
 */
std::string
excerptAt(const std::string &s, std::size_t pos, std::size_t max = 160)
{
    const std::size_t line = lineStart(s, pos);
    const std::size_t begin = pos - std::min<std::size_t>(pos - line, 40);
    const std::size_t end = std::min(s.find('\n', begin), s.size());
    std::string out = begin > line ? "..." : "";
    out += s.substr(begin, std::min(end - begin, max));
    if (end - begin > max)
        out += "...";
    return out;
}

/**
 * Both sizes, where the first difference is and that part of its line
 * from each side. gtest's own string diff runs line by line over both
 * whole strings, which on the megabyte fig9 golden exhausts memory.
 */
std::string
describeDrift(const std::string &produced, const std::string &expected)
{
    const std::size_t n = std::min(produced.size(), expected.size());
    const std::size_t pos = static_cast<std::size_t>(
        std::mismatch(produced.begin(), produced.begin() + n,
                      expected.begin())
            .first -
        produced.begin());
    std::ostringstream out;
    out << "  produced " << produced.size() << " bytes, golden "
        << expected.size() << " bytes; first difference on line "
        << std::count(produced.begin(), produced.begin() + pos, '\n') + 1
        << ", column " << pos - lineStart(produced, pos) + 1
        << "\n  produced: " << excerptAt(produced, pos)
        << "\n  golden:   " << excerptAt(expected, pos) << "\n";
    return out.str();
}

/** Compare golden @p name against @p suite at @p instr instructions
 *  per core, optionally narrowed to @p schemes and run under
 *  @p harden. */
void
expectMatchesGolden(const std::string &name, const std::string &suite,
                    std::uint64_t instr = 3000,
                    const std::vector<SchemeKind> &schemes = {},
                    const HardenConfig &harden = {})
{
    const std::string produced =
        runSuiteSmall(suite, instr, schemes, harden);
    ASSERT_FALSE(produced.empty());
    const std::string path = goldenPath(name);

    if (const char *regen = std::getenv("NOMAD_REGEN_GOLDEN");
        regen && regen[0] == '1') {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << path;
        out << produced;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (run with NOMAD_REGEN_GOLDEN=1 to create)";
    std::ostringstream expected;
    expected << in.rdbuf();

    if (produced != expected.str())
        FAIL() << name << " stats JSON drifted from the golden file\n"
               << describeDrift(produced, expected.str())
               << "If the change is an intentional modelling change, "
                  "regenerate with NOMAD_REGEN_GOLDEN=1 and commit the "
                  "new golden";
}

TEST(Golden, Fig9SmallStatsJsonIsByteIdentical)
{
    expectMatchesGolden("fig9_small", "fig9");
}

TEST(Golden, RmhbSmallStatsJsonIsByteIdentical)
{
    expectMatchesGolden("rmhb_small", "rmhb");
}

TEST(Golden, TieringSmallStatsJsonIsByteIdentical)
{
    expectMatchesGolden("tiering_small", "tiering");
}

/**
 * The schemes that copy pages through a copy engine (NOMAD, TDC and
 * Banshee on the PCSHR back-end, Tiering on the migration engine),
 * under the CI fault spec with live invariant checks and the copy
 * timeout: `nomad-sweep --suite rmhb --scheme nomad,tdc,banshee,tiering
 * --check-invariants --fault-spec <below> --copy-timeout 30000`. Every
 * run takes copy-timeout retries; the Tiering runs also take write
 * aborts and cancellations.
 */
TEST(Golden, CopyFaultsSmallStatsJsonIsByteIdentical)
{
    HardenConfig harden;
    harden.faultSpec =
        "seed=7:drop-dram=0.05:delay-dram=0.1@500:stuck-copy=0.01";
    harden.checkInvariants = true;
    harden.copyTimeoutTicks = 30000;
    expectMatchesGolden("copyfaults_small", "rmhb", 3000,
                        {SchemeKind::Nomad, SchemeKind::Tdc,
                         SchemeKind::Banshee, SchemeKind::Tiering},
                        harden);
}

/**
 * The tags-in-DRAM schemes at a budget long enough for their late
 * wakes to matter (at 3000 instructions a missed poke of Alloy's probe
 * callback changed nothing): `nomad-sweep --suite rmhb --scheme
 * tid,alloy,tdram --instr 10000`.
 */
TEST(Golden, TagsInDram10kStatsJsonIsByteIdentical)
{
    expectMatchesGolden("tagsdram_10k", "rmhb", 10000,
                        {SchemeKind::Tid, SchemeKind::Alloy,
                         SchemeKind::Tdram});
}

} // namespace
} // namespace nomad::runner
