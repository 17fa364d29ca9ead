/**
 * @file
 * Scheme-table tests (docs/SCHEMES.md): one row per SchemeKind,
 * canonical naming, the case-insensitive
 * schemeKindFromName()/schemeKindName() round trip, validate()'s
 * rejection of a kind outside the enum, each row's validator and
 * on-package sizing, and two parameterized every-scheme runs: a smoke
 * run with invariant checks and the drain audit enabled, and an
 * equivalence run of the event kernel against the reference poll
 * loop.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harden/diag.hh"
#include "system/schemes.hh"
#include "system/system.hh"

namespace nomad
{
namespace
{

TEST(SchemeTable, EveryKindHasARow)
{
    for (SchemeKind k : EverySchemeKind) {
        const SchemeRow *row = schemeRow(k);
        ASSERT_NE(row, nullptr) << static_cast<int>(k);
        EXPECT_NE(row->build, nullptr) << row->name;
        EXPECT_STREQ(schemeKindName(k), row->name);
    }
    EXPECT_EQ(schemeRow(static_cast<SchemeKind>(NumSchemeKinds)),
              nullptr);
    EXPECT_STREQ(
        schemeKindName(static_cast<SchemeKind>(NumSchemeKinds)), "?");
}

TEST(SchemeTable, SchemeKindNameRoundTripsCaseInsensitively)
{
    for (SchemeKind k : EverySchemeKind) {
        std::string lower = schemeKindName(k);
        for (char &c : lower)
            c = static_cast<char>(std::tolower(
                static_cast<unsigned char>(c)));
        for (const std::string &name : {std::string(schemeKindName(k)),
                                        lower}) {
            const auto parsed = schemeKindFromName(name);
            ASSERT_TRUE(parsed.has_value()) << name;
            EXPECT_EQ(*parsed, k);
        }
    }
    EXPECT_FALSE(schemeKindFromName("").has_value());
    EXPECT_FALSE(schemeKindFromName("NOMAD2").has_value());
    EXPECT_FALSE(schemeKindFromName("no-such-scheme").has_value());
}

TEST(SchemeTable, UnknownSchemeConfigErrorFromValidate)
{
    // A kind value outside the enum has no row; validate() must
    // reject it as a config error rather than crash.
    SystemConfig cfg;
    cfg.scheme = static_cast<SchemeKind>(250);
    try {
        cfg.validate();
        FAIL() << "expected ConfigError";
    } catch (const harden::SimError &e) {
        EXPECT_EQ(e.diag().kind, harden::ErrorKind::ConfigError);
        EXPECT_NE(std::string(e.what()).find("unknown scheme kind 250"),
                  std::string::npos)
            << e.what();
    }
}

/** One knob that only its own scheme's validator checks. */
struct BadKnob
{
    SchemeKind scheme;
    const char *knob; ///< Must appear in the rejection message.
    void (*spoil)(SystemConfig &);
};

const BadKnob BadKnobs[] = {
    {SchemeKind::Tid, "tid.mshrs",
     [](SystemConfig &c) { c.tid.mshrs = 0; }},
    {SchemeKind::Nomad, "nomad.numBackEnds",
     [](SystemConfig &c) { c.nomad.numBackEnds = 0; }},
    {SchemeKind::Tiering, "tiering.engine.numSlots",
     [](SystemConfig &c) { c.tiering.engine.numSlots = 0; }},
    {SchemeKind::Alloy, "alloy.mshrs",
     [](SystemConfig &c) { c.alloy.mshrs = 0; }},
    {SchemeKind::Banshee, "banshee.replaceScanLimit",
     [](SystemConfig &c) { c.banshee.replaceScanLimit = 0; }},
    {SchemeKind::Tdram, "tdram.assoc",
     [](SystemConfig &c) { c.tdram.assoc = 0; }},
};

TEST(SchemeTable, EachRowValidatesOnlyItsOwnKnobs)
{
    for (const BadKnob &bad : BadKnobs) {
        SystemConfig cfg;
        cfg.scheme = bad.scheme;
        bad.spoil(cfg);
        try {
            cfg.validate();
            ADD_FAILURE() << bad.knob << " should have been rejected";
        } catch (const harden::SimError &e) {
            EXPECT_EQ(e.diag().kind, harden::ErrorKind::ConfigError)
                << bad.knob;
            EXPECT_NE(std::string(e.what()).find(bad.knob),
                      std::string::npos)
                << e.what();
        }
        cfg.scheme = SchemeKind::Baseline;
        EXPECT_NO_THROW(cfg.validate()) << bad.knob;
    }
}

TEST(SchemeTable, RowsGrowTheOnPackageDeviceToTheirCapacity)
{
    // Each knob asks for twice the DC frames on package; the builder
    // must grow an HBM device that only holds dcFrames pages.
    const auto hbmBytes = [](SchemeKind scheme,
                             void (*size)(SystemConfig &)) {
        SystemConfig cfg;
        cfg.numCores = 1;
        cfg.scheme = scheme;
        cfg.hbm.capacityBytes = cfg.dcFrames * PageBytes;
        size(cfg);
        System system(cfg);
        return system.hbm().timing().capacityBytes;
    };
    const std::uint64_t twice = 2 * SystemConfig{}.dcFrames * PageBytes;
    EXPECT_GE(hbmBytes(SchemeKind::Alloy,
                       [](SystemConfig &c) {
                           c.alloy.capacityBytes =
                               2 * c.dcFrames * PageBytes;
                       }),
              twice);
    EXPECT_GE(hbmBytes(SchemeKind::Tdram,
                       [](SystemConfig &c) {
                           c.tdram.capacityBytes =
                               2 * c.dcFrames * PageBytes;
                       }),
              twice);
    EXPECT_GE(hbmBytes(SchemeKind::Banshee,
                       [](SystemConfig &c) {
                           c.banshee.numFrames = 2 * c.dcFrames;
                       }),
              twice);
    EXPECT_GE(hbmBytes(SchemeKind::Tiering,
                       [](SystemConfig &c) {
                           c.tiering.nearFrames = 2 * c.dcFrames;
                       }),
              twice);
}

/**
 * Every scheme must build from its row and survive a short run with
 * model invariant checks and the drain-time leak audit on. The scheme
 * list comes from the table, so a newly added scheme is covered
 * without editing this file.
 */
class EverySchemeSmoke : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(EverySchemeSmoke, RunsHardenedAndDrainsClean)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.scheme = GetParam();
    cfg.workload = "libq";
    cfg.instructionsPerCore = 15'000;
    cfg.warmupInstructionsPerCore = 15'000;
    cfg.dcFrames = 2048;
    cfg.harden.checkInvariants = true; // + drain audit on destroy.

    System system(cfg);
    const SystemResults r = system.run();
    EXPECT_GT(r.elapsedCycles, 0);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LE(r.ipc, 4.0); // Bounded by the issue width.
    EXPECT_GE(r.stallRatio, 0.0);
    EXPECT_LE(r.stallRatio, 1.0);
    for (std::uint32_t c = 0; c < system.numCores(); ++c) {
        EXPECT_GE(system.core(c).retiredTotal(),
                  cfg.warmupInstructionsPerCore +
                      cfg.instructionsPerCore);
    }
}

/** Stats JSON of a `pr` run of @p scheme on the chosen kernel. */
std::string
prStatsJson(SchemeKind scheme, bool legacy_kernel)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.scheme = scheme;
    cfg.workload = "pr";
    cfg.instructionsPerCore = 10'000;
    cfg.warmupInstructionsPerCore = 10'000;
    cfg.legacyKernel = legacy_kernel;

    System system(cfg);
    system.run();
    std::ostringstream out;
    system.writeStatsJson(out);
    return out.str();
}

/**
 * The event kernel must reproduce the poll loop's output exactly. At
 * 10k instructions per core every scheme meets full DRAM queues, so a
 * delayed callback that mutates a component without poking it (and
 * is therefore slept through by the event kernel) shows up as a
 * stats difference.
 */
TEST_P(EverySchemeSmoke, EventKernelMatchesPollLoop)
{
    EXPECT_EQ(prStatsJson(GetParam(), false),
              prStatsJson(GetParam(), true));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EverySchemeSmoke, ::testing::ValuesIn(EverySchemeKind),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        return std::string(schemeKindName(info.param));
    });

} // namespace
} // namespace nomad
