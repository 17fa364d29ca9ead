/**
 * @file
 * Scheme-registry tests (docs/SCHEMES.md): the registration contract
 * (idempotence, canonical naming, SchemeKind ordering), the
 * unknown-name error path every CLI shares, the
 * schemeKindFromName()/schemeKindName() round trip, and two
 * parameterized all-registered-schemes runs: a smoke run with
 * invariant checks and the drain audit enabled, and an equivalence
 * run of the event kernel against the reference poll loop.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dramcache/scheme_registry.hh"
#include "harden/diag.hh"
#include "schemes/register_all.hh"
#include "system/system.hh"

namespace nomad
{
namespace
{

/** Every SchemeKind, in enum order: one per SchemeKindNames entry. */
const std::vector<SchemeKind> &
allKinds()
{
    static const std::vector<SchemeKind> kinds = [] {
        std::vector<SchemeKind> out;
        for (std::size_t i = 0; i < std::size(SchemeKindNames); ++i)
            out.push_back(static_cast<SchemeKind>(i));
        return out;
    }();
    return kinds;
}

TEST(SchemeRegistry, EveryKindIsRegistered)
{
    registerAllSchemes();
    const SchemeRegistry &reg = SchemeRegistry::instance();
    EXPECT_EQ(reg.size(), allKinds().size());
    for (SchemeKind k : allKinds()) {
        const SchemeEntry *entry = reg.find(k);
        ASSERT_NE(entry, nullptr) << schemeKindName(k);
        EXPECT_EQ(entry->kind, k);
        ASSERT_NE(entry->factory, nullptr);
    }
}

TEST(SchemeRegistry, RegistrationIsIdempotent)
{
    registerAllSchemes();
    SchemeRegistry &reg = SchemeRegistry::instance();
    const std::size_t before = reg.size();

    // Calling the entry points again must change nothing.
    registerAllSchemes();
    registerNomadScheme(reg);
    EXPECT_EQ(reg.size(), before);

    // add() reports the repeat instead of clobbering the entry.
    const SchemeEntry *nomad = reg.find(SchemeKind::Nomad);
    ASSERT_NE(nomad, nullptr);
    SchemeEntry dup = *nomad;
    dup.validate = nullptr;
    EXPECT_FALSE(reg.add(dup));
    EXPECT_NE(reg.find(SchemeKind::Nomad)->validate, nullptr);
}

TEST(SchemeRegistry, AllIsInSchemeKindOrder)
{
    registerAllSchemes();
    const std::vector<const SchemeEntry *> entries =
        SchemeRegistry::instance().all();
    ASSERT_EQ(entries.size(), allKinds().size());
    for (std::size_t i = 0; i < entries.size(); ++i)
        EXPECT_EQ(entries[i]->kind, allKinds()[i]) << i;
}

TEST(SchemeRegistry, NameLookupIsCaseInsensitive)
{
    registerAllSchemes();
    const SchemeRegistry &reg = SchemeRegistry::instance();
    for (SchemeKind k : allKinds()) {
        std::string lower = schemeKindName(k);
        for (char &c : lower)
            c = static_cast<char>(std::tolower(
                static_cast<unsigned char>(c)));
        const SchemeEntry *entry = reg.findByName(lower);
        ASSERT_NE(entry, nullptr) << lower;
        EXPECT_EQ(entry->kind, k);
        EXPECT_EQ(reg.parseNameOrThrow(lower), k);
    }
}

TEST(SchemeRegistry, UnknownNameThrowsListingRegisteredNames)
{
    registerAllSchemes();
    const SchemeRegistry &reg = SchemeRegistry::instance();
    EXPECT_EQ(reg.findByName("no-such-scheme"), nullptr);
    try {
        reg.parseNameOrThrow("no-such-scheme");
        FAIL() << "expected ConfigError";
    } catch (const harden::SimError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("no-such-scheme"), std::string::npos)
            << msg;
        // The message must name every registered scheme so the user
        // can correct the flag without consulting the docs.
        for (SchemeKind k : allKinds())
            EXPECT_NE(msg.find(schemeKindName(k)), std::string::npos)
                << msg << " missing " << schemeKindName(k);
    }
}

TEST(SchemeRegistry, SchemeKindNameRoundTrips)
{
    for (SchemeKind k : allKinds()) {
        const auto parsed = schemeKindFromName(schemeKindName(k));
        ASSERT_TRUE(parsed.has_value()) << schemeKindName(k);
        EXPECT_EQ(*parsed, k);
    }
    EXPECT_FALSE(schemeKindFromName("").has_value());
    EXPECT_FALSE(schemeKindFromName("NOMAD2").has_value());
}

TEST(SchemeRegistry, UnknownSchemeConfigErrorFromValidate)
{
    // A kind value outside the enum cannot be registered; validate()
    // resolves the scheme through the registry and must reject it
    // with the registered list rather than crash.
    SystemConfig cfg;
    cfg.scheme = static_cast<SchemeKind>(250);
    try {
        cfg.validate();
        FAIL() << "expected ConfigError";
    } catch (const harden::SimError &e) {
        EXPECT_NE(std::string(e.what()).find("not registered"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * Every registered scheme must build through its factory entry and
 * survive a short run with model invariant checks and the drain-time
 * leak audit on. This is the registry-driven twin of test_smoke: the
 * scheme list comes from the table, so a newly registered scheme is
 * covered without editing this file.
 */
class RegisteredSchemeSmoke
    : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(RegisteredSchemeSmoke, RunsHardenedAndDrainsClean)
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
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LE(r.ipc, 4.0);
    EXPECT_GE(r.stallRatio, 0.0);
    EXPECT_LE(r.stallRatio, 1.0);
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
TEST_P(RegisteredSchemeSmoke, EventKernelMatchesPollLoop)
{
    EXPECT_EQ(prStatsJson(GetParam(), false),
              prStatsJson(GetParam(), true));
}

std::vector<SchemeKind>
registeredKinds()
{
    registerAllSchemes();
    std::vector<SchemeKind> kinds;
    for (const SchemeEntry *entry : SchemeRegistry::instance().all())
        kinds.push_back(entry->kind);
    return kinds;
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, RegisteredSchemeSmoke,
    ::testing::ValuesIn(registeredKinds()),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        return std::string(schemeKindName(info.param));
    });

} // namespace
} // namespace nomad
