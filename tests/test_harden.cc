/**
 * @file
 * Tests for the hardening layer (docs/HARDENING.md): the fault-spec
 * grammar and injector determinism, structured diagnostics and their
 * JSON export, fault-injection recovery in the back-end (stuck-copy
 * retry, dropped-response refetch, exhaustion-burst degradation),
 * config validation, the forward-progress watchdog, snapshot-carrying
 * cooperative timeouts, diagnosed failures in the sweep report, and a
 * randomized validate-or-run-clean configuration smoke test.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "dram/device.hh"
#include "dramcache/nomad_backend.hh"
#include "harden/check.hh"
#include "harden/diag.hh"
#include "harden/fault.hh"
#include "runner/sweep.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "system/system.hh"
#include "workload/workload.hh"

namespace nomad
{
namespace
{

// Fault-spec grammar --------------------------------------------------

TEST(FaultSpec, ParsesAllClauses)
{
    const harden::FaultSpec s = harden::FaultSpec::parse(
        "seed=7:drop-dram=0.25:delay-dram=0.5@1500:stuck-copy=0.125:"
        "pcshr-burst=2000@10000:no-retry");
    EXPECT_EQ(s.seed, 7u);
    EXPECT_DOUBLE_EQ(s.dropDram, 0.25);
    EXPECT_DOUBLE_EQ(s.delayDram, 0.5);
    EXPECT_EQ(s.delayDramTicks, 1500u);
    EXPECT_DOUBLE_EQ(s.stuckCopy, 0.125);
    EXPECT_EQ(s.burstLength, 2000u);
    EXPECT_EQ(s.burstPeriod, 10000u);
    EXPECT_TRUE(s.noRetry);
    EXPECT_TRUE(s.any());
}

TEST(FaultSpec, EmptyIsInert)
{
    const harden::FaultSpec s = harden::FaultSpec::parse("");
    EXPECT_FALSE(s.any());
    EXPECT_FALSE(s.noRetry);
}

TEST(FaultSpec, RejectsMalformedInput)
{
    const char *bad[] = {
        "bogus=1",           // Unknown clause.
        "drop-dram",         // Missing value.
        "drop-dram=nope",    // Non-numeric probability.
        "drop-dram=1.5",     // Probability out of range.
        "pcshr-burst=100",   // Missing @period.
        "pcshr-burst=5@0",   // Zero period.
        "seed=",             // Empty value.
    };
    for (const char *text : bad) {
        try {
            harden::FaultSpec::parse(text);
            FAIL() << "spec '" << text << "' should have been rejected";
        } catch (const harden::SimError &e) {
            EXPECT_EQ(e.diag().kind, harden::ErrorKind::ConfigError)
                << text;
            EXPECT_FALSE(e.diag().message.empty()) << text;
        }
    }
}

TEST(FaultSpec, ParseErrorsNameTokenAndPosition)
{
    // "drop-dram=0.5:" is 14 bytes, "delay-dram=" 11 more: the bad
    // probability token starts at byte 25.
    try {
        harden::FaultSpec::parse("drop-dram=0.5:delay-dram=bogus@12");
        FAIL() << "malformed spec accepted";
    } catch (const harden::SimError &e) {
        const harden::Diagnostic &d = e.diag();
        EXPECT_EQ(d.kind, harden::ErrorKind::ConfigError);
        EXPECT_EQ(d.component, "fault-spec");
        EXPECT_NE(d.message.find("token 'bogus'"), std::string::npos)
            << d.message;
        EXPECT_NE(d.message.find("at offset 25"), std::string::npos)
            << d.message;
        EXPECT_NE(d.message.find("clause 2 'delay-dram=bogus@12'"),
                  std::string::npos)
            << d.message;
        // The same coordinates ride machine-readably in the snapshot.
        bool found = false;
        for (const harden::SnapshotSection &sec :
             d.snapshot.sections()) {
            if (sec.name != "parse")
                continue;
            found = true;
            for (const harden::SnapshotItem &item : sec.items) {
                if (item.key == "token") {
                    EXPECT_EQ(item.text, "bogus");
                } else if (item.key == "offset") {
                    EXPECT_DOUBLE_EQ(item.number, 25);
                } else if (item.key == "clauseIndex") {
                    EXPECT_DOUBLE_EQ(item.number, 1);
                }
            }
        }
        EXPECT_TRUE(found) << "no 'parse' snapshot section";
    }

    // Trailing junk points at the junk, not the whole value.
    try {
        harden::FaultSpec::parse("drop-dram=0.5x");
        FAIL() << "trailing junk accepted";
    } catch (const harden::SimError &e) {
        EXPECT_NE(e.diag().message.find("token 'x' at offset 13"),
                  std::string::npos)
            << e.diag().message;
    }

    // Unknown clause keys name the key at the clause's own offset.
    try {
        harden::FaultSpec::parse("seed=1:zap=2");
        FAIL() << "unknown key accepted";
    } catch (const harden::SimError &e) {
        EXPECT_NE(e.diag().message.find("token 'zap' at offset 7"),
                  std::string::npos)
            << e.diag().message;
        EXPECT_NE(e.diag().message.find("unknown fault kind"),
                  std::string::npos)
            << e.diag().message;
    }
}

TEST(FaultSpec, DescribeRoundTrips)
{
    const harden::FaultSpec s = harden::FaultSpec::parse(
        "seed=3:drop-dram=0.1:pcshr-burst=50@500");
    const harden::FaultSpec r = harden::FaultSpec::parse(s.describe());
    EXPECT_EQ(r.seed, s.seed);
    EXPECT_DOUBLE_EQ(r.dropDram, s.dropDram);
    EXPECT_EQ(r.burstLength, s.burstLength);
    EXPECT_EQ(r.burstPeriod, s.burstPeriod);
}

// Injector determinism ------------------------------------------------

TEST(FaultInjector, DeterministicInSeedPair)
{
    const harden::FaultSpec spec =
        harden::FaultSpec::parse("seed=11:drop-dram=0.3:delay-dram=0.2");
    harden::FaultInjector a(spec, 99), b(spec, 99), c(spec, 100);
    bool diverged = false;
    for (int i = 0; i < 256; ++i) {
        Tick ea = 0, eb = 0, ec = 0;
        const auto ra = a.onDramResponse(ea);
        const auto rb = b.onDramResponse(eb);
        const auto rc = c.onDramResponse(ec);
        EXPECT_EQ(ra, rb) << "draw " << i;
        EXPECT_EQ(ea, eb) << "draw " << i;
        diverged = diverged || ra != rc;
    }
    EXPECT_TRUE(diverged)
        << "different run seeds should yield different fault patterns";
}

TEST(FaultInjector, BurstWindowIsPureFunctionOfTime)
{
    const harden::FaultSpec spec =
        harden::FaultSpec::parse("pcshr-burst=100@1000");
    harden::FaultInjector inj(spec, 1);
    EXPECT_TRUE(inj.allocationBlocked(0));
    EXPECT_TRUE(inj.allocationBlocked(99));
    EXPECT_FALSE(inj.allocationBlocked(100));
    EXPECT_FALSE(inj.allocationBlocked(999));
    EXPECT_TRUE(inj.allocationBlocked(1000));
    EXPECT_TRUE(inj.allocationBlocked(2050));
}

// Diagnostics ---------------------------------------------------------

TEST(Diagnostics, ErrorKindNamesStable)
{
    EXPECT_STREQ(harden::errorKindName(harden::ErrorKind::ConfigError),
                 "config-error");
    EXPECT_STREQ(
        harden::errorKindName(harden::ErrorKind::InvariantViolation),
        "invariant-violation");
    EXPECT_STREQ(harden::errorKindName(harden::ErrorKind::Stall),
                 "stall");
    EXPECT_STREQ(harden::errorKindName(harden::ErrorKind::Timeout),
                 "timeout");
}

TEST(Diagnostics, SnapshotAndDiagnosticEmitValidJson)
{
    harden::Snapshot snap;
    snap.set("sim", "tick", 1234.0);
    snap.set("sim", "note", std::string("a \"quoted\"\nline"));
    snap.set("cpu0", "stall", std::string("mem-data"));
    std::string err;
    EXPECT_TRUE(json::validate(snap.toJson(), &err)) << err;

    harden::Diagnostic d;
    d.kind = harden::ErrorKind::Stall;
    d.component = "system";
    d.tick = 777;
    d.message = "no forward progress";
    d.snapshot = snap;
    EXPECT_TRUE(json::validate(d.toJson(), &err)) << err;

    // An empty snapshot degrades to null, still valid JSON.
    harden::Diagnostic bare;
    bare.message = "plain";
    EXPECT_TRUE(json::validate(bare.toJson(), &err)) << err;
}

TEST(Diagnostics, SimErrorSummaryNamesKindComponentAndTick)
{
    const harden::SimError e(harden::Diagnostic{
        harden::ErrorKind::Stall, "system", 42, "wedged", {}});
    const std::string what = e.what();
    EXPECT_NE(what.find("stall"), std::string::npos);
    EXPECT_NE(what.find("system"), std::string::npos);
    EXPECT_NE(what.find("42"), std::string::npos);
    EXPECT_NE(what.find("wedged"), std::string::npos);
}

// Back-end fault recovery ---------------------------------------------

class BackEndFaultTest : public ::testing::Test
{
  protected:
    NomadBackEnd &
    make(const std::string &spec_text, NomadBackEndParams p = {})
    {
        spec = harden::FaultSpec::parse(spec_text);
        injector = std::make_unique<harden::FaultInjector>(spec, 42);
        ctx.checkInvariants = true;
        ctx.injector = injector.get();
        sim.setHarden(&ctx);
        hbm = std::make_unique<DramDevice>(sim, "hbm",
                                           DramTiming::hbm2());
        ddr = std::make_unique<DramDevice>(sim, "ddr",
                                           DramTiming::ddr4_3200());
        be = std::make_unique<NomadBackEnd>(sim, "be", p, *hbm, *ddr);
        return *be;
    }

    template <typename Pred>
    bool
    runUntil(Pred pred, Tick bound = 4'000'000)
    {
        const Tick start = sim.now();
        while (!pred() && sim.now() - start < bound)
            sim.run(256);
        return pred();
    }

    harden::FaultSpec spec;
    std::unique_ptr<harden::FaultInjector> injector;
    harden::Context ctx;
    Simulation sim;
    std::unique_ptr<DramDevice> hbm;
    std::unique_ptr<DramDevice> ddr;
    std::unique_ptr<NomadBackEnd> be;
};

TEST_F(BackEndFaultTest, StuckCopyReclaimedAndRetried)
{
    NomadBackEndParams p;
    p.copyTimeoutTicks = 10'000;
    auto &backend = make("seed=5:stuck-copy=1", p);
    int done = 0;
    for (PageNum cfn = 0; cfn < 3; ++cfn) {
        backend.sendCacheFill(cfn, 100 + cfn, 0, nullptr,
                              [&](Tick) { ++done; });
    }
    ASSERT_TRUE(runUntil([&]() { return done == 3; }))
        << "stuck copies must be reclaimed by the timeout";
    EXPECT_EQ(injector->stuckCopies, 3u);
    EXPECT_GE(backend.copyRetries.value(), 3.0);
    ASSERT_TRUE(runUntil([&]() { return backend.idle(); }));
    EXPECT_NO_THROW(backend.checkDrained());
}

TEST_F(BackEndFaultTest, DroppedResponsesRefetched)
{
    NomadBackEndParams p;
    p.copyTimeoutTicks = 20'000;
    auto &backend = make("seed=9:drop-dram=0.3", p);
    const int total = 6;
    int done = 0;
    for (PageNum cfn = 0; cfn < total; ++cfn) {
        backend.sendCacheFill(cfn, 300 + cfn, 0, nullptr,
                              [&](Tick) { ++done; });
    }
    ASSERT_TRUE(runUntil([&]() { return done == total; }))
        << "lost responses must be recovered by abort-and-refetch";
    EXPECT_GT(injector->dropped, 0u);
    EXPECT_GE(backend.copyRetries.value(), 1.0);
    ASSERT_TRUE(runUntil([&]() { return backend.idle(); }));
    EXPECT_NO_THROW(backend.checkDrained());
}

TEST_F(BackEndFaultTest, DelayedResponsesStillComplete)
{
    auto &backend = make("seed=2:delay-dram=0.5@2000");
    int done = 0;
    backend.sendCacheFill(1, 50, 0, nullptr, [&](Tick) { ++done; });
    ASSERT_TRUE(runUntil([&]() { return done == 1; }));
    EXPECT_GT(injector->delayed, 0u);
    ASSERT_TRUE(runUntil([&]() { return backend.idle(); }));
    EXPECT_NO_THROW(backend.checkDrained());
}

TEST_F(BackEndFaultTest, ExhaustionBurstDegradesToBlocking)
{
    // Allocation is blocked for the first 3000 ticks of every 100k
    // window, so commands sent at tick 0 park behind the interface
    // (the paper's graceful degradation to blocking behaviour) and
    // resume when the window passes.
    auto &backend = make("pcshr-burst=3000@100000");
    int accepts = 0;
    Tick first_accept = 0;
    int done = 0;
    for (PageNum cfn = 0; cfn < 2; ++cfn) {
        backend.sendCacheFill(
            cfn, 700 + cfn, 0,
            [&](Tick t) {
                ++accepts;
                if (!first_accept)
                    first_accept = t;
            },
            [&](Tick) { ++done; });
    }
    EXPECT_EQ(accepts, 0) << "burst window must park the commands";
    EXPECT_TRUE(backend.interfaceBusy());
    EXPECT_EQ(injector->blockedCommands, 2u);
    ASSERT_TRUE(runUntil([&]() { return done == 2; }));
    EXPECT_EQ(accepts, 2);
    EXPECT_GE(first_accept, 3000u)
        << "no allocation inside the burst window";
    ASSERT_TRUE(runUntil([&]() { return backend.idle(); }));
    EXPECT_NO_THROW(backend.checkDrained());
}

// System-level hardening ----------------------------------------------

SystemConfig
hardenedConfig(SchemeKind scheme = SchemeKind::Nomad)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.scheme = scheme;
    cfg.workload = "mcf";
    cfg.instructionsPerCore = 20'000;
    cfg.warmupInstructionsPerCore = 20'000;
    cfg.dcFrames = 2048;
    cfg.harden.checkInvariants = true;
    return cfg;
}

TEST(SystemHarden, ValidateRejectsBadConfigs)
{
    const auto expectRejected = [](SystemConfig cfg, const char *why,
                                   const char *field = "") {
        try {
            cfg.validate();
            FAIL() << "config should have been rejected: " << why;
        } catch (const harden::SimError &e) {
            EXPECT_EQ(e.diag().kind, harden::ErrorKind::ConfigError)
                << why;
            EXPECT_FALSE(e.diag().message.empty()) << why;
            EXPECT_NE(e.diag().message.find(field), std::string::npos)
                << why << ": " << e.diag().message;
        }
    };
    SystemConfig ok = hardenedConfig();
    EXPECT_NO_THROW(ok.validate());

    SystemConfig cfg = hardenedConfig();
    cfg.numCores = 0;
    expectRejected(cfg, "zero cores");
    cfg.numCores = 65;
    expectRejected(cfg, "more cores than a TLB directory has bits",
                   "numCores");
    cfg.numCores = 64;
    EXPECT_NO_THROW(cfg.validate());

    cfg = hardenedConfig();
    cfg.workload = "no-such-workload";
    expectRejected(cfg, "unknown workload");

    cfg = hardenedConfig();
    cfg.nomad.backEnd.numBuffers = cfg.nomad.backEnd.numPcshrs + 1;
    expectRejected(cfg, "more buffers than PCSHRs");

    cfg = hardenedConfig();
    cfg.harden.faultSpec = "drop-dram=banana";
    expectRejected(cfg, "malformed fault spec");
}

TEST(SystemHarden, FaultInjectedRunCompletesCleanly)
{
    SystemConfig cfg = hardenedConfig();
    cfg.harden.faultSpec =
        "seed=3:drop-dram=0.05:delay-dram=0.1@500:stuck-copy=0.01";
    System system(cfg);
    ASSERT_NE(system.injector(), nullptr);
    const SystemResults r = system.run();
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(system.injector()->dropped + system.injector()->delayed,
              0u)
        << "the spec should have injected at least one fault";
    std::ostringstream ss;
    system.writeStatsJson(ss);
    std::string err;
    EXPECT_TRUE(json::validate(ss.str(), &err)) << err;
}

TEST(SystemHarden, WatchdogDiagnosesWedgedRun)
{
    // Every source-read response is dropped and retry is disabled:
    // the first page copy wedges forever. The watchdog must turn the
    // hang into a typed, snapshot-carrying error.
    SystemConfig cfg = hardenedConfig();
    cfg.harden.faultSpec = "drop-dram=1:no-retry";
    cfg.harden.watchdogTicks = 200'000;
    System system(cfg);
    try {
        system.run();
        FAIL() << "a wedged run must not complete";
    } catch (const harden::SimError &e) {
        EXPECT_EQ(e.diag().kind, harden::ErrorKind::Stall);
        EXPECT_EQ(e.diag().component, "system");
        EXPECT_FALSE(e.diag().snapshot.empty())
            << "a stall diagnostic must carry the model snapshot";
        std::string err;
        EXPECT_TRUE(json::validate(e.diag().toJson(), &err)) << err;
    }
}

TEST(SystemHarden, AbortCheckCarriesSnapshot)
{
    SystemConfig cfg = hardenedConfig();
    System system(cfg);
    system.setAbortCheck([] { return true; });
    try {
        system.run();
        FAIL() << "the abort check should have fired";
    } catch (const SimAborted &e) {
        EXPECT_EQ(e.diag().kind, harden::ErrorKind::Timeout);
        EXPECT_FALSE(e.diag().snapshot.empty());
    }
}

// Runner integration --------------------------------------------------

TEST(SweepHarden, DiagnosedFailureInMergedStats)
{
    runner::Sweep sweep;
    runner::SimJob good;
    good.label = "good";
    good.config = hardenedConfig();
    sweep.add(std::move(good));

    runner::SimJob wedged;
    wedged.label = "wedged";
    wedged.config = hardenedConfig();
    wedged.config.harden.faultSpec = "drop-dram=1:no-retry";
    wedged.config.harden.watchdogTicks = 200'000;
    sweep.add(std::move(wedged));

    runner::SweepOptions opts;
    opts.jobs = 2;
    opts.wantStatsJson = true;
    const std::vector<runner::SweepRunResult> results =
        sweep.run(opts);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_EQ(results[1].report.status, runner::JobStatus::Failed);
    ASSERT_FALSE(results[1].report.diagJson.empty());
    std::string err;
    EXPECT_TRUE(json::validate(results[1].report.diagJson, &err))
        << err;
    EXPECT_NE(results[1].report.error.find("stall"),
              std::string::npos);

    std::ostringstream ss;
    runner::Sweep::writeMergedStats(ss, results);
    const std::string merged = ss.str();
    EXPECT_TRUE(json::validate(merged, &err)) << err;
    EXPECT_NE(merged.find("\"failures\""), std::string::npos);
    EXPECT_NE(merged.find("\"wedged\""), std::string::npos);
}

TEST(SweepHarden, CleanSweepHasNoFailuresArray)
{
    runner::Sweep sweep;
    runner::SimJob job;
    job.label = "clean";
    job.config = hardenedConfig();
    sweep.add(std::move(job));
    runner::SweepOptions opts;
    opts.wantStatsJson = true;
    const auto results = sweep.run(opts);
    std::ostringstream ss;
    runner::Sweep::writeMergedStats(ss, results);
    EXPECT_EQ(ss.str().find("\"failures\""), std::string::npos)
        << "a clean sweep must keep the historic schema";
}

// Randomized configuration smoke --------------------------------------

/**
 * Property: any generated configuration is either rejected by
 * validate() with a typed config error, or builds and runs to
 * completion under --check-invariants. Nothing may crash, hang, or
 * trip an invariant.
 */
TEST(RandomizedConfigs, ValidateOrRunClean)
{
    Rng rng(20260806);
    const std::vector<WorkloadProfile> &profiles = allProfiles();
    const SchemeKind schemes[] = {
        SchemeKind::Baseline, SchemeKind::Tid, SchemeKind::Tdc,
        SchemeKind::Nomad, SchemeKind::Ideal};
    const char *specs[] = {
        "", "seed=4:drop-dram=0.1", "delay-dram=0.2@300",
        "stuck-copy=0.05", "pcshr-burst=500@20000",
        "drop-dram=oops", // Always rejected.
    };

    int rejected = 0, ran = 0;
    const int total = 200;
    // Running every valid draw would dominate test time; a bounded
    // subset still exercises construction + run for each scheme.
    const int run_budget = 25;
    for (int i = 0; i < total; ++i) {
        SystemConfig cfg;
        cfg.numCores =
            static_cast<std::uint32_t>(rng.nextRange(4)); // 0 invalid.
        cfg.scheme = schemes[rng.nextRange(5)];
        cfg.workload =
            rng.chance(0.1)
                ? "no-such-workload"
                : profiles[rng.nextRange(profiles.size())].name;
        cfg.instructionsPerCore = 1'000 + rng.nextRange(2'000);
        cfg.warmupInstructionsPerCore = cfg.instructionsPerCore;
        cfg.dcFrames = 512ULL << rng.nextRange(3);
        cfg.nomad.backEnd.numPcshrs =
            static_cast<std::uint32_t>(rng.nextRange(9)); // 0 invalid.
        cfg.nomad.backEnd.numBuffers =
            static_cast<std::uint32_t>(1 + rng.nextRange(10));
        cfg.harden.checkInvariants = true;
        cfg.harden.faultSpec = specs[rng.nextRange(6)];
        if (!cfg.harden.faultSpec.empty())
            cfg.harden.copyTimeoutTicks = 30'000;

        try {
            cfg.validate();
        } catch (const harden::SimError &e) {
            EXPECT_EQ(e.diag().kind, harden::ErrorKind::ConfigError)
                << "config " << i;
            ++rejected;
            continue;
        }
        if (ran >= run_budget)
            continue;
        ++ran;
        System system(cfg);
        const SystemResults r = system.run();
        EXPECT_GT(r.elapsedCycles, 0u) << "config " << i;
    }
    EXPECT_GT(rejected, 0) << "the generator should hit invalid space";
    EXPECT_EQ(ran, run_budget)
        << "the generator should hit enough valid space";
}

} // namespace
} // namespace nomad
