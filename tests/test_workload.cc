/**
 * @file
 * Tests for the synthetic workload generators: profile completeness,
 * statistical properties of the generated streams (memory ratio,
 * store ratio, footprint, spatial locality, burstiness) and
 * determinism.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/workload.hh"

namespace nomad
{
namespace
{

TEST(Profiles, AllFifteenPresentInPaperOrder)
{
    const auto &all = allProfiles();
    ASSERT_EQ(all.size(), 15u);
    const char *expected[] = {"cact", "sssp", "bwav", "les", "libq",
                              "gems", "bfs",  "cc",   "lbm", "mcf",
                              "bc",   "ast",  "pr",   "sop", "tc"};
    for (std::size_t i = 0; i < 15; ++i)
        EXPECT_EQ(all[i].name, expected[i]);
    EXPECT_EQ(profilesInClass(WorkloadClass::Excess).size(), 3u);
    EXPECT_EQ(profilesInClass(WorkloadClass::Tight).size(), 4u);
    EXPECT_EQ(profilesInClass(WorkloadClass::Loose).size(), 4u);
    EXPECT_EQ(profilesInClass(WorkloadClass::Few).size(), 4u);
}

TEST(Profiles, InvariantsHold)
{
    for (const auto &p : allProfiles()) {
        EXPECT_LT(p.hotPages, p.footprintPages) << p.name;
        EXPECT_GE(p.blocksPerVisit, 1u) << p.name;
        EXPECT_LE(p.blocksPerVisit, SubBlocksPerPage) << p.name;
        EXPECT_GT(p.paperRmhbGBs, 0.0) << p.name;
        EXPECT_GT(p.paperLlcMpms, 0.0) << p.name;
    }
}

TEST(Profiles, LookupByName)
{
    EXPECT_EQ(profileByName("cact").klass, WorkloadClass::Excess);
    EXPECT_EQ(profileByName("tc").klass, WorkloadClass::Few);
}

TEST(Generator, Deterministic)
{
    const auto &p = profileByName("mcf");
    SyntheticGenerator a(p, 0, 99), b(p, 0, 99);
    for (int i = 0; i < 5000; ++i) {
        const InstrRecord ra = a.next();
        const InstrRecord rb = b.next();
        ASSERT_EQ(ra.isMem, rb.isMem);
        ASSERT_EQ(ra.vaddr, rb.vaddr);
        ASSERT_EQ(ra.isWrite, rb.isWrite);
    }
}

class GeneratorStats : public ::testing::TestWithParam<const char *>
{
};

TEST_P(GeneratorStats, RatiosAndFootprintMatchProfile)
{
    const auto &p = profileByName(GetParam());
    SyntheticGenerator gen(p, 1ULL << 40, 7);
    const int n = 400'000;
    int mem = 0, stores = 0;
    std::set<PageNum> pages;
    for (int i = 0; i < n; ++i) {
        const InstrRecord r = gen.next();
        if (!r.isMem)
            continue;
        ++mem;
        stores += r.isWrite;
        pages.insert(pageOf(r.vaddr));
        ASSERT_GE(r.vaddr, 1ULL << 40);
        // The VA window base is 1<<40, i.e., VPN base 1<<28.
        ASSERT_LT(pageOf(r.vaddr) - (1ULL << 28), p.footprintPages)
            << "address outside the VA window";
    }
    const double mem_ratio = static_cast<double>(mem) / n;
    double expected_mem = p.memRatio;
    if (p.burstLength > 0) {
        expected_mem =
            (p.burstLength * p.burstMemRatio +
             p.computeLength * p.computeMemRatio) /
            (p.burstLength + p.computeLength);
    }
    EXPECT_NEAR(mem_ratio, expected_mem, 0.03) << p.name;
    EXPECT_NEAR(static_cast<double>(stores) / mem, p.storeRatio, 0.05)
        << p.name;
    EXPECT_LE(pages.size(), p.footprintPages) << p.name;
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, GeneratorStats,
                         ::testing::Values("cact", "sssp", "bwav",
                                           "les", "libq", "gems",
                                           "bfs", "cc", "lbm", "mcf",
                                           "bc", "ast", "pr", "sop",
                                           "tc"));

TEST(Generator, SequentialProfileWalksBlocksInOrder)
{
    WorkloadProfile p;
    p.name = "seq";
    p.memRatio = 1.0;
    p.storeRatio = 0.0;
    p.footprintPages = 64;
    p.hotPages = 1;
    p.streamFraction = 1.0;
    p.blocksPerVisit = 64;
    p.sequentialBlocks = true;
    p.rereferenceProb = 0.0;
    SyntheticGenerator gen(p, 0, 5);
    PageNum page = InvalidPage;
    std::uint32_t prev_block = 0;
    for (int i = 0; i < 256; ++i) {
        const InstrRecord r = gen.next();
        ASSERT_TRUE(r.isMem);
        if (pageOf(r.vaddr) != page) {
            page = pageOf(r.vaddr);
            prev_block = subBlockOf(r.vaddr);
            EXPECT_EQ(prev_block, 0u);
            continue;
        }
        EXPECT_EQ(subBlockOf(r.vaddr), prev_block + 1);
        prev_block = subBlockOf(r.vaddr);
    }
}

TEST(Generator, NonSequentialVisitTouchesDistinctBlocks)
{
    WorkloadProfile p;
    p.name = "scatter";
    p.memRatio = 1.0;
    p.footprintPages = 1024;
    p.hotPages = 4;
    p.streamFraction = 1.0;
    p.blocksPerVisit = 16;
    p.sequentialBlocks = false;
    p.rereferenceProb = 0.0;
    SyntheticGenerator gen(p, 0, 11);
    std::map<PageNum, std::set<std::uint32_t>> blocks;
    for (int i = 0; i < 16 * 20; ++i) {
        const InstrRecord r = gen.next();
        blocks[pageOf(r.vaddr)].insert(subBlockOf(r.vaddr));
    }
    for (const auto &[page, set] : blocks) {
        if (set.size() < 16)
            continue; // Partially observed first/last page.
        EXPECT_EQ(set.size(), 16u) << "page " << page;
    }
}

TEST(Generator, BurstyProfileAlternatesIntensity)
{
    WorkloadProfile p;
    p.name = "bursty";
    p.footprintPages = 4096;
    p.hotPages = 8;
    p.streamFraction = 1.0;
    p.blocksPerVisit = 64;
    p.rereferenceProb = 0.0;
    p.burstLength = 1000;
    p.computeLength = 1000;
    p.burstMemRatio = 0.9;
    p.computeMemRatio = 0.05;
    SyntheticGenerator gen(p, 0, 3);
    // Phase alignment: the generator starts in a burst phase.
    int burst_mem = 0, compute_mem = 0;
    for (int rep = 0; rep < 10; ++rep) {
        for (int i = 0; i < 1000; ++i)
            burst_mem += gen.next().isMem;
        for (int i = 0; i < 1000; ++i)
            compute_mem += gen.next().isMem;
    }
    EXPECT_GT(burst_mem, 8000);
    EXPECT_LT(compute_mem, 1500);
}

TEST(Generator, HotSetConcentration)
{
    WorkloadProfile p;
    p.name = "hot";
    p.memRatio = 1.0;
    p.footprintPages = 10000;
    p.hotPages = 64;
    p.streamFraction = 0.01;
    p.blocksPerVisit = 4;
    p.sequentialBlocks = false;
    p.rereferenceProb = 0.0;
    SyntheticGenerator gen(p, 0, 13);
    int hot = 0, total = 0;
    for (int i = 0; i < 50000; ++i) {
        const InstrRecord r = gen.next();
        if (!r.isMem)
            continue;
        ++total;
        hot += pageOf(r.vaddr) < 64;
    }
    EXPECT_GT(static_cast<double>(hot) / total, 0.95);
}

TEST(Generator, RevisitsDrawFromTheRecentStreamWindow)
{
    WorkloadProfile p;
    p.name = "revisit";
    p.memRatio = 1.0;
    p.footprintPages = 100000;
    p.hotPages = 2;
    p.streamFraction = 0.5;
    p.revisitFraction = 0.4;
    p.revisitWindow = 64;
    p.revisitMinLag = 16;
    p.blocksPerVisit = 4;
    p.rereferenceProb = 0.0;
    SyntheticGenerator gen(p, 0, 23);
    // Track the order in which stream pages first appear; every
    // repeated page must have first appeared within the last
    // revisitWindow distinct stream pages.
    std::vector<PageNum> order;
    std::map<PageNum, std::size_t> first_pos;
    int revisits = 0;
    for (int i = 0; i < 40000; ++i) {
        const InstrRecord r = gen.next();
        const PageNum page = pageOf(r.vaddr);
        if (page < p.hotPages)
            continue;
        auto it = first_pos.find(page);
        if (it == first_pos.end()) {
            first_pos[page] = order.size();
            order.push_back(page);
        } else if (order.size() - it->second >
                   static_cast<std::size_t>(1)) {
            ++revisits;
            EXPECT_LE(order.size() - it->second,
                      p.revisitWindow + 1)
                << "revisit outside the recent window";
        }
    }
    EXPECT_GT(revisits, 100) << "revisits must actually happen";
}

TEST(Generator, ConcurrentStreamsInterleavePages)
{
    WorkloadProfile p;
    p.name = "interleave";
    p.memRatio = 1.0;
    p.footprintPages = 4096;
    p.hotPages = 1;
    p.streamFraction = 1.0;
    p.blocksPerVisit = 64;
    p.sequentialBlocks = true;
    p.rereferenceProb = 0.0;
    p.concurrentStreams = 4;
    SyntheticGenerator gen(p, 0, 31);
    // With 4 round-robin streams, a window of 8 consecutive memory
    // accesses must touch 4 distinct pages.
    for (int rep = 0; rep < 50; ++rep) {
        std::set<PageNum> pages;
        for (int i = 0; i < 8; ++i)
            pages.insert(pageOf(gen.next().vaddr));
        EXPECT_EQ(pages.size(), 4u);
    }
}

} // namespace
} // namespace nomad
