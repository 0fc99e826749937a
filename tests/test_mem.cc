/**
 * @file
 * Unit tests for SparseMemory and the cache timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "mem/cache.hh"
#include "mem/sparse_memory.hh"
#include "sim/rng.hh"

namespace {

using namespace vca;
using namespace vca::mem;

TEST(SparseMemory, ZeroFillAndRoundTrip)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0x1234560), 0u);
    m.write(0x1234560, 0xdeadbeef);
    EXPECT_EQ(m.read(0x1234560), 0xdeadbeefu);
    EXPECT_EQ(m.read(0x1234568), 0u);
}

TEST(SparseMemory, DoubleRoundTrip)
{
    SparseMemory m;
    m.writeDouble(0x1000, 3.25);
    EXPECT_DOUBLE_EQ(m.readDouble(0x1000), 3.25);
}

TEST(SparseMemory, PagesAllocatedLazily)
{
    SparseMemory m;
    EXPECT_EQ(m.allocatedPages(), 0u);
    (void)m.read(0x9999);
    EXPECT_EQ(m.allocatedPages(), 0u); // reads do not allocate
    m.write(0x9999, 1);
    EXPECT_EQ(m.allocatedPages(), 1u);
    m.write(0x9999 + SparseMemory::pageBytes, 1);
    EXPECT_EQ(m.allocatedPages(), 2u);
}

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest()
        : root_("root"),
          l2_({"l2", 64 * 1024, 4, 64, 15, 32}, nullptr, 250, &root_),
          l1_({"l1", 4 * 1024, 2, 64, 3, 4}, &l2_, 250, &root_)
    {
    }

    stats::StatGroup root_;
    Cache l2_;
    Cache l1_;
};

TEST_F(CacheTest, MissThenHit)
{
    auto r1 = l1_.access(0x1000, false, 0);
    EXPECT_FALSE(r1.hit);
    EXPECT_GE(r1.latency, 3u + 15u); // L1 lat + L2 (miss there too, +250)

    auto r2 = l1_.access(0x1008, false, r1.latency);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.latency, 3u);
    EXPECT_DOUBLE_EQ(l1_.accesses.value(), 2.0);
    EXPECT_DOUBLE_EQ(l1_.misses.value(), 1.0);
    EXPECT_DOUBLE_EQ(l1_.hits.value(), 1.0);
}

TEST_F(CacheTest, L2HitIsCheaperThanMemory)
{
    // Warm L2 with the line, then evict it from L1 and re-access.
    l1_.access(0x1000, false, 0);
    // L1 is 4K 2-way, 64B lines -> 32 sets; two more lines mapping to
    // set 0 evict the first.
    l1_.access(0x1000 + 4096, false, 400);
    l1_.access(0x1000 + 8192, false, 800);
    auto r = l1_.access(0x1000, false, 1200);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.latency, 3u + 15u); // L2 hit this time
}

TEST_F(CacheTest, LruReplacement)
{
    // Fill both ways of set 0, touch the first, then insert a third:
    // the second (LRU) must be evicted.
    l1_.access(0x0000, false, 0);
    l1_.access(0x1000, false, 10);
    l1_.access(0x0000, false, 500);  // refresh line A (after fills done)
    l1_.access(0x2000, false, 600);  // evicts B
    auto ra = l1_.access(0x0000, false, 1200);
    EXPECT_TRUE(ra.hit);
    auto rb = l1_.access(0x1000, false, 1300);
    EXPECT_FALSE(rb.hit);
}

TEST_F(CacheTest, WritebackOnDirtyEviction)
{
    l1_.access(0x0000, true, 0);     // dirty line A in set 0
    l1_.access(0x1000, false, 400);
    l1_.access(0x2000, false, 800);  // evicts A -> writeback
    EXPECT_GE(l1_.writebacks.value(), 1.0);
}

TEST_F(CacheTest, InflightMergeCostsResidualLatency)
{
    auto r1 = l1_.access(0x3000, false, 0);
    ASSERT_FALSE(r1.hit);
    // Second access to the same line a few cycles later: residual only.
    auto r2 = l1_.access(0x3008, false, 5);
    EXPECT_LT(r2.latency, r1.latency);
    EXPECT_GE(r2.latency, 3u);
}

TEST_F(CacheTest, MshrExhaustionRejects)
{
    // L1 has 4 MSHRs; issue 5 distinct-line misses at the same cycle.
    unsigned rejects = 0;
    for (unsigned i = 0; i < 5; ++i) {
        auto r = l1_.access(0x10000 + i * 4096, false, 0);
        if (!r.accepted)
            ++rejects;
    }
    EXPECT_EQ(rejects, 1u);
    EXPECT_DOUBLE_EQ(l1_.mshrRejects.value(), 1.0);
    // After the misses complete, accesses are accepted again.
    auto r = l1_.access(0x90000, false, 10'000);
    EXPECT_TRUE(r.accepted);
}

TEST_F(CacheTest, InvalidateAllForgetsEverything)
{
    l1_.access(0x1000, false, 0);
    l1_.invalidateAll();
    auto r = l1_.access(0x1000, false, 5000);
    EXPECT_FALSE(r.hit);
}

// The MRU fast path answers a repeat of the last accepted access's line
// without a tag check. Each case below moves or clears the remembered
// line; a re-access that the tag check would miss must still miss, and
// the counters must match a full tag check's.
class MruTest : public ::testing::Test
{
  protected:
    // A direct-mapped 4 KiB L1 (64 sets, so lines 4 KiB apart share a
    // set) with 4 MSHRs, in front of an L2.
    MruTest()
        : root_("root"),
          l2_({"l2", 64 * 1024, 4, 64, 15, 32}, nullptr, 250, &root_),
          l1_({"l1", 4 * 1024, 1, 64, 3, 4}, &l2_, 250, &root_)
    {
    }

    void
    expectCounts(double accesses, double hits, double misses)
    {
        EXPECT_DOUBLE_EQ(l1_.accesses.value(), accesses);
        EXPECT_DOUBLE_EQ(l1_.hits.value(), hits);
        EXPECT_DOUBLE_EQ(l1_.misses.value(), misses);
    }

    stats::StatGroup root_;
    Cache l2_;
    Cache l1_;
};

TEST_F(MruTest, RepeatedLineHits)
{
    EXPECT_FALSE(l1_.access(0x1000, false, 0).hit);
    const AccessResult r = l1_.access(0x1038, true, 1);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 3u);
    EXPECT_TRUE(l1_.access(0x1000, false, 2).hit);
    expectCounts(3, 2, 1);
    // The fast path's write marked the line dirty: evicting it writes
    // it back.
    l1_.access(0x2000, false, 1000);
    EXPECT_DOUBLE_EQ(l1_.writebacks.value(), 1.0);
}

TEST_F(MruTest, DrainForgetsTheLineAndInflightFillsKeepsTags)
{
    // A drain is the hand-off between the warm clock and a core's
    // cycles: time may restart below every fill's completion, so the
    // in-flight fills and the remembered line go; tags stay.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_FALSE(l1_.access(0x10000 + i * 64, false, 100).hit);
    const Addr fifth = 0x10000 + 4 * 64;
    EXPECT_FALSE(l1_.access(fifth, false, 100).accepted); // MSHRs full
    l1_.drain();
    l2_.drain();
    // Nothing is in flight at cycle 0, so the fifth line is accepted.
    const AccessResult r = l1_.access(fifth, false, 0);
    EXPECT_TRUE(r.accepted);
    EXPECT_FALSE(r.hit);
    // The first four lines kept their tags: each is a plain hit.
    for (unsigned i = 0; i < 4; ++i) {
        const AccessResult h = l1_.access(0x10000 + i * 64, false, 1);
        EXPECT_TRUE(h.hit);
        EXPECT_EQ(h.latency, 3u);
    }
    expectCounts(9, 4, 5);
    EXPECT_DOUBLE_EQ(l1_.mshrRejects.value(), 1.0);
}

TEST_F(MruTest, DrainedLineStillHitsAfterTimeRestarts)
{
    // The remembered line is forgotten, but its tag is not: the first
    // re-access after a drain takes the tag check and hits.
    l1_.access(0x1000, true, 5000);
    EXPECT_TRUE(l1_.access(0x1000, false, 5001).hit);
    l1_.drain();
    EXPECT_TRUE(l1_.access(0x1000, false, 0).hit);
    EXPECT_TRUE(l1_.access(0x1008, false, 1).hit);
    expectCounts(4, 3, 1);
    // The line stayed dirty across the drain.
    l1_.access(0x2000, false, 1000);
    EXPECT_DOUBLE_EQ(l1_.writebacks.value(), 1.0);
}

TEST_F(MruTest, InvalidateAllForgetsTheLine)
{
    l1_.access(0x1000, false, 0);
    EXPECT_TRUE(l1_.access(0x1000, false, 1000).hit);
    l1_.invalidateAll();
    EXPECT_FALSE(l1_.access(0x1000, false, 2000).hit);
    expectCounts(3, 1, 2);
}

TEST_F(MruTest, EvictionByAMissInTheSameSetMovesTheLine)
{
    // 0x1000 and 0x2000 share the only way of set 0x1000 / 64 % 64.
    l1_.access(0x1000, false, 0);
    EXPECT_TRUE(l1_.access(0x1000, false, 1000).hit);
    EXPECT_FALSE(l1_.access(0x2000, false, 2000).hit); // evicts 0x1000
    EXPECT_FALSE(l1_.access(0x1000, false, 3000).hit);
    EXPECT_FALSE(l1_.access(0x2000, false, 4000).hit);
    expectCounts(5, 1, 4);
}

TEST_F(MruTest, MshrRejectClearsTheLine)
{
    // Four distinct-line misses fill the 4 MSHRs; the fifth line is
    // rejected, and stays rejected, not a hit, while they are in
    // flight.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_FALSE(l1_.access(0x10000 + i * 64, false, 0).hit);
    const Addr rejected = 0x10000 + 4 * 64;
    EXPECT_FALSE(l1_.access(rejected, false, 0).accepted);
    EXPECT_FALSE(l1_.access(rejected, false, 1).accepted);
    EXPECT_DOUBLE_EQ(l1_.mshrRejects.value(), 2.0);
    expectCounts(4, 0, 4);
    // Once the fills retire it misses like any other cold line.
    const AccessResult r = l1_.access(rejected, false, 10'000);
    EXPECT_TRUE(r.accepted);
    EXPECT_FALSE(r.hit);
    expectCounts(5, 0, 5);
}

TEST_F(MruTest, MergeClearsTheLine)
{
    // 0x1000's fill is still in flight when 0x2000 evicts its tag, so
    // the re-accesses merge into that fill: misses, never hits.
    const AccessResult r1 = l1_.access(0x1000, false, 0);
    l1_.access(0x2000, false, 1);
    const AccessResult m1 = l1_.access(0x1000, false, 2);
    const AccessResult m2 = l1_.access(0x1008, false, 3);
    EXPECT_FALSE(m1.hit);
    EXPECT_FALSE(m2.hit);
    EXPECT_EQ(m1.latency, r1.latency - 2);
    EXPECT_EQ(m2.latency, r1.latency - 3);
    expectCounts(4, 0, 4);
}

TEST(Cache, TagValidFractionMatchesARecount)
{
    // A set's valid lines only grow, up to the associativity, until
    // invalidateAll: so the recount is, per set, the smaller of the
    // associativity and the distinct lines accepted since then.
    stats::StatGroup root("root");
    const CacheParams params{"c", 2 * 1024, 2, 64, 3, 4};
    Cache c(params, nullptr, 250, &root);
    const size_t lines = params.sizeBytes / params.lineBytes;
    const size_t sets = lines / params.assoc;
    std::vector<std::set<Addr>> seen(sets);
    const auto recount = [&] {
        size_t valid = 0;
        for (const auto &set : seen)
            valid += std::min<size_t>(set.size(), params.assoc);
        return double(valid) / double(lines);
    };

    Rng rng(11);
    Cycle now = 0;
    for (unsigned i = 0; i < 20'000; ++i) {
        if (rng.chance(0.001)) {
            c.invalidateAll();
            for (auto &set : seen)
                set.clear();
        } else {
            const Addr line = rng.below(96);
            const AccessResult r =
                c.access(line * params.lineBytes + rng.below(8) * 8,
                         rng.chance(0.3), now);
            if (r.accepted)
                seen[line % sets].insert(line);
            now += rng.below(40);
        }
        ASSERT_EQ(c.tagValidFraction(), recount()) << "step " << i;
    }
    EXPECT_GT(c.mshrRejects.value(), 0.0);
}

/** Every page of @p m as (base, words), in address order. */
std::map<Addr, std::vector<std::uint64_t>>
pagesOf(const SparseMemory &m)
{
    std::map<Addr, std::vector<std::uint64_t>> pages;
    m.forEachPage([&](Addr base, const std::uint64_t *words) {
        pages[base].assign(words, words + SparseMemory::wordsPerPage);
    });
    return pages;
}

TEST(SparseMemory, AssignPagesMatchesClearThenWritePage)
{
    constexpr Addr page = SparseMemory::pageBytes;
    constexpr Addr shift = 64 * page;
    const auto relocate = [](Addr base) {
        return base >= 32 * page ? base + shift : base;
    };
    SparseMemory src;
    for (Addr p : {1, 2, 40, 41})
        src.write(p * page + 8 * p, 100 + p);
    SparseMemory want; // what clear() then writePage of each page gives
    src.forEachPage([&](Addr base, const std::uint64_t *words) {
        want.writePage(relocate(base), words);
    });

    for (unsigned extra : {0u, 1u, 2u}) {
        SparseMemory dst;
        // Pages src also holds (after relocation), with words src's
        // pages overwrite with zeros, plus `extra` pages it lacks.
        dst.write(2 * page + 24, 7);
        dst.write(40 * page + shift + 32, 9);
        if (extra > 0)
            dst.write(77 * page, 13);
        if (extra > 1)
            dst.write(5 * page, 11);
        // Prime the page-pointer cache on every page.
        EXPECT_EQ(dst.read(2 * page + 24), 7u);
        EXPECT_EQ(dst.read(77 * page), extra > 0 ? 13u : 0u);
        EXPECT_EQ(dst.read(5 * page), extra > 1 ? 11u : 0u);

        dst.assignPages(src, relocate);
        EXPECT_EQ(pagesOf(dst), pagesOf(want)) << "extra " << extra;
        // Reads agree too: no cached pointer outlives its page.
        EXPECT_EQ(dst.read(77 * page), 0u);
        EXPECT_EQ(dst.read(5 * page), 0u);
        EXPECT_EQ(dst.read(2 * page + 24), 0u);
        EXPECT_EQ(dst.read(2 * page + 16), 102u);
        EXPECT_EQ(dst.read(41 * page + shift + 8 * 41), 141u);
    }
}

TEST(MemSystem, ThreadTagSeparatesSpaces)
{
    const Addr a = MemSystem::threadTag(0, 0x1000);
    const Addr b = MemSystem::threadTag(1, 0x1000);
    EXPECT_NE(a, b);

    MemSystemParams params;
    params.dl1.sizeBytes = 4096;
    params.dl1.assoc = 1;
    MemSystem ms(params);
    ms.dataAccess(a, false, 0);
    auto r = ms.dataAccess(b, false, 1000);
    EXPECT_FALSE(r.hit) << "thread 1 must not hit thread 0's line";
}

TEST(MemSystem, Table1Defaults)
{
    // The defaults must match paper Table 1.
    MemSystemParams p;
    EXPECT_EQ(p.dl1.sizeBytes, 64u * 1024);
    EXPECT_EQ(p.dl1.assoc, 4u);
    EXPECT_EQ(p.dl1.hitLatency, 3u);
    EXPECT_EQ(p.il1.sizeBytes, 64u * 1024);
    EXPECT_EQ(p.il1.hitLatency, 1u);
    EXPECT_EQ(p.l2.sizeBytes, 1024u * 1024);
    EXPECT_EQ(p.l2.hitLatency, 15u);
    EXPECT_EQ(p.memLatency, 250u);
}

} // namespace
