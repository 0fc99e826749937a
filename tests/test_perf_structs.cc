/**
 * @file
 * Property tests for the hot-path data structures behind the detailed
 * core: the calendar event queue (vs. the std::map it replaced), the
 * fixed-capacity ring buffer (vs. std::deque), and SparseMemory's
 * direct-mapped page-pointer cache (vs. an uncached reference model).
 * These structures carry the bit-identity guarantee of the hot-path
 * rewrite, so each is driven with adversarial traffic — overflow
 * buckets, never-popped past events, wraparound, aliased cache slots,
 * clear() generations — against a trivially correct reference. The
 * queue's nextDue(), which idle-cycle skipping jumps to, is checked
 * against a std::multimap.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "mem/sparse_memory.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/ring_buffer.hh"
#include "sim/rng.hh"

namespace {

using namespace vca;

// ---------------------------------------------------------------------
// CalendarQueue vs. the std::map scheme it replaced
// ---------------------------------------------------------------------

/** The exact structure CalendarQueue displaced, kept as the oracle. */
struct MapQueueRef
{
    std::map<Cycle, std::vector<int>> events;
    size_t size = 0;

    void
    schedule(Cycle when, int v)
    {
        events[when].push_back(v);
        ++size;
    }

    void
    popAt(Cycle when, std::vector<int> &out)
    {
        auto it = events.find(when);
        if (it == events.end())
            return;
        for (int v : it->second)
            out.push_back(v);
        size -= it->second.size();
        events.erase(it);
    }
};

TEST(CalendarQueue, MatchesMapReferenceOnRandomTraffic)
{
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        Rng rng(seed * 131 + 17);
        CalendarQueue<int> q(16); // small horizon: exercise overflow
        MapQueueRef ref;
        Cycle now = 0;
        int next = 0;
        std::vector<int> got, want;
        for (int step = 0; step < 3000; ++step) {
            const auto n = rng.range(0, 3);
            for (std::int64_t i = 0; i < n; ++i) {
                Cycle when;
                if (now > 8 && rng.chance(0.05)) {
                    // In the past relative to the last pop: the map
                    // kept these forever unless their exact cycle came
                    // up again; the calendar queue must agree.
                    when = now - static_cast<Cycle>(rng.range(1, 8));
                } else {
                    // Mostly within the 16-cycle horizon, with a tail
                    // far beyond it (the overflow bucket).
                    when = now + static_cast<Cycle>(rng.range(0, 64));
                }
                q.schedule(when, next);
                ref.schedule(when, next);
                ++next;
            }
            // Advance by 0..5 cycles; skipped cycles' events linger.
            now += static_cast<Cycle>(rng.range(0, 5));
            got.clear();
            want.clear();
            q.popAt(now, got);
            ref.popAt(now, want);
            ASSERT_EQ(got, want)
                << "seed " << seed << " step " << step << " now " << now;
            ASSERT_EQ(q.size(), ref.size);
            ASSERT_EQ(q.empty(), ref.size == 0);
        }
    }
}

TEST(CalendarQueue, MergesOverflowAndRingInScheduleOrder)
{
    CalendarQueue<int> q(16);
    const Cycle target = 40; // beyond the horizon while base is 0
    q.schedule(target, 1);
    q.schedule(target, 2);
    EXPECT_EQ(q.overflowSize(), 2u);

    std::vector<int> out;
    q.popAt(30, out); // advance base: target is now inside the ring
    EXPECT_TRUE(out.empty());
    q.schedule(target, 3);
    q.schedule(target, 4);
    EXPECT_EQ(q.size(), 4u);

    // Ring and overflow entries for the same cycle come back in one
    // globally seq-ordered list, exactly like the map's push order.
    q.popAt(target, out);
    EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.overflowSize(), 0u);
}

TEST(CalendarQueue, PastEventsStayQueuedUntilTheirExactCycle)
{
    CalendarQueue<int> q(16);
    std::vector<int> out;
    q.popAt(100, out);
    q.schedule(90, 7); // already in the past
    q.schedule(100, 8);
    q.popAt(100, out);
    EXPECT_EQ(out, std::vector<int>{8});
    EXPECT_EQ(q.size(), 1u) << "the past event must stay queued";

    // A stale entry sharing a ring slot with a later cycle must not
    // leak into that cycle's pop.
    q.schedule(104, 9);
    q.schedule(104 + q.horizon(), 10); // same slot, different cycle
    out.clear();
    q.popAt(104, out);
    EXPECT_EQ(out, std::vector<int>{9});
    out.clear();
    q.popAt(104 + q.horizon(), out);
    EXPECT_EQ(out, std::vector<int>{10});
}

TEST(CalendarQueue, ResetDropsEverythingAndRoundsHorizon)
{
    CalendarQueue<int> q(100); // rounds to 128
    EXPECT_EQ(q.horizon(), 128u);
    q.schedule(5, 1);
    q.schedule(500, 2);
    EXPECT_EQ(q.size(), 2u);
    q.reset(4);
    EXPECT_EQ(q.horizon(), 4u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.overflowSize(), 0u);
    std::vector<int> out;
    q.popAt(5, out);
    EXPECT_TRUE(out.empty());
}

/** Reference for nextDue(): the first multimap key after `after`. */
Cycle
refNextDue(const std::multimap<Cycle, int> &ref, Cycle after)
{
    const auto it = ref.upper_bound(after);
    return it == ref.end() ? neverCycle : it->first;
}

TEST(CalendarQueue, NextDueMatchesMultimapReference)
{
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        Rng rng(seed * 977 + 3);
        CalendarQueue<int> q(16); // small horizon: exercise overflow
        std::multimap<Cycle, int> ref;
        Cycle now = 0;
        int next = 0;
        std::vector<int> got, want;
        ASSERT_EQ(q.nextDue(0), neverCycle) << "empty queue";
        for (int step = 0; step < 3000; ++step) {
            const auto n = rng.range(0, 3);
            for (std::int64_t i = 0; i < n; ++i) {
                Cycle when;
                if (now > 8 && rng.chance(0.05)) {
                    // Stale: in the past, parked in a ring slot or the
                    // overflow map, never due again.
                    when = now - static_cast<Cycle>(rng.range(1, 8));
                } else if (rng.chance(0.1)) {
                    when = now + static_cast<Cycle>(rng.range(17, 400));
                } else {
                    when = now + static_cast<Cycle>(rng.range(0, 20));
                }
                q.schedule(when, next);
                ref.emplace(when, next);
                ++next;
            }
            // Ask from the last popped cycle and from a little ahead.
            const Cycle ahead = now + static_cast<Cycle>(rng.range(0, 40));
            ASSERT_EQ(q.nextDue(now), refNextDue(ref, now))
                << "seed " << seed << " step " << step << " now " << now;
            ASSERT_EQ(q.nextDue(ahead), refNextDue(ref, ahead))
                << "seed " << seed << " step " << step << " after "
                << ahead;

            // Advance the way the detailed core does: usually a few
            // cycles (skipping some events), sometimes straight to the
            // next due cycle as an idle-cycle skip would.
            const Cycle due = q.nextDue(now);
            if (due != neverCycle && rng.chance(0.3))
                now = due;
            else
                now += static_cast<Cycle>(rng.range(0, 5));
            got.clear();
            want.clear();
            q.popAt(now, got);
            const auto [lo, hi] = ref.equal_range(now);
            for (auto it = lo; it != hi; ++it)
                want.push_back(it->second);
            ref.erase(lo, hi);
            ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
            ASSERT_EQ(q.size(), ref.size());
        }
    }
}

TEST(CalendarQueue, NextDueIgnoresStaleEntriesSharingASlot)
{
    CalendarQueue<int> q(16);
    std::vector<int> out;
    EXPECT_EQ(q.nextDue(0), neverCycle);
    q.schedule(5, 1);
    q.popAt(10, out); // cycle 5 is skipped: its entry goes stale
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextDue(10), neverCycle)
        << "a stale entry is never due again";

    q.schedule(5 + q.horizon(), 2); // same ring slot as the stale entry
    EXPECT_EQ(q.nextDue(10), 5 + q.horizon());
    q.schedule(200, 3); // beyond the horizon: the overflow map
    EXPECT_EQ(q.overflowSize(), 1u);
    EXPECT_EQ(q.nextDue(5 + q.horizon()), 200u);
    q.popAt(5 + q.horizon(), out);
    EXPECT_EQ(out, std::vector<int>{2});
    EXPECT_EQ(q.nextDue(5 + q.horizon()), 200u);
    out.clear();
    q.popAt(200, out);
    EXPECT_EQ(out, std::vector<int>{3});
    EXPECT_EQ(q.nextDue(200), neverCycle);
}

// ---------------------------------------------------------------------
// RingBuffer vs. std::deque
// ---------------------------------------------------------------------

TEST(RingBuffer, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(RingBuffer<int>(1).capacity(), 1u);
    EXPECT_EQ(RingBuffer<int>(2).capacity(), 2u);
    EXPECT_EQ(RingBuffer<int>(5).capacity(), 8u);
    EXPECT_EQ(RingBuffer<int>(64).capacity(), 64u);
    EXPECT_EQ(RingBuffer<int>(65).capacity(), 128u);
}

TEST(RingBuffer, MatchesDequeReferenceAcrossWraparound)
{
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        Rng rng(seed * 997 + 3);
        RingBuffer<int> rb(8);
        std::deque<int> ref;
        int next = 0;
        // Enough operations that head_/tail_ wrap the 8-slot store
        // hundreds of times.
        for (int step = 0; step < 20000; ++step) {
            switch (rng.range(0, 2)) {
              case 0:
                if (!rb.full()) {
                    rb.push_back(next);
                    ref.push_back(next);
                    ++next;
                }
                break;
              case 1:
                if (!rb.empty()) {
                    rb.pop_front();
                    ref.pop_front();
                }
                break;
              case 2:
                if (!rb.empty()) {
                    rb.pop_back();
                    ref.pop_back();
                }
                break;
            }
            if (rng.chance(0.002)) {
                rb.clear();
                ref.clear();
            }
            ASSERT_EQ(rb.size(), ref.size());
            ASSERT_EQ(rb.empty(), ref.empty());
            ASSERT_EQ(rb.full(), ref.size() == rb.capacity());
            if (!ref.empty()) {
                ASSERT_EQ(rb.front(), ref.front());
                ASSERT_EQ(rb.back(), ref.back());
            }
            for (size_t i = 0; i < ref.size(); ++i)
                ASSERT_EQ(rb[i], ref[i]) << "index " << i;
            size_t i = 0;
            for (int v : rb)
                ASSERT_EQ(v, ref[i++]);
            ASSERT_EQ(i, ref.size());
        }
    }
}

TEST(RingBuffer, PanicsOnOverflowAndUnderflow)
{
    setQuiet(true);
    RingBuffer<int> rb(2);
    rb.push_back(1);
    rb.push_back(2);
    EXPECT_TRUE(rb.full());
    EXPECT_THROW(rb.push_back(3), PanicError);
    EXPECT_EQ(rb.size(), 2u) << "failed push must not corrupt state";
    EXPECT_EQ(rb.front(), 1);
    EXPECT_EQ(rb.back(), 2);

    RingBuffer<int> empty(2);
    EXPECT_THROW(empty.pop_front(), PanicError);
    EXPECT_THROW(empty.pop_back(), PanicError);
}

// ---------------------------------------------------------------------
// SparseMemory's direct-mapped page-pointer cache
// ---------------------------------------------------------------------

TEST(SparseMemory, PageCacheMatchesUncachedReference)
{
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        Rng rng(seed + 101);
        mem::SparseMemory m;
        std::unordered_map<Addr, std::uint64_t> ref;
        for (int step = 0; step < 40000; ++step) {
            // Pages 0..63 fold 4-way onto the 16 direct-mapped slots,
            // so conflict evictions are constant; a 5% tail of far
            // pages aliases across a wide address range too.
            Addr page = static_cast<Addr>(rng.range(0, 63));
            if (rng.chance(0.05))
                page += Addr(1) << 20;
            const Addr addr = (page << mem::SparseMemory::pageShift) |
                (static_cast<Addr>(rng.range(0, 511)) << 3);
            if (rng.chance(0.5)) {
                const std::uint64_t v = rng.next();
                m.write(addr, v);
                ref[addr] = v;
            } else {
                const auto it = ref.find(addr);
                ASSERT_EQ(m.read(addr),
                          it == ref.end() ? 0u : it->second)
                    << "seed " << seed << " addr " << std::hex << addr;
            }
            if (rng.chance(0.0005)) {
                m.clear();
                ref.clear();
            }
        }
    }
}

TEST(SparseMemory, ClearInvalidatesCachedPagePointers)
{
    mem::SparseMemory m;
    m.write(0x1000, 42);
    EXPECT_EQ(m.read(0x1000), 42u); // now cached
    m.clear();
    // A stale cache slot surviving clear() would hand back 42 from a
    // freed page; the generation bump must force the miss path.
    EXPECT_EQ(m.read(0x1000), 0u);
    EXPECT_EQ(m.allocatedPages(), 0u)
        << "reads must not allocate pages";
    m.write(0x1000, 7);
    EXPECT_EQ(m.read(0x1000), 7u);
    EXPECT_EQ(m.allocatedPages(), 1u);
}

TEST(SparseMemory, ReadWordsMatchesReadAndCreatesNoPage)
{
    // Bulk reads (the functional engine's frame loads) cross page
    // boundaries, including into an absent page, and see exactly what
    // word-by-word read() sees.
    mem::SparseMemory m;
    Rng rng(7);
    constexpr Addr pageBytes = mem::SparseMemory::pageBytes;
    for (Addr page : {Addr(0), Addr(1), Addr(3)})
        for (unsigned i = 0; i < mem::SparseMemory::wordsPerPage; ++i)
            m.write(page * pageBytes + i * 8, rng.next());
    const size_t pages = m.allocatedPages();
    std::vector<std::uint64_t> out(600);
    for (int trial = 0; trial < 500; ++trial) {
        const Addr addr = static_cast<Addr>(rng.range(0, 4 * 512 - 1)) * 8;
        const auto n = static_cast<unsigned>(rng.range(0, 600));
        m.readWords(addr, n, out.data());
        for (unsigned i = 0; i < n; ++i)
            ASSERT_EQ(out[i], m.read(addr + i * 8))
                << "addr " << std::hex << addr << " word " << std::dec << i;
    }
    EXPECT_EQ(m.allocatedPages(), pages);
}

/** Same pages, and the same words in each, in @p a and @p b. */
void
expectSameImage(const mem::SparseMemory &a, const mem::SparseMemory &b)
{
    ASSERT_EQ(a.allocatedPages(), b.allocatedPages());
    unsigned mismatches = 0;
    a.forEachPage([&](Addr base, const std::uint64_t *words) {
        std::vector<std::uint64_t> other(mem::SparseMemory::wordsPerPage);
        b.readWords(base, mem::SparseMemory::wordsPerPage, other.data());
        for (unsigned i = 0; i < mem::SparseMemory::wordsPerPage; ++i)
            if (other[i] != words[i])
                ++mismatches;
    });
    EXPECT_EQ(mismatches, 0u);
}

TEST(SparseMemory, WritePageMatchesWordWrites)
{
    // Switch-in copies pages whole: one writePage must equal 512
    // write()s, zeros included, over an absent page, an all-zero source
    // page and a pre-populated page whose stale words must not survive.
    constexpr Addr pageBytes = mem::SparseMemory::pageBytes;
    constexpr unsigned wordsPerPage = mem::SparseMemory::wordsPerPage;
    Rng rng(11);
    mem::SparseMemory paged, worded;
    for (mem::SparseMemory *m : {&paged, &worded}) {
        for (unsigned i = 0; i < wordsPerPage; ++i)
            m->write(5 * pageBytes + i * 8, 0xdead0000 + i);
        m->write(9 * pageBytes, 1);
    }
    std::vector<std::uint64_t> words(wordsPerPage);
    for (Addr page : {Addr(2), Addr(5), Addr(7)}) {
        for (std::uint64_t &w : words)
            w = page == 7 || rng.below(3) == 0 ? 0 : rng.next();
        const Addr base = page * pageBytes;
        paged.read(base); // cache the page pointer where it exists
        paged.writePage(base, words.data());
        for (unsigned i = 0; i < wordsPerPage; ++i)
            worded.write(base + i * 8, words[i]);
        EXPECT_EQ(paged.read(base + 8), words[1]) << "page " << page;
    }
    EXPECT_EQ(paged.allocatedPages(), 4u);
    expectSameImage(paged, worded);
}

TEST(SparseMemory, WriteNonzeroWordsMatchesNonzeroWordWrites)
{
    // Random spans, unaligned to pages and often all zero across whole
    // pages, over a partly pre-populated image: the same image and page
    // set as write() of each nonzero word.
    constexpr Addr pageBytes = mem::SparseMemory::pageBytes;
    Rng rng(13);
    for (int trial = 0; trial < 200; ++trial) {
        mem::SparseMemory chunked, worded;
        for (mem::SparseMemory *m : {&chunked, &worded})
            for (Addr page : {Addr(1), Addr(4)})
                for (unsigned i = 0; i < 64; ++i)
                    m->write(page * pageBytes + i * 64, 0x7000 + i);
        const Addr addr = static_cast<Addr>(rng.range(0, 5 * 512)) * 8;
        std::vector<std::uint64_t> words(rng.range(0, 1500), 0);
        // All zero, sparse (1 in 1024: whole zero pages) or dense.
        const std::uint64_t kind = rng.below(3);
        for (std::uint64_t &w : words) {
            const bool nonzero = kind == 1 ? rng.below(1024) == 0
                                           : kind == 2 && rng.below(4);
            if (nonzero)
                w = rng.next() | 1;
        }
        chunked.writeNonzeroWords(addr, words.data(), words.size());
        for (size_t i = 0; i < words.size(); ++i)
            if (words[i])
                worded.write(addr + i * 8, words[i]);
        SCOPED_TRACE(trial);
        expectSameImage(chunked, worded);
    }
}

TEST(SparseMemory, ConflictingPagesShareACacheSlot)
{
    mem::SparseMemory m;
    // Pages 0 and 16 map to the same direct-mapped slot (16 slots).
    const Addr a = 0x0;
    const Addr b = Addr(16) << mem::SparseMemory::pageShift;
    m.write(a, 1);
    m.write(b, 2); // evicts a's slot
    EXPECT_EQ(m.read(a), 1u);
    EXPECT_EQ(m.read(b), 2u);
    m.write(a, 3); // evicts b again
    EXPECT_EQ(m.read(b), 2u);
    EXPECT_EQ(m.read(a), 3u);
    EXPECT_EQ(m.allocatedPages(), 2u);
}

} // namespace
