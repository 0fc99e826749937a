/**
 * @file
 * Property-style tests.
 *
 *  - Random-profile co-simulation: freshly generated workloads (random
 *    structural parameters per seed) must commit exactly the golden
 *    model's instruction stream on the VCA machine.
 *  - Cross-architecture agreement: the same binary running on every
 *    architecture commits the same (pc, value) stream.
 *  - Configuration stress: extreme VCA geometries keep all internal
 *    invariants (validated after every run).
 *  - Sweep-runner infrastructure: random thread-pool submission and
 *    cancellation interleavings always drain without deadlock, and the
 *    Measurement JSON round-trip used by the on-disk result cache is
 *    lossless for arbitrary field values.
 *  - Idle-cycle skipping is transparent: random profiles on every
 *    renamer, 1/2/4 threads, detailed and sampled, dump the same
 *    statistics with skipping on and off, and VCA renamers end in the
 *    same register, rename-table and LRU state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/runner.hh"
#include "analysis/sampling.hh"
#include "core/vca_renamer.hh"
#include "cpu/ooo_cpu.hh"
#include "func/func_sim.hh"
#include "sim/rng.hh"
#include "sim/thread_pool.hh"
#include "stats/host_stats.hh"
#include "telemetry/reg_cache_analyzer.hh"
#include "trace/debug_flags.hh"
#include "trace/stats_json.hh"
#include "wload/asm_builder.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

namespace {

using namespace vca;
using namespace vca::cpu;

wload::BenchProfile
randomProfile(std::uint64_t seed)
{
    Rng rng(seed * 77 + 5);
    wload::BenchProfile p;
    p.name = "prop_" + std::to_string(seed);
    p.numFuncs = static_cast<unsigned>(rng.range(6, 40));
    p.callFanout = static_cast<unsigned>(rng.range(1, 3));
    p.callSpan = static_cast<unsigned>(rng.range(2, 6));
    p.bodyOps = static_cast<unsigned>(rng.range(16, 200));
    p.avgLocals = static_cast<unsigned>(rng.range(4, 12));
    p.leafFrac = 0.2 + rng.uniform() * 0.4;
    p.loopTripMean = static_cast<unsigned>(rng.range(2, 20));
    p.randomBranchFrac = rng.uniform() * 0.4;
    p.footprintBytes = 4096u << rng.range(0, 10);
    p.memOpFrac = 0.1 + rng.uniform() * 0.3;
    p.pointerChaseFrac = rng.chance(0.3) ? rng.uniform() * 0.4 : 0.0;
    p.fpFrac = rng.chance(0.4) ? rng.uniform() * 0.6 : 0.0;
    p.targetDynInsts = 400'000;
    p.seed = seed * 1000 + 7;
    return p;
}

/** Run prog on the architecture and co-simulate against FuncSim. */
void
checkCosim(const isa::Program &prog, RenamerKind kind, unsigned physRegs,
           InstCount maxInsts)
{
    CpuParams params = CpuParams::preset(kind, physRegs);
    OooCpu cpu(params, {&prog});
    mem::SparseMemory refMem;
    func::FuncSim ref(prog, refMem);

    bool mismatch = false;
    InstCount checked = 0;
    cpu.addCommitListener([&](const DynInst &inst) {
        if (mismatch)
            return;
        func::StepRecord rec;
        ref.step(rec);
        ++checked;
        if (rec.pc != inst.pc ||
            (inst.si->hasDest && !inst.si->isCall &&
             rec.destValue != inst.result)) {
            ADD_FAILURE() << prog.name << ": divergence at commit "
                          << checked << " (pc " << inst.pc << " vs ref "
                          << rec.pc << ")";
            mismatch = true;
        }
    });
    cpu.run(maxInsts, maxInsts * 60 + 200'000);
    EXPECT_FALSE(mismatch);
    EXPECT_GT(checked, maxInsts / 4);
    cpu.renamer().validate();
}

class RandomProfileCosim : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomProfileCosim, VcaMatchesGoldenModel)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    const wload::BenchProfile prof = randomProfile(seed);
    const isa::Program prog = wload::generateProgram(prof, true);
    // Register count varies with the seed: exercises plentiful and
    // starved regimes.
    const unsigned physRegs = 72 + 32 * (seed % 5);
    checkCosim(prog, RenamerKind::Vca, physRegs, 25'000);
}

TEST_P(RandomProfileCosim, ConvWindowMatchesGoldenModel)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    const wload::BenchProfile prof = randomProfile(seed);
    const isa::Program prog = wload::generateProgram(prof, true);
    const unsigned physRegs = 160 + 32 * (seed % 3);
    checkCosim(prog, RenamerKind::ConvWindow, physRegs, 25'000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProfileCosim,
                         ::testing::Range(1, 9));

TEST(CrossArch, AllArchitecturesCommitTheSameStream)
{
    // Hash the first N committed (pc, result) pairs per architecture;
    // the windowed machines share a stream, the baseline has its own
    // binary (different ABI), so compare within ABI groups.
    const auto &prof = wload::profileByName("gap");
    const InstCount n = 30'000;

    auto streamHash = [&](RenamerKind kind, unsigned physRegs) {
        const isa::Program *prog = wload::cachedProgram(
            prof, kind != RenamerKind::Baseline);
        CpuParams params = CpuParams::preset(kind, physRegs);
        OooCpu cpu(params, {prog});
        std::uint64_t h = 1469598103934665603ULL;
        InstCount count = 0;
        cpu.addCommitListener([&](const DynInst &inst) {
            if (count >= n)
                return;
            ++count;
            h ^= inst.pc;
            h *= 1099511628211ULL;
            if (inst.si->hasDest) {
                h ^= inst.result;
                h *= 1099511628211ULL;
            }
        });
        cpu.run(n, n * 60 + 100'000);
        EXPECT_GE(count, n) << renamerKindName(kind);
        return h;
    };

    const std::uint64_t ideal = streamHash(RenamerKind::IdealWindow, 128);
    const std::uint64_t conv = streamHash(RenamerKind::ConvWindow, 256);
    const std::uint64_t vcaBig = streamHash(RenamerKind::Vca, 256);
    const std::uint64_t vcaTiny = streamHash(RenamerKind::Vca, 72);
    EXPECT_EQ(ideal, conv);
    EXPECT_EQ(ideal, vcaBig);
    EXPECT_EQ(ideal, vcaTiny)
        << "register starvation must never change results";
}

TEST(VcaStress, ExtremeGeometriesKeepInvariants)
{
    const auto &prof = wload::profileByName("perlbmk_535");
    const isa::Program *prog = wload::cachedProgram(prof, true);

    struct Geometry
    {
        unsigned physRegs, sets, assoc, astq, rsids, ports;
    };
    const Geometry configs[] = {
        {64, 16, 2, 1, 2, 4},
        {80, 64, 1, 2, 4, 6},
        {96, 32, 8, 8, 16, 8},
        {200, 128, 2, 4, 8, 8},
        {448, 64, 6, 16, 32, 12},
    };
    for (const Geometry &g : configs) {
        CpuParams params = CpuParams::preset(RenamerKind::Vca,
                                             g.physRegs);
        params.vcaTableSets = g.sets;
        params.vcaTableAssoc = g.assoc;
        params.astqEntries = g.astq;
        params.rsidEntries = g.rsids;
        params.vcaRenamePorts = g.ports;
        OooCpu cpu(params, {prog});
        auto res = cpu.run(15'000, 3'000'000);
        EXPECT_GT(res.totalInsts, 1000u)
            << "regs=" << g.physRegs << " sets=" << g.sets;
        EXPECT_NO_THROW(cpu.renamer().validate())
            << "regs=" << g.physRegs << " sets=" << g.sets;
    }
}

TEST(VcaStress, TinyRsidTableStillCorrect)
{
    // With only 2 RSIDs and deep windows the translation table must
    // flush and reuse identifiers; correctness must be unaffected.
    const auto &prof = wload::profileByName("perlbmk_535");
    const isa::Program prog = *wload::cachedProgram(prof, true);
    CpuParams params = CpuParams::preset(RenamerKind::Vca, 128);
    params.rsidEntries = 2;
    params.rsidOffsetBits = 10; // 1 KiB regions: ~3 frames per RSID
    OooCpu cpu(params, {&prog});

    mem::SparseMemory refMem;
    func::FuncSim ref(prog, refMem);
    bool mismatch = false;
    cpu.addCommitListener([&](const DynInst &inst) {
        func::StepRecord rec;
        ref.step(rec);
        mismatch = mismatch || rec.pc != inst.pc;
    });
    cpu.run(20'000, 4'000'000);
    EXPECT_FALSE(mismatch);
    cpu.renamer().validate();
}

TEST(Determinism, TimingRunsAreExactlyRepeatable)
{
    const auto &prof = wload::profileByName("twolf");
    const isa::Program *prog = wload::cachedProgram(prof, true);
    auto runOnce = [&] {
        CpuParams params = CpuParams::preset(RenamerKind::Vca, 160);
        OooCpu cpu(params, {prog});
        auto r = cpu.run(40'000, 4'000'000);
        return std::make_pair(r.cycles, r.dcacheAccesses);
    };
    const auto a = runOnce();
    const auto b = runOnce();
    EXPECT_EQ(a.first, b.first);
    EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(ThreadPoolProperty, RandomCancellationInterleavingsAlwaysDrain)
{
    // Random mixes of submission and cancellation against pools of
    // every size: wait() must always return (no deadlock, no lost
    // wakeup), every job not successfully cancelled runs exactly once,
    // and every successfully cancelled job runs never.
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            Rng rng(seed * 0x9e37 + threads);
            ThreadPool pool(threads);
            constexpr size_t n = 400;
            std::vector<std::atomic<unsigned>> runs(n);
            std::vector<ThreadPool::JobId> ids(n);
            std::vector<bool> cancelled(n, false);

            for (size_t i = 0; i < n; ++i) {
                ids[i] = pool.submit([&runs, i] {
                    runs[i].fetch_add(1, std::memory_order_relaxed);
                });
                // Occasionally cancel a random earlier job; cancel()
                // itself reports whether it won the race.
                if (rng.chance(0.4)) {
                    const size_t victim = rng.below(i + 1);
                    if (!cancelled[victim] &&
                        pool.cancel(ids[victim]))
                        cancelled[victim] = true;
                }
            }
            pool.wait();

            size_t executed = 0, skipped = 0;
            for (size_t i = 0; i < n; ++i) {
                const unsigned r =
                    runs[i].load(std::memory_order_relaxed);
                ASSERT_LE(r, 1u) << "job " << i << " ran " << r
                                 << " times";
                if (cancelled[i]) {
                    EXPECT_EQ(r, 0u)
                        << "cancelled job " << i << " still ran";
                    ++skipped;
                } else {
                    EXPECT_EQ(r, 1u) << "job " << i << " lost";
                    ++executed;
                }
            }
            EXPECT_EQ(executed + skipped, n);
        }
    }
}

TEST(ThreadPoolProperty, RecursiveSubmissionDrainsBeforeWaitReturns)
{
    // Jobs submitted from inside pool workers land on the submitting
    // worker's own queue; wait() must still cover them.
    for (const unsigned threads : {1u, 3u}) {
        ThreadPool pool(threads);
        std::atomic<unsigned> leaves{0};
        constexpr unsigned fanout = 5;
        for (unsigned i = 0; i < 20; ++i) {
            pool.submit([&pool, &leaves] {
                for (unsigned c = 0; c < fanout; ++c)
                    pool.submit([&leaves] {
                        leaves.fetch_add(1,
                                         std::memory_order_relaxed);
                    });
            });
        }
        pool.wait();
        EXPECT_EQ(leaves.load(), 20 * fanout);
    }
}

TEST(CacheProperty, MeasurementJsonRoundTripIsLossless)
{
    // The on-disk cache stores Measurements through measurementToJson;
    // a cache hit must be indistinguishable from a fresh simulation,
    // so the round trip has to preserve every bit of every double
    // (including the awkward ones) and every dynamic field.
    const double awkward[] = {1.0 / 3.0,    0.1,   1e-300, 1e300,
                              123456789.25, 0.0,   -0.0,   42.0,
                              5e-324 /* min denormal */};
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
        Rng rng(seed * 131 + 9);
        analysis::Measurement m;
        m.ok = rng.chance(0.8);
        if (!m.ok)
            m.error = "needs \"quotes\", back\\slashes\nand newlines";
        m.cycles = rng.below(1'000'000'000);
        m.insts = rng.below(1'000'000'000);
        m.ipc = rng.uniform() * 8;
        m.cpi = m.ipc > 0 ? 1 / m.ipc : 0;
        m.dcacheAccesses = awkward[rng.below(std::size(awkward))];
        m.dcacheAccPerInst = rng.uniform();
        const size_t nThreads = 1 + rng.below(4);
        for (size_t t = 0; t < nThreads; ++t) {
            m.threadCpi.push_back(rng.uniform() * 10);
            m.threadDcachePerInst.push_back(
                awkward[rng.below(std::size(awkward))]);
            m.threadInsts.push_back(rng.below(1'000'000));
        }
        // The cache stores the taxonomy leaves and derives the flat
        // breakdown from them on load.
        if (m.ok) {
            using Buckets = cpu::TaxonomyBuckets;
            for (unsigned l = 0; l < Buckets::numLeaves; ++l)
                m.taxonomy.emplace_back(
                    Buckets::leafName(static_cast<Buckets::Leaf>(l)),
                    awkward[rng.below(std::size(awkward))]);
            m.cycleBreakdown =
                analysis::deriveCycleBreakdown(m.taxonomy, m.cycles);
        }
        m.counters.emplace_back("stalls_table_conflict",
                                rng.uniform() * 1e6);
        m.counters.emplace_back("stalls_astq",
                                awkward[rng.below(std::size(awkward))]);

        const std::string json = analysis::measurementToJson(m);
        const analysis::Measurement back =
            analysis::measurementFromJson(json);
        EXPECT_TRUE(m == back) << "seed " << seed << ": " << json;
        // And the round trip is a fixed point: serializing again
        // yields byte-identical JSON (what the determinism test
        // compares across worker counts).
        EXPECT_EQ(json, analysis::measurementToJson(back));
    }
}

// ---------------------------------------------------------------------
// Idle-cycle skipping is transparent (DESIGN.md §5)
// ---------------------------------------------------------------------

/** Turns idle-cycle skipping off for one scope: the reference run. */
struct TickEveryCycle
{
    TickEveryCycle() { setIdleSkippingForTest(false); }
    ~TickEveryCycle() { setIdleSkippingForTest(true); }
};

/** "" when equal, else the first differing line of each. */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream as(a), bs(b);
    std::string la, lb;
    for (unsigned line = 1;; ++line) {
        const bool ga = static_cast<bool>(std::getline(as, la));
        const bool gb = static_cast<bool>(std::getline(bs, lb));
        if (!ga && !gb)
            return "";
        if (!ga || !gb || la != lb) {
            return "line " + std::to_string(line) + ":\n  skipping: " +
                   (ga ? la : "<end>") + "\n  ticked:   " +
                   (gb ? lb : "<end>");
        }
    }
}

/** One random-profile program per thread (seeds differ per thread). */
std::vector<isa::Program>
randomPrograms(std::uint64_t seed, unsigned threads, bool windowed)
{
    std::vector<isa::Program> progs;
    for (unsigned t = 0; t < threads; ++t) {
        wload::BenchProfile prof = randomProfile(seed * 16 + t);
        prof.targetDynInsts = 60'000;
        progs.push_back(wload::generateProgram(prof, windowed));
    }
    return progs;
}

std::vector<const isa::Program *>
pointers(const std::vector<isa::Program> &progs)
{
    std::vector<const isa::Program *> out;
    for (const isa::Program &p : progs)
        out.push_back(&p);
    return out;
}

struct SkipCase
{
    RenamerKind kind;
    unsigned threads;
    unsigned physRegs;
};

std::string
label(const SkipCase &c, std::uint64_t seed)
{
    return std::string(renamerKindName(c.kind)) + " x" +
           std::to_string(c.threads) + " @" + std::to_string(c.physRegs) +
           " seed " + std::to_string(seed);
}

/**
 * Every renamer on 1, 2 and 4 threads, at a register count that
 * operates and (by seed) starves rename. The conventional-window
 * renamer cannot fit its windows for more than one thread at any size,
 * so it runs single-threaded only.
 */
std::vector<SkipCase>
skipCases(std::uint64_t seed)
{
    std::vector<SkipCase> cases;
    const unsigned extra = 32u << (seed % 3); // 32, 64 or 128
    for (unsigned threads : {1u, 2u, 4u}) {
        cases.push_back({RenamerKind::Baseline, threads,
                         threads * 64 + extra});
        cases.push_back({RenamerKind::IdealWindow, threads,
                         threads * 32 + 64 + extra});
        cases.push_back({RenamerKind::Vca, threads,
                         threads * 32 + 32 + extra});
    }
    cases.push_back({RenamerKind::ConvWindow, 1, 128 + extra});
    return cases;
}

enum class Observer
{
    None,
    DebugFlags,
    RegCacheAnalyzer,
};

struct DetailedDump
{
    std::string text; ///< stats dump, plus the trace when one is on
    std::string json; ///< stats JSON of the cpu tree
    std::string renamer; ///< renamerState() at the end of the run
    Cycle cycles = 0;
    Cycle skipped = 0;
};

void
dumpEntry(std::ostream &os, const core::TableEntry &e)
{
    os << " addr " << e.addr << " rsid " << e.rsid << " front "
       << e.front << " commit " << e.commit << " spec "
       << e.specProducers << " lru " << e.lru << "\n";
}

/**
 * Every PhysState, rename-table entry and RSID entry of a VCA renamer
 * (ideal windows included), LRU stamps and stamp counters included;
 * "" for the conventional renamers. Replayed refusals must leave all
 * of it exactly as ticking does.
 */
std::string
renamerState(OooCpu &cpu)
{
    const auto *vca = dynamic_cast<const core::VcaRenamer *>(&cpu.renamer());
    if (!vca)
        return "";
    std::ostringstream os;
    const core::RegStateArray &regs = vca->regState();
    const core::RenameTable &table = vca->table();
    os << "stamps: regs " << regs.clock().now() << " table "
       << table.clock().now() << " rsid " << vca->rsid().clock().now()
       << "; free " << regs.numFree() << "\n";
    for (unsigned p = 0; p < regs.numRegs(); ++p) {
        const core::PhysState &s = regs[PhysRegIndex(p)];
        os << "p" << p << " addr " << s.addr << " ref " << s.refCount
           << " ow " << s.overwriters << " c" << s.committed << " d"
           << s.dirty << " f" << s.fillPending << " z" << s.zombie
           << " lru " << s.lru << "\n";
    }
    if (table.unbounded()) {
        std::vector<const core::TableEntry *> entries;
        table.forEach([&](const core::TableEntry &e) {
            entries.push_back(&e);
        });
        std::sort(entries.begin(), entries.end(),
                  [](const auto *a, const auto *b) {
                      return a->addr < b->addr;
                  });
        for (const core::TableEntry *e : entries)
            dumpEntry(os << "entry", *e);
    } else {
        for (size_t w = 0; w < table.ways().size(); ++w) {
            const core::TableEntry &e = table.ways()[w];
            dumpEntry(os << "way " << w << (e.valid ? "" : " invalid"), e);
        }
    }
    for (unsigned r = 0; r < vca->rsid().size(); ++r) {
        os << "rsid " << r << " ref " << vca->rsid().refCount(int(r))
           << " lru " << vca->rsid().lru(int(r)) << "\n";
    }
    return os.str();
}

/** Warm up, reset, measure (or hit `measureCycles`), dump the stats. */
DetailedDump
detailedRun(const std::vector<const isa::Program *> &progs,
            const SkipCase &c, Observer observer = Observer::None,
            Cycle measureCycles = 0)
{
    OooCpu cpu(CpuParams::preset(c.kind, c.physRegs, c.threads), progs);
    std::unique_ptr<telemetry::RegCacheAnalyzer> analyzer;
    if (observer == Observer::RegCacheAnalyzer)
        analyzer = telemetry::attachRegCacheAnalyzer(cpu);
    std::ostringstream traceOut;
    if (observer == Observer::DebugFlags) {
        trace::setTraceStream(&traceOut);
        trace::setFlagsFromString("Rename,Fetch");
    }
    const bool smt = c.threads > 1;
    cpu.run(2'000, cycleBudget(2'000), smt);
    cpu.resetStats();
    cpu.run(6'000, measureCycles ? measureCycles : cycleBudget(6'000),
            smt);
    if (observer == Observer::DebugFlags) {
        trace::clearAllFlags();
        trace::setTraceStream(nullptr);
    }

    DetailedDump d;
    std::ostringstream text;
    cpu.dump(text);
    d.text = text.str() + traceOut.str();
    std::ostringstream json;
    {
        trace::JsonWriter w(json);
        w.beginObject();
        trace::writeJsonGroup(cpu, w);
        w.endObject();
    }
    d.json = json.str();
    d.renamer = renamerState(cpu);
    d.cycles = cpu.currentCycle();
    d.skipped = cpu.skippedCycles();
    return d;
}

/** Run with skipping on and off; the dumps must be identical. Returns
 *  the cycles the skipping run skipped. */
Cycle
expectTransparent(const std::vector<const isa::Program *> &progs,
                  const SkipCase &c, const std::string &what,
                  Observer observer = Observer::None,
                  Cycle measureCycles = 0)
{
    const DetailedDump on = detailedRun(progs, c, observer, measureCycles);
    DetailedDump off;
    {
        TickEveryCycle reference;
        off = detailedRun(progs, c, observer, measureCycles);
    }
    EXPECT_EQ(off.skipped, 0u) << what;
    EXPECT_EQ(on.cycles, off.cycles) << what;
    EXPECT_EQ(firstDiff(on.text, off.text), "") << what;
    EXPECT_EQ(firstDiff(on.json, off.json), "") << what;
    EXPECT_EQ(firstDiff(on.renamer, off.renamer), "") << what;
    return on.skipped;
}

TEST(IdleSkipping, DetailedStatsMatchTickByTick)
{
    Cycle skipped = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (const SkipCase &c : skipCases(seed)) {
            const auto progs = randomPrograms(
                seed, c.threads, c.kind != RenamerKind::Baseline);
            skipped += expectTransparent(pointers(progs), c,
                                         label(c, seed));
        }
    }
    // Vacuous unless spans were actually skipped.
    EXPECT_GT(skipped, 0u);
}

TEST(IdleSkipping, RegisterStarvedVcaSkipsItsRefusals)
{
    // The paper's Figure 7 case: four threads' 256 logical registers on
    // 192 physical ones. Most stalled cycles end in a refused VCA
    // rename; replaying those refusals lets the span be skipped. With
    // VCA refusals ticked this run skipped 72.5% of its cycles; with
    // them replayed it skips 80.9%.
    std::vector<const isa::Program *> progs;
    for (const char *name : {"mcf", "gcc_expr", "parser", "gap"}) {
        progs.push_back(
            wload::cachedProgram(wload::profileByName(name), false));
    }
    const SkipCase c{RenamerKind::Vca, 4, 192};
    const Cycle skipped = expectTransparent(progs, c, "vca x4 @192");
    const DetailedDump d = detailedRun(progs, c);
    EXPECT_EQ(d.skipped, skipped);
    EXPECT_GT(double(skipped), 0.77 * double(d.cycles))
        << skipped << " of " << d.cycles << " cycles skipped";
}

/** Endless loop: a missing load, then 40 instructions that wait on
 *  it, so the IQ fills with unissued work. */
isa::Program
iqFillerProgram()
{
    wload::AsmBuilder b;
    b.li(9, 0x400000);
    const auto loop = b.newLabel();
    b.bind(loop);
    b.ld(8, 9, 0);
    for (RegIndex i = 0; i < 40; ++i)
        b.emitR(isa::Opcode::Add, 10 + i % 8, 8, 10 + i % 8);
    b.addi(9, 9, 4096); // next page: every load misses
    b.branch(isa::Opcode::Bne, 9, isa::regZero, loop);
    b.halt();
    isa::Program p;
    p.name = "iq_filler";
    p.code = b.seal();
    p.finalize();
    return p;
}

/** Straight-line nops through a cold icache: each line misses, and
 *  nops rename without an IQ slot. */
isa::Program
coldNopsProgram()
{
    wload::AsmBuilder b;
    for (unsigned i = 0; i < 8'192; ++i)
        b.nop();
    b.halt();
    isa::Program p;
    p.name = "cold_nops";
    p.code = b.seal();
    p.finalize();
    return p;
}

TEST(IdleSkipping, SpanEndsBeforeTheRenamePhaseThatReachesANop)
{
    // Three threads keep the IQ full; thread 2 waits on the icache
    // with a nop at its fetch-queue head. Rename rounds starting at an
    // IQ-bound thread stop there, so the nop renames only in the round
    // that starts at thread 2: a span must end before that phase even
    // when the phases before it only stall.
    const isa::Program filler = iqFillerProgram();
    const isa::Program nops = coldNopsProgram();
    const std::vector<const isa::Program *> progs = {&filler, &filler,
                                                     &nops, &filler};
    const SkipCase c{RenamerKind::Baseline, 4, 448};
    EXPECT_GT(expectTransparent(progs, c, "iq-full nop phases"), 0u);
}

TEST(IdleSkipping, RunsEndingOnTheCycleBudgetMatch)
{
    // Memory-bound and SMT: the budget lands inside skipped spans.
    const auto progs = randomPrograms(4, 2, true);
    const SkipCase c{RenamerKind::Vca, 2, 160};
    for (Cycle budget : {1u, 97u, 1'000u, 4'099u}) {
        const std::string what = "budget " + std::to_string(budget);
        expectTransparent(pointers(progs), c, what, Observer::None,
                          budget);
    }
}

TEST(IdleSkipping, DebugFlagsTurnSkippingOff)
{
    const auto progs = randomPrograms(5, 2, false);
    const SkipCase c{RenamerKind::Baseline, 2, 192};
    // The trace is part of the compared text: a skipped span would
    // drop its per-cycle stall lines.
    expectTransparent(pointers(progs), c, "debug flags",
                      Observer::DebugFlags);
    EXPECT_EQ(detailedRun(pointers(progs), c, Observer::DebugFlags)
                  .skipped,
              0u);
}

TEST(IdleSkipping, RegCacheAnalyzerTurnsSkippingOff)
{
    const auto progs = randomPrograms(6, 2, true);
    const SkipCase c{RenamerKind::Vca, 2, 128};
    expectTransparent(pointers(progs), c, "reg-cache analyzer",
                      Observer::RegCacheAnalyzer);
    EXPECT_EQ(
        detailedRun(pointers(progs), c, Observer::RegCacheAnalyzer)
            .skipped,
        0u);
}

TEST(IdleSkipping, SampledStatsMatchTickByTick)
{
    // Sampled mode switches a fresh core in per sample; its skipped
    // cycles feed host.sim_cycles_skipped.
    const stats::HostStats &host = stats::HostStats::global();
    double skipped = 0;
    for (const SkipCase &c : skipCases(2)) {
        const auto progs = randomPrograms(
            7, c.threads, c.kind != RenamerKind::Baseline);
        analysis::RunOptions opts;
        opts.mode = analysis::SimMode::Sampled;
        opts.numThreads = c.threads;
        opts.stopOnFirstThread = c.threads > 1;
        opts.warmupInsts = 3'000;
        opts.samplePeriodInsts = 12'000;
        opts.sampleQuantumInsts = 1'000;
        opts.sampleDetailWarmInsts = 500;

        const double before = host.simCyclesSkipped.value();
        const analysis::Measurement on =
            analysis::runTiming(pointers(progs), c.kind, c.physRegs, opts);
        skipped += host.simCyclesSkipped.value() - before;
        analysis::Measurement off;
        {
            TickEveryCycle reference;
            const double mark = host.simCyclesSkipped.value();
            off = analysis::runTiming(pointers(progs), c.kind,
                                      c.physRegs, opts);
            EXPECT_EQ(host.simCyclesSkipped.value(), mark);
        }
        const std::string what = label(c, 7);
        ASSERT_TRUE(on.ok) << what << ": " << on.error;
        EXPECT_GT(on.sampling.samples, 0u) << what;
        EXPECT_EQ(firstDiff(analysis::measurementToJson(on),
                            analysis::measurementToJson(off)),
                  "")
            << what;
        analysis::SamplingStats onStats, offStats;
        onStats.populate(on);
        offStats.populate(off);
        std::ostringstream onText, offText;
        onStats.dump(onText);
        offStats.dump(offText);
        EXPECT_EQ(firstDiff(onText.str(), offText.str()), "") << what;
    }
    EXPECT_GT(skipped, 0);
}

} // namespace
