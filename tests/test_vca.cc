/**
 * @file
 * Unit tests for the VCA core components: the RSID translation table,
 * the tagged rename table, the physical-register state machine, the
 * ASTQ, and direct VcaRenamer behaviour (fills, spills, overwrite
 * frees, squash undo, window shifting, port limits).
 */

#include <gtest/gtest.h>

#include "core/astq.hh"
#include "core/reg_state.hh"
#include "core/rename_table.hh"
#include "core/rsid_table.hh"
#include "core/vca_renamer.hh"
#include "cpu/params.hh"
#include "cpu/phys_regfile.hh"
#include "cpu/ooo_cpu.hh"
#include "func/func_sim.hh"
#include "isa/program.hh"
#include "sim/rng.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

#include <deque>
#include <sstream>

namespace {

using namespace vca;
using namespace vca::core;
namespace layout = isa::layout;

// ---------------------------------------------------------------------
// RSID table
// ---------------------------------------------------------------------

class RsidTest : public ::testing::Test
{
  protected:
    RsidTest() : root_("t"), table_(4, 16, &root_) {}
    stats::StatGroup root_;
    RsidTable table_;
};

TEST_F(RsidTest, LookupMissThenAllocateHit)
{
    const Addr a = 0x6000'0001'0000;
    EXPECT_EQ(table_.lookup(a), RsidTable::noRsid);
    const int r = table_.allocate(a);
    ASSERT_GE(r, 0);
    EXPECT_EQ(table_.lookup(a), r);
    // Addresses in the same 64K region share the RSID.
    EXPECT_EQ(table_.lookup(a + 0x8000), r);
    // A different region misses.
    EXPECT_EQ(table_.lookup(a + 0x10000), RsidTable::noRsid);
}

TEST_F(RsidTest, UnusedEntriesReclaimedWithoutFlush)
{
    for (Addr i = 0; i < 4; ++i)
        ASSERT_GE(table_.allocate(i << 16), 0);
    // Table full, but all refCounts are zero: 5th allocation reclaims.
    EXPECT_GE(table_.allocate(Addr(9) << 16), 0);
    EXPECT_GE(table_.reclaimsClean.value(), 1.0);
    EXPECT_DOUBLE_EQ(table_.flushes.value(), 0.0);
}

TEST_F(RsidTest, PinnedEntriesForceVictimFlow)
{
    for (Addr i = 0; i < 4; ++i) {
        const int r = table_.allocate(i << 16);
        ASSERT_GE(r, 0);
        table_.addRef(r);
    }
    // All in use: allocation fails, victim() nominates the LRU one.
    EXPECT_EQ(table_.allocate(Addr(9) << 16), RsidTable::noRsid);
    const int victim = table_.victim();
    ASSERT_GE(victim, 0);
    table_.dropRef(victim);
    table_.invalidate(victim);
    EXPECT_GE(table_.allocate(Addr(9) << 16), 0);
    EXPECT_DOUBLE_EQ(table_.flushes.value(), 1.0);
}

TEST_F(RsidTest, RefCountUnderflowPanics)
{
    const int r = table_.allocate(0);
    table_.addRef(r);
    table_.dropRef(r);
    EXPECT_THROW(table_.dropRef(r), PanicError);
}

// ---------------------------------------------------------------------
// Rename table
// ---------------------------------------------------------------------

TEST(RenameTableTest, SetConflictsExposeFreeWays)
{
    RenameTable t(64, 2);
    // Three addresses mapping to the same set (stride 64 slots).
    const Addr base = layout::regSpaceBase;
    const Addr a0 = base, a1 = base + 64 * 8, a2 = base + 128 * 8;
    ASSERT_EQ(t.setIndex(a0), t.setIndex(a1));
    ASSERT_EQ(t.setIndex(a0), t.setIndex(a2));

    TableEntry *e0 = t.freeWay(a0);
    ASSERT_NE(e0, nullptr);
    t.install(e0, a0, 0);
    TableEntry *e1 = t.freeWay(a1);
    ASSERT_NE(e1, nullptr);
    t.install(e1, a1, 0);
    EXPECT_EQ(t.freeWay(a2), nullptr) << "set must be full";

    EXPECT_EQ(t.lookup(a0), e0);
    EXPECT_EQ(t.lookup(a1), e1);
    EXPECT_EQ(t.lookup(a2), nullptr);
}

TEST(RenameTableTest, LruOrderingOfWays)
{
    RenameTable t(64, 3);
    const Addr base = layout::regSpaceBase;
    const Addr addrs[3] = {base, base + 64 * 8, base + 128 * 8};
    for (Addr a : addrs)
        t.install(t.freeWay(a), a, 0);
    // Touch a0 so it is most recent.
    t.lookup(addrs[0]);
    auto ways = t.waysByLru(addrs[0]);
    ASSERT_EQ(ways.size(), 3u);
    EXPECT_EQ(ways.back()->addr, addrs[0]);
}

TEST(RenameTableTest, UnboundedModeNeverConflicts)
{
    RenameTable t(0, 0);
    ASSERT_TRUE(t.unbounded());
    for (Addr i = 0; i < 1000; ++i) {
        const Addr a = layout::regSpaceBase + i * 8;
        TableEntry *e = t.freeWay(a);
        ASSERT_NE(e, nullptr);
        t.install(e, a, 0);
    }
    EXPECT_EQ(t.validCount(), 1000u);
    for (Addr i = 0; i < 1000; ++i)
        EXPECT_NE(t.lookup(layout::regSpaceBase + i * 8), nullptr);
}

TEST(RenameTableTest, InvalidateRemovesMapping)
{
    RenameTable t(64, 2);
    const Addr a = layout::regSpaceBase + 8;
    TableEntry *e = t.freeWay(a);
    t.install(e, a, 0);
    ASSERT_NE(t.lookup(a), nullptr);
    t.invalidate(e);
    EXPECT_EQ(t.lookup(a), nullptr);
    EXPECT_EQ(t.validCount(), 0u);
}

// ---------------------------------------------------------------------
// Physical register state
// ---------------------------------------------------------------------

TEST(RegStateTest, FreeListLifo)
{
    RegStateArray rs(4);
    EXPECT_EQ(rs.numFree(), 4u);
    const PhysRegIndex p = rs.popFree();
    EXPECT_EQ(rs.numFree(), 3u);
    rs.edit(p)->addr = 0x1000;
    rs.pushFree(p);
    EXPECT_EQ(rs.numFree(), 4u);
    EXPECT_TRUE(rs[p].free()) << "pushFree must clear state";
}

TEST(RegStateTest, EvictabilityRules)
{
    PhysState s;
    EXPECT_FALSE(s.evictable()) << "free registers are not victims";
    s.addr = 0x1000;
    EXPECT_FALSE(s.evictable()) << "uncommitted";
    s.committed = true;
    EXPECT_TRUE(s.evictable());
    s.refCount = 1;
    EXPECT_FALSE(s.evictable()) << "pinned";
    s.refCount = 0;
    s.fillPending = true;
    EXPECT_FALSE(s.evictable()) << "fill in flight";
}

TEST(RegStateTest, VictimPrefersLruAndAvoidsOverwritePending)
{
    RegStateArray rs(4);
    std::vector<PhysRegIndex> order;
    for (unsigned i = 0; i < 4; ++i) {
        const PhysRegIndex p = rs.popFree();
        rs.edit(p)->addr = 0x1000 + 8 * i;
        rs.edit(p)->committed = true;
        rs.touch(p);
        order.push_back(p);
    }
    // The first-touched register is LRU but has a pending overwriter:
    // the second-touched (next LRU without overwriters) must win.
    rs.edit(order[0])->overwriters = 1;
    EXPECT_EQ(rs.findVictim(false), order[1]);
}

TEST(RegStateTest, OverwritePendingUsedAsLastResort)
{
    RegStateArray rs(2);
    std::vector<PhysRegIndex> order;
    for (unsigned i = 0; i < 2; ++i) {
        const PhysRegIndex p = rs.popFree();
        rs.edit(p)->addr = 0x1000 + 8 * i;
        rs.edit(p)->committed = true;
        rs.edit(p)->overwriters = 1;
        rs.touch(p);
        order.push_back(p);
    }
    EXPECT_EQ(rs.findVictim(false), order[0]) << "LRU among fallbacks";
}

TEST(RegStateTest, RequireCleanSkipsDirty)
{
    RegStateArray rs(2);
    for (unsigned i = 0; i < 2; ++i) {
        const PhysRegIndex p = rs.popFree();
        rs.edit(p)->addr = 0x1000 + 8 * i;
        rs.edit(p)->committed = true;
        rs.touch(p);
    }
    rs.edit(0)->dirty = true;
    EXPECT_EQ(rs.findVictim(true), 1);
    rs.edit(1)->dirty = true;
    EXPECT_EQ(rs.findVictim(true), invalidPhysReg);
}

/** The victim scan findVictim() made before it kept victim counts. */
PhysRegIndex
referenceVictim(const RegStateArray &rs, bool requireClean)
{
    PhysRegIndex best = invalidPhysReg;
    PhysRegIndex fallback = invalidPhysReg;
    for (unsigned i = 0; i < rs.numRegs(); ++i) {
        const PhysState &s = rs[PhysRegIndex(i)];
        if (!s.evictable() || (requireClean && s.dirty))
            continue;
        PhysRegIndex &slot = s.overwriters == 0 ? best : fallback;
        if (slot == invalidPhysReg || s.lru < rs[slot].lru)
            slot = PhysRegIndex(i);
    }
    return best != invalidPhysReg ? best : fallback;
}

TEST(RegStateTest, VictimCountsFollowRandomEdits)
{
    // Random pin/unpin/commit/dirty/fill/free sequences through edit()
    // and pushFree(): after every step both counts equal a recount and
    // both victim queries equal the reference scan. A small file makes
    // "no victim", LRU ties (dead-value hints zero the stamp) and the
    // overwriter fallback frequent; the test checks each occurred.
    constexpr unsigned numRegs = 12;
    RegStateArray rs(numRegs);
    Rng rng(20);
    unsigned noVictim = 0, ties = 0, fallbacks = 0;
    for (unsigned step = 0; step < 20'000; ++step) {
        const PhysRegIndex p = PhysRegIndex(rng.below(numRegs));
        const PhysState &s = rs[p];
        switch (rng.below(9)) {
          case 0: // allocate (a free register gets an address)
            if (rs.hasFree())
                rs.edit(rs.popFree())->addr = 0x1000 + 8 * step;
            break;
          case 1: // pin
            if (!s.free())
                ++rs.edit(p)->refCount;
            break;
          case 2: // unpin
            if (s.refCount > 0)
                --rs.edit(p)->refCount;
            break;
          case 3: // commit: the value becomes dirty
            if (!s.free()) {
                auto e = rs.edit(p);
                e->committed = true;
                e->dirty = true;
            }
            break;
          case 4: // spill: clean again
            rs.edit(p)->dirty = false;
            break;
          case 5: // fill issued or completed
            if (!s.free())
                rs.edit(p)->fillPending = !s.fillPending;
            break;
          case 6: // free (a register in the free list is never freed)
            if (!s.free() && !s.pinned() && !s.fillPending)
                rs.pushFree(p);
            break;
          case 7: // an overwriter dispatched or gone
            rs.edit(p)->overwriters = s.overwriters ? 0 : 1;
            break;
          case 8: // touch, or a dead-value hint zeroing the stamp
            if (rng.chance(0.5))
                rs.touch(p);
            else
                rs.edit(p)->lru = 0;
            break;
        }

        unsigned evictable = 0, clean = 0, zeroLru = 0;
        for (unsigned i = 0; i < numRegs; ++i) {
            const PhysState &r = rs[PhysRegIndex(i)];
            if (!r.evictable())
                continue;
            ++evictable;
            clean += r.dirty ? 0 : 1;
            zeroLru += r.lru == 0 && r.overwriters == 0 ? 1 : 0;
        }
        ASSERT_EQ(rs.numEvictable(), evictable) << "step " << step;
        ASSERT_EQ(rs.numCleanEvictable(), clean) << "step " << step;
        ASSERT_EQ(rs.misclassified(), invalidPhysReg) << "step " << step;
        for (bool requireClean : {false, true}) {
            const PhysRegIndex want = referenceVictim(rs, requireClean);
            ASSERT_EQ(rs.findVictim(requireClean), want)
                << "step " << step << " requireClean " << requireClean;
            if (want == invalidPhysReg)
                ++noVictim;
            else if (rs[want].overwriters > 0)
                ++fallbacks;
        }
        ties += zeroLru > 1 ? 1 : 0;
    }
    EXPECT_GT(noVictim, 0u);
    EXPECT_GT(ties, 0u);
    EXPECT_GT(fallbacks, 0u);
}

// ---------------------------------------------------------------------
// ASTQ
// ---------------------------------------------------------------------

TEST(AstqTest, CapacityAndWriteLimits)
{
    stats::StatGroup root("t");
    Astq q(4, 2, &root);
    q.beginCycle();
    EXPECT_TRUE(q.canEnqueue(1));
    q.enqueue({true, 0x1000, invalidPhysReg, 0});
    q.enqueue({false, 0x1008, 3, 0});
    // Two writes this cycle: the per-cycle limit is reached.
    EXPECT_FALSE(q.canEnqueue(1));
    q.beginCycle();
    EXPECT_TRUE(q.canEnqueue(1));
    q.enqueue({true, 0x1010, invalidPhysReg, 0});
    q.enqueue({true, 0x1018, invalidPhysReg, 0});
    q.beginCycle();
    EXPECT_FALSE(q.canEnqueue(1)) << "queue full at 4 entries";
    EXPECT_EQ(q.size(), 4u);

    // FIFO order.
    EXPECT_EQ(q.pop().addr, 0x1000u);
    EXPECT_EQ(q.pop().addr, 0x1008u);
    EXPECT_TRUE(q.canEnqueue(1));
}

TEST(AstqTest, EnqueuePastLimitPanics)
{
    stats::StatGroup root("t");
    Astq q(1, 2, &root);
    q.beginCycle();
    q.enqueue({true, 0, invalidPhysReg, 0});
    EXPECT_THROW(q.enqueue({true, 8, invalidPhysReg, 0}), PanicError);
}

TEST(AstqTest, ForceBypassesLimits)
{
    stats::StatGroup root("t");
    Astq q(1, 1, &root);
    q.beginCycle();
    q.enqueue({true, 0, invalidPhysReg, 0});
    q.enqueueForce({true, 8, invalidPhysReg, 0});
    EXPECT_EQ(q.size(), 2u);
}

// ---------------------------------------------------------------------
// VcaRenamer direct unit tests
// ---------------------------------------------------------------------

class VcaRenamerTest : public ::testing::Test
{
  protected:
    VcaRenamerTest()
        : root_("t"),
          params_(cpu::CpuParams::preset(cpu::RenamerKind::Vca, 32)),
          regs_(params_.physRegs)
    {
        memories_.push_back(&memory_);
        renamer_ = std::make_unique<VcaRenamer>(params_, regs_,
                                                memories_, false, &root_);
        renamer_->setThreadContext(0, true);
    }

    cpu::DynInst *
    makeInst(const isa::StaticInst &si, std::uint64_t seq)
    {
        auto *inst = pool_.acquire();
        inst->si = &si;
        inst->tid = 0;
        inst->seq = seq;
        return inst;
    }

    stats::StatGroup root_;
    cpu::CpuParams params_;
    cpu::PhysRegFile regs_;
    mem::SparseMemory memory_;
    std::vector<mem::SparseMemory *> memories_;
    std::unique_ptr<VcaRenamer> renamer_;
    cpu::InstPool pool_;
    std::deque<isa::StaticInst> insts_;
};

TEST_F(VcaRenamerTest, SourceMissGeneratesFill)
{
    // add r12, r10, r11 : both sources cold -> two fills.
    insts_.push_back(isa::decode(isa::encodeR(isa::Opcode::Add,
                                              12, 10, 11)));
    auto *inst = makeInst(insts_.back(), 1);
    renamer_->beginCycle(1);
    ASSERT_TRUE(renamer_->rename(*inst, 1));
    EXPECT_DOUBLE_EQ(renamer_->fills.value(), 2.0);
    EXPECT_TRUE(renamer_->hasTransferOp());
    // Fill targets are distinct valid registers, not ready yet.
    EXPECT_NE(inst->srcPhys[0], inst->srcPhys[1]);
    EXPECT_FALSE(regs_.isReady(inst->srcPhys[0]));

    // Completing the fill publishes the memory value.
    memory_.write(inst->srcAddr[0], 777);
    auto op = renamer_->popTransferOp();
    EXPECT_FALSE(op.isStore);
    renamer_->transferDone(op);
    EXPECT_TRUE(regs_.isReady(op.reg));
    EXPECT_EQ(regs_.read(op.reg), 777u);
    renamer_->validate();
}

TEST_F(VcaRenamerTest, SecondReadHitsWithoutFill)
{
    insts_.push_back(isa::decode(isa::encodeI(isa::Opcode::Addi,
                                              12, 10, 1)));
    auto *a = makeInst(insts_.back(), 1);
    renamer_->beginCycle(1);
    ASSERT_TRUE(renamer_->rename(*a, 1));
    const double fillsAfterFirst = renamer_->fills.value();

    insts_.push_back(isa::decode(isa::encodeI(isa::Opcode::Addi,
                                              13, 10, 2)));
    auto *b = makeInst(insts_.back(), 2);
    renamer_->beginCycle(2);
    ASSERT_TRUE(renamer_->rename(*b, 2));
    EXPECT_DOUBLE_EQ(renamer_->fills.value(), fillsAfterFirst)
        << "second read of r10 must hit the rename table";
    EXPECT_EQ(a->srcPhys[0], b->srcPhys[0]);
}

TEST_F(VcaRenamerTest, CommitOverwriteFreesWithoutSpill)
{
    // Two writes to r12: committing the second frees the first's
    // register with no spill even though it is dirty.
    for (int i = 0; i < 2; ++i) {
        insts_.push_back(isa::decode(isa::encodeI(isa::Opcode::Addi,
                                                  12, 0, i)));
    }
    auto *a = makeInst(insts_[0], 1);
    auto *b = makeInst(insts_[1], 2);
    renamer_->beginCycle(1);
    ASSERT_TRUE(renamer_->rename(*a, 1));
    ASSERT_TRUE(renamer_->rename(*b, 1));
    renamer_->commitInst(*a);
    const double spillsBefore = renamer_->spills.value();
    renamer_->commitInst(*b);
    EXPECT_DOUBLE_EQ(renamer_->spills.value(), spillsBefore);
    EXPECT_GE(renamer_->overwriteFrees.value(), 1.0);
    renamer_->validate();
}

TEST_F(VcaRenamerTest, SquashRestoresPreviousMapping)
{
    insts_.push_back(isa::decode(isa::encodeI(isa::Opcode::Addi,
                                              12, 0, 1)));
    insts_.push_back(isa::decode(isa::encodeI(isa::Opcode::Addi,
                                              12, 0, 2)));
    insts_.push_back(isa::decode(isa::encodeR(isa::Opcode::Add,
                                              13, 12, 12)));
    auto *a = makeInst(insts_[0], 1);
    auto *b = makeInst(insts_[1], 2);
    renamer_->beginCycle(1);
    ASSERT_TRUE(renamer_->rename(*a, 1));
    ASSERT_TRUE(renamer_->rename(*b, 1));
    // Squash the second write; a reader renamed afterwards must see
    // the first write's register again.
    renamer_->squashInst(*b);
    auto *c = makeInst(insts_[2], 3);
    renamer_->beginCycle(2);
    ASSERT_TRUE(renamer_->rename(*c, 2));
    EXPECT_EQ(c->srcPhys[0], a->destPhys);
    renamer_->validate();
}

TEST_F(VcaRenamerTest, CallShiftsWindowBasePointer)
{
    insts_.push_back(isa::decode(isa::encodeJ(isa::Opcode::Call, 100)));
    insts_.push_back(isa::decode(isa::encodeJ(isa::Opcode::Ret, 0)));
    const Addr w0 = renamer_->windowBase(0);
    auto *call = makeInst(insts_[0], 1);
    renamer_->beginCycle(1);
    ASSERT_TRUE(renamer_->rename(*call, 1));
    EXPECT_EQ(renamer_->windowBase(0), w0 - layout::windowFrameBytes);
    // ra was renamed in the callee's frame.
    EXPECT_EQ(call->destAddr,
              renamer_->windowBase(0) +
                  isa::windowSlot(isa::RegClass::Int, isa::regRa) * 8);

    auto *ret = makeInst(insts_[1], 2);
    ASSERT_TRUE(renamer_->rename(*ret, 1));
    EXPECT_EQ(renamer_->windowBase(0), w0);
    // The ret read ra from the callee frame (same address).
    EXPECT_EQ(ret->srcAddr[0], call->destAddr);

    // Squash both: pointer returns through the undo chain.
    renamer_->squashInst(*ret);
    renamer_->squashInst(*call);
    EXPECT_EQ(renamer_->windowBase(0), w0);
    renamer_->validate();
}

TEST_F(VcaRenamerTest, SpillWritesValueToBackingMemory)
{
    // Fill the 32-register file with committed dirty values, then force
    // replacement and verify a spilled value lands in memory.
    std::uint64_t seq = 1;
    std::vector<cpu::DynInst *> producers;
    for (RegIndex r = 10; r < 32; ++r) {
        insts_.push_back(isa::decode(
            isa::encodeI(isa::Opcode::Addi, r, 0,
                         static_cast<std::int32_t>(r))));
    }
    size_t k = 0;
    for (RegIndex r = 10; r < 32; ++r, ++k) {
        auto *p = makeInst(insts_[k], seq++);
        renamer_->beginCycle(seq);
        ASSERT_TRUE(renamer_->rename(*p, seq));
        regs_.write(p->destPhys, 100 + r); // "execute"
        regs_.setReady(p->destPhys, true);
        renamer_->commitInst(*p);
        producers.push_back(p);
    }
    // fp destinations to push past capacity (32 regs total).
    std::deque<isa::StaticInst> fpInsts;
    for (RegIndex r = 8; r < 28; ++r) {
        fpInsts.push_back(isa::decode(
            isa::encodeR(isa::Opcode::Fmov, r, r, 0)));
    }
    double spilled = 0;
    for (size_t i = 0; i < fpInsts.size() && spilled == 0; ++i) {
        auto *p = makeInst(fpInsts[i], seq++);
        // Retry across "cycles" like the pipeline does on a stall.
        bool ok = false;
        for (int attempt = 0; attempt < 8 && !ok; ++attempt) {
            renamer_->beginCycle(seq + attempt);
            ok = renamer_->rename(*p, seq + attempt);
            while (renamer_->hasTransferOp()) {
                auto op = renamer_->popTransferOp();
                renamer_->transferDone(op);
            }
        }
        ASSERT_TRUE(ok) << "rename never succeeded";
        spilled = renamer_->spills.value();
    }
    ASSERT_GT(spilled, 0.0) << "replacement must have spilled";
    // At least one of the committed values must now be in memory at
    // its logical address.
    bool found = false;
    for (cpu::DynInst *p : producers) {
        if (memory_.read(p->destAddr) == regs_.read(p->destPhys) &&
            memory_.read(p->destAddr) != 0) {
            found = true;
            break;
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(VcaRenamerTest, RenamePortLimitStalls)
{
    // Warm six source registers (one per cycle so the ASTQ write
    // limit never interferes).
    std::uint64_t seq = 1;
    for (RegIndex r = 10; r < 16; ++r) {
        insts_.push_back(isa::decode(
            isa::encodeI(isa::Opcode::Addi, r, 0, 1)));
        auto *w = makeInst(insts_.back(), seq);
        renamer_->beginCycle(seq);
        ASSERT_TRUE(renamer_->rename(*w, seq));
        renamer_->commitInst(*w);
        ++seq;
    }

    // Each instruction reads two distinct warm registers and writes
    // one: 3 ports each. The 8-port limit admits two per cycle; the
    // third must stall and succeed the following cycle.
    for (int i = 0; i < 3; ++i) {
        insts_.push_back(isa::decode(isa::encodeR(
            isa::Opcode::Add, static_cast<RegIndex>(20 + i),
            static_cast<RegIndex>(10 + 2 * i),
            static_cast<RegIndex>(11 + 2 * i))));
    }
    auto *a = makeInst(insts_[insts_.size() - 3], seq);
    auto *b = makeInst(insts_[insts_.size() - 2], seq + 1);
    auto *c = makeInst(insts_[insts_.size() - 1], seq + 2);
    renamer_->beginCycle(seq);
    ASSERT_TRUE(renamer_->rename(*a, seq));
    ASSERT_TRUE(renamer_->rename(*b, seq));
    EXPECT_FALSE(renamer_->rename(*c, seq));
    EXPECT_GE(renamer_->stallsPorts.value(), 1.0);
    // Next cycle the ports are fresh.
    renamer_->beginCycle(seq + 1);
    EXPECT_TRUE(renamer_->rename(*c, seq + 1));
}

TEST_F(VcaRenamerTest, ReadCombiningSavesPorts)
{
    // Four instructions all reading the same register pair: reads
    // combine, so all four (4 dest ports + 2 read ports = 6 <= 8) fit
    // in one cycle.
    for (int i = 0; i < 4; ++i) {
        insts_.push_back(isa::decode(isa::encodeR(
            isa::Opcode::Add, static_cast<RegIndex>(20 + i), 10, 11)));
    }
    renamer_->beginCycle(1);
    for (int i = 0; i < 4; ++i) {
        auto *p = makeInst(insts_[i], 1 + i);
        EXPECT_TRUE(renamer_->rename(*p, 1)) << "inst " << i;
    }
    EXPECT_DOUBLE_EQ(renamer_->stallsPorts.value(), 0.0);
}

// ---------------------------------------------------------------------
// Dry-run refusals (idle-cycle skipping) and the victim-count recount
// ---------------------------------------------------------------------

/** A VCA renamer whose 32 registers all hold uncommitted writes of r10:
 *  every rename with a destination finds no free or evictable one. */
struct StarvedRenamer
{
    StarvedRenamer()
        : root("t"),
          params(cpu::CpuParams::preset(cpu::RenamerKind::Vca, 32)),
          regs(params.physRegs), memories{&memory},
          renamer(params, regs, memories, false, &root)
    {
        renamer.setThreadContext(0, true);
        for (unsigned i = 0; i < params.physRegs; ++i) {
            writers.push_back(make(isa::encodeI(isa::Opcode::Addi, 10, 0,
                                                int(i))));
            renamer.beginCycle(i);
            if (!renamer.rename(*writers.back(), i))
                ADD_FAILURE() << "writer " << i << " refused";
        }
    }

    cpu::DynInst *
    make(std::uint32_t word)
    {
        insts.push_back(isa::decode(word));
        cpu::DynInst *inst = pool.acquire();
        inst->si = &insts.back();
        inst->seq = insts.size();
        return inst;
    }

    /** Registers, table ways, RSIDs, LRU clocks, every statistic. */
    std::string
    state() const
    {
        std::ostringstream os;
        const RegStateArray &rs = renamer.regState();
        os << "clocks " << rs.clock().now() << " "
           << renamer.table().clock().now() << " "
           << renamer.rsid().clock().now() << " free " << rs.numFree()
           << "\n";
        for (unsigned p = 0; p < rs.numRegs(); ++p) {
            const PhysState &r = rs[PhysRegIndex(p)];
            os << p << ": " << r.addr << " " << r.refCount << " "
               << r.committed << r.dirty << r.fillPending << " " << r.lru
               << "\n";
        }
        for (const TableEntry &e : renamer.table().ways()) {
            os << e.valid << " " << e.addr << " " << e.front << " "
               << e.lru << "\n";
        }
        for (unsigned r = 0; r < renamer.rsid().size(); ++r)
            os << "rsid " << r << " " << renamer.rsid().lru(int(r)) << "\n";
        root.dump(os);
        return os.str();
    }

    stats::StatGroup root;
    cpu::CpuParams params;
    cpu::PhysRegFile regs;
    mem::SparseMemory memory;
    std::vector<mem::SparseMemory *> memories;
    VcaRenamer renamer;
    cpu::InstPool pool;
    std::deque<isa::StaticInst> insts;
    std::vector<cpu::DynInst *> writers;
};

TEST(VcaDryRun, ReplayedRefusalEqualsTheTickedOne)
{
    // add r11, r10, r10: each source hits (a table stamp, a pin rolled
    // back, a register stamp), the destination finds no register.
    // add r11, r12, r12: the first source misses, hits in the RSID
    // table, installs a free way and finds no register for the fill;
    // the way is invalidated again, so its stamp is taken but kept by
    // nothing.
    const std::pair<std::uint32_t, unsigned> cases[] = {
        {isa::encodeR(isa::Opcode::Add, 11, 10, 10), 4},
        {isa::encodeR(isa::Opcode::Add, 11, 12, 12), 2},
    };
    for (const auto &[word, stamps] : cases) {
        StarvedRenamer ticked, dry;
        cpu::DynInst *a = ticked.make(word);
        cpu::DynInst *b = dry.make(word);
        const std::string before = dry.state();
        ASSERT_EQ(ticked.state(), before);

        cpu::RefusalEffects fx;
        dry.renamer.beginCycle(100);
        ASSERT_TRUE(dry.renamer.dryRunRefusal(*b, fx)) << stamps;
        EXPECT_EQ(dry.state(), before) << "a dry run changes nothing";
        EXPECT_EQ(fx.stamps.size(), stamps);
        EXPECT_EQ(dry.renamer.lastStallCause(),
                  cpu::Renamer::StallCause::FreeList);

        // Three ticked refusals against two repeats and a replay.
        for (Cycle c = 100; c < 103; ++c) {
            ticked.renamer.beginCycle(c);
            ASSERT_FALSE(ticked.renamer.rename(*a, c));
        }
        fx.repeat(2);
        fx.replay();
        EXPECT_EQ(dry.state(), ticked.state()) << stamps;
        EXPECT_DOUBLE_EQ(dry.renamer.stallsNoFreeReg.value(), 3.0);
    }
}

TEST(VcaDryRun, RenameThatWouldSucceedIsNotARefusal)
{
    // No destination: the source hit alone renames, so the dry run
    // stops and undoes its pin.
    StarvedRenamer rig;
    cpu::DynInst *store = rig.make(isa::encodeB(isa::Opcode::St, 10, 0, 8));
    const std::string before = rig.state();
    cpu::RefusalEffects fx;
    rig.renamer.beginCycle(100);
    EXPECT_FALSE(rig.renamer.dryRunRefusal(*store, fx));
    EXPECT_EQ(rig.state(), before);
    rig.renamer.beginCycle(100);
    EXPECT_TRUE(rig.renamer.rename(*store, 100));
    rig.renamer.validate();
}

TEST(VcaDryRun, ValidateNamesADriftedVictimCount)
{
    // A write that bypasses RegStateArray::edit() leaves the victim
    // counts stale; validate() names the register and both counts.
    StarvedRenamer rig;
    // The oldest write commits: dirty, unpinned, evictable.
    rig.renamer.commitInst(*rig.writers.front());
    rig.renamer.validate();
    const PhysRegIndex p = rig.renamer.regState().findVictim(false);
    ASSERT_NE(p, invalidPhysReg);
    const_cast<PhysState &>(rig.renamer.regState()[p]).dirty = false;
    try {
        rig.renamer.validate();
        FAIL() << "validate() missed the drift";
    } catch (const PanicError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("register " + std::to_string(p)),
                  std::string::npos) << what;
        EXPECT_NE(what.find("clean evictable 0 kept, 1 recounted"),
                  std::string::npos) << what;
    }
}

} // namespace

// ---------------------------------------------------------------------
// Dead-value hints (the paper's future-work extension)
// ---------------------------------------------------------------------

namespace deadhints {

double
spillsWithHints(bool hints, double *ipcOut)
{
    using namespace vca;
    const auto &prof = wload::profileByName("perlbmk_535");
    const isa::Program *prog = wload::cachedProgram(prof, true);
    cpu::CpuParams params =
        cpu::CpuParams::preset(cpu::RenamerKind::Vca, 112);
    params.vcaDeadValueHints = hints;
    cpu::OooCpu cpu(params, {prog});
    cpu.run(10'000, 2'000'000);
    cpu.resetStats();
    auto res = cpu.run(60'000, 6'000'000);
    if (ipcOut)
        *ipcOut = res.ipc;
    cpu.renamer().validate();
    const auto *s = dynamic_cast<const stats::Scalar *>(
        static_cast<const stats::StatGroup &>(cpu).find("spills"));
    return s ? s->value() : -1.0;
}

} // namespace deadhints

TEST(DeadValueHints, ReducesSpillsWithoutChangingResults)
{
    double ipcOff = 0, ipcOn = 0;
    const double spillsOff = deadhints::spillsWithHints(false, &ipcOff);
    const double spillsOn = deadhints::spillsWithHints(true, &ipcOn);
    ASSERT_GE(spillsOff, 0.0);
    EXPECT_LT(spillsOn, spillsOff)
        << "dead frames must stop being written back";
    EXPECT_GE(ipcOn, ipcOff * 0.99) << "hints must not hurt";
}

TEST(DeadValueHints, CosimStillExact)
{
    using namespace vca;
    const auto &prof = wload::profileByName("crafty");
    const isa::Program *prog = wload::cachedProgram(prof, true);
    cpu::CpuParams params =
        cpu::CpuParams::preset(cpu::RenamerKind::Vca, 96);
    params.vcaDeadValueHints = true;
    cpu::OooCpu cpu(params, {prog});
    mem::SparseMemory refMem;
    func::FuncSim ref(*prog, refMem);
    bool mismatch = false;
    cpu.addCommitListener([&](const cpu::DynInst &inst) {
        func::StepRecord rec;
        ref.step(rec);
        mismatch = mismatch || rec.pc != inst.pc ||
                   (inst.si->hasDest && !inst.si->isCall &&
                    rec.destValue != inst.result);
    });
    cpu.run(40'000, 4'000'000);
    EXPECT_FALSE(mismatch);
    cpu.renamer().validate();
}
