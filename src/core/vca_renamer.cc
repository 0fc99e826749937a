#include "core/vca_renamer.hh"

#include "isa/program.hh"
#include "sim/logging.hh"
#include "trace/debug_flags.hh"

namespace vca::core {

using cpu::DynInst;
using cpu::TransferOp;
using isa::RegClass;
namespace layout = isa::layout;

VcaRenamer::VcaRenamer(const cpu::CpuParams &params,
                       cpu::PhysRegFile &regs,
                       std::vector<mem::SparseMemory *> memories,
                       bool ideal, stats::StatGroup *parent)
    : fills(parent, "fills", "fill operations generated"),
      spills(parent, "spills", "spill operations generated"),
      tableMisses(parent, "table_misses", "rename table source misses"),
      tableHits(parent, "table_hits", "rename table source hits"),
      stallsNoFreeReg(parent, "stalls_no_free_reg",
                      "rename stalls: no free/evictable register"),
      stallsTableConflict(parent, "stalls_table_conflict",
                          "rename stalls: rename-table set conflict"),
      stallsPorts(parent, "stalls_ports",
                  "rename stalls: rename ports exhausted"),
      stallsAstq(parent, "stalls_astq", "rename stalls: ASTQ limits"),
      stallsRsid(parent, "stalls_rsid",
                 "rename stalls: RSID flush blocked by pinned regs"),
      overwriteFrees(parent, "overwrite_frees",
                     "registers freed by overwrite (no spill needed)"),
      deadValueHints(parent, "dead_value_hints",
                     "registers marked dead by returning frames"),
      params_(params), regs_(regs), memories_(std::move(memories)),
      ideal_(ideal),
      table_(ideal ? 0 : params.vcaTableSets,
             ideal ? 0 : params.vcaTableAssoc),
      rsid_(params.rsidEntries, params.rsidOffsetBits, parent),
      astq_(params.astqEntries, params.astqWritesPerCycle, parent),
      regState_(params.physRegs),
      refusalCounters_{&tableHits,      &tableMisses,
                       &stallsNoFreeReg, &stallsTableConflict,
                       &stallsPorts,    &stallsAstq,
                       &stallsRsid,     &astq_.fullStalls,
                       &astq_.writeLimitStalls, &rsid_.hits}
{
    threads_.resize(params.numThreads);
    for (unsigned t = 0; t < params.numThreads; ++t) {
        threads_[t].gbp = layout::globalBasePointer(t);
        threads_[t].wbp = layout::initialWindowPointer(t);
    }
}

void
VcaRenamer::drain()
{
    table_ = RenameTable(table_.sets(), table_.assoc());
    rsid_.reset();
    astq_.clear();
    regState_ = RegStateArray(params_.physRegs);
    for (unsigned t = 0; t < threads_.size(); ++t) {
        threads_[t].gbp = layout::globalBasePointer(t);
        threads_[t].wbp = layout::initialWindowPointer(t);
    }
    cycleReadAddrs_.clear();
    portsUsed_ = 0;
    lastStall_ = StallCause::FreeList;
    dryRun_ = DryRun::Off;
}

void
VcaRenamer::setThreadContext(ThreadId tid, bool windowedAbi)
{
    threads_.at(tid).windowedAbi = windowedAbi;
}

Addr
VcaRenamer::regAddress(ThreadId tid, RegClass cls, RegIndex idx) const
{
    const ThreadCtx &ctx = threads_[tid];
    if (!ctx.windowedAbi)
        return ctx.gbp + Addr(isa::flatIndex(cls, idx)) * 8;
    if (isa::isWindowed(cls, idx))
        return ctx.wbp + Addr(isa::windowSlot(cls, idx)) * 8;
    return ctx.gbp + Addr(isa::globalSlot(cls, idx)) * 8;
}

mem::SparseMemory &
VcaRenamer::memoryFor(Addr addr, ThreadId tid)
{
    (void)tid;
    return *memories_.at(layout::regSpaceThread(addr));
}

void
VcaRenamer::beginCycle(Cycle now)
{
    (void)now;
    cycleReadAddrs_.clear();
    portsUsed_ = 0;
    astq_.beginCycle();
    VCA_TELEMETRY_PROBE(probe_, onCycle(now));
}

void
VcaRenamer::addEntryRsidRef(const TableEntry *entry)
{
    if (!ideal_)
        rsid_.addRef(entry->rsid);
}

void
VcaRenamer::dropEntryRsidRef(const TableEntry *entry)
{
    if (!ideal_)
        rsid_.dropRef(entry->rsid);
}

void
VcaRenamer::freePhys(PhysRegIndex reg)
{
    const PhysState &s = regState_[reg];
    if (s.pinned())
        panic("freeing pinned physical register %d (refCount %u)",
              int(reg), s.refCount);
    if (s.fillPending)
        panic("freeing physical register %d with a fill in flight",
              int(reg));
    regState_.pushFree(reg);
}

bool
VcaRenamer::stopsDryRun()
{
    if (dryRun_ == DryRun::Off)
        return false;
    dryRun_ = DryRun::Impure;
    return true;
}

bool
VcaRenamer::enqueueSpill(PhysRegIndex reg)
{
    const PhysState &s = regState_[reg];
    if (!s.committed)
        panic("spilling uncommitted register %d", int(reg));
    // The committed value can no longer change, so it is captured into
    // backing memory at enqueue time; the ASTQ op carries the timing
    // (cache access through a spare port).
    memoryFor(s.addr, 0).write(s.addr, regs_.read(reg));
    regState_.edit(reg)->dirty = false;
    ++spills;
    VCA_TELEMETRY_PROBE(probe_, onSpill(s.addr));
    DPRINTF(VcaCache, "spill p%d -> addr 0x%llx", int(reg),
            (unsigned long long)s.addr);
    if (!ideal_) {
        astq_.enqueue({true, s.addr, invalidPhysReg,
                       static_cast<ThreadId>(
                           layout::regSpaceThread(s.addr))});
    }
    return true;
}

bool
VcaRenamer::flushRsid(int rsidVictim)
{
    // All entries tagged with the victim RSID must be evictable.
    bool blocked = false;
    std::vector<TableEntry *> toEvict;
    table_.forEach([&](TableEntry &e) {
        if (e.rsid != rsidVictim)
            return;
        const bool evictable = e.front == e.commit &&
                               e.front != invalidPhysReg &&
                               regState_[e.front].evictable();
        if (!evictable)
            blocked = true;
        else
            toEvict.push_back(&e);
    });
    if (blocked)
        return false;
    for (TableEntry *e : toEvict) {
        const PhysState &s = regState_[e->front];
        if (s.dirty) {
            // RSID flushes are rare (stats confirm); their spills bypass
            // the ASTQ capacity check but still drain through ports.
            memoryFor(s.addr, 0).write(s.addr, regs_.read(e->front));
            regState_.edit(e->front)->dirty = false;
            ++spills;
            VCA_TELEMETRY_PROBE(probe_, onSpill(s.addr));
            if (!ideal_) {
                astq_.enqueueForce(
                    {true, s.addr, invalidPhysReg,
                     static_cast<ThreadId>(
                         layout::regSpaceThread(s.addr))});
            }
        }
        rsid_.dropRef(e->rsid);
        freePhys(e->front);
        table_.invalidate(e);
    }
    return true;
}

TableEntry *
VcaRenamer::getEntry(Addr addr, bool &stalled)
{
    if (TableEntry *e = table_.lookup(addr))
        return e;

    int rsid = 0;
    if (!ideal_) {
        rsid = rsid_.lookup(addr);
        if (rsid == RsidTable::noRsid) {
            // An allocation outlives a refusal, and a blocked flush
            // depends on the RSIDs' LRU order: neither is replayed.
            if (stopsDryRun()) {
                stalled = true;
                return nullptr;
            }
            rsid = rsid_.allocate(addr);
            if (rsid == RsidTable::noRsid) {
                const int victim = rsid_.victim();
                if (victim < 0 || !flushRsid(victim)) {
                    ++stallsRsid;
                    lastStall_ = StallCause::FreeList;
                    DPRINTF(VcaRename,
                            "stall: RSID flush blocked (addr 0x%llx)",
                            (unsigned long long)addr);
                    stalled = true;
                    return nullptr;
                }
                DPRINTF(VcaRename, "RSID %d flushed for addr 0x%llx",
                        victim, (unsigned long long)addr);
                rsid_.invalidate(victim);
                rsid = rsid_.allocate(addr);
                if (rsid == RsidTable::noRsid)
                    panic("RSID allocation failed after flush");
            }
        }
    }

    if (TableEntry *way = table_.freeWay(addr)) {
        table_.install(way, addr, rsid);
        addEntryRsidRef(way);
        return way;
    }

    // Evict a way: prefer clean LRU victims; dirty ones need a spill.
    const bool canSpill = astq_.canEnqueue(1);
    TableEntry *choice = nullptr;
    TableEntry *dirtyChoice = nullptr;
    for (TableEntry *cand : table_.waysByLru(addr)) {
        if (cand->front != cand->commit ||
            cand->front == invalidPhysReg ||
            !regState_[cand->front].evictable()) {
            continue;
        }
        if (!regState_[cand->front].dirty) {
            choice = cand;
            break;
        }
        if (!dirtyChoice)
            dirtyChoice = cand;
    }
    if (!choice && dirtyChoice && canSpill)
        choice = dirtyChoice;
    if (!choice) {
        if (dirtyChoice && !canSpill) {
            astq_.noteRejected(1);
            ++stallsAstq;
            lastStall_ = StallCause::TransferBackpressure;
            DPRINTF(VcaRename,
                    "stall: ASTQ full, dirty victim for addr 0x%llx",
                    (unsigned long long)addr);
        } else {
            ++stallsTableConflict;
            lastStall_ = StallCause::FreeList;
            DPRINTF(VcaRename,
                    "stall: table set conflict for addr 0x%llx",
                    (unsigned long long)addr);
        }
        stalled = true;
        return nullptr;
    }
    if (stopsDryRun()) {
        stalled = true;
        return nullptr;
    }

    DPRINTF(VcaRename, "evict table entry addr 0x%llx (%s) for 0x%llx",
            (unsigned long long)choice->addr,
            regState_[choice->front].dirty ? "dirty" : "clean",
            (unsigned long long)addr);
    if (regState_[choice->front].dirty)
        enqueueSpill(choice->front);
    dropEntryRsidRef(choice);
    freePhys(choice->front);
    // Reuse the way in place.
    table_.install(choice, addr, rsid);
    addEntryRsidRef(choice);
    return choice;
}

PhysRegIndex
VcaRenamer::allocPhys(bool &stalled)
{
    if (regState_.hasFree())
        return regState_.popFree();

    const bool canSpill = ideal_ || astq_.canEnqueue(1);
    const PhysRegIndex victim = regState_.findVictim(!canSpill);
    if (victim == invalidPhysReg) {
        if (!canSpill) {
            astq_.noteRejected(1);
            ++stallsAstq;
            lastStall_ = StallCause::TransferBackpressure;
            DPRINTF(VcaRename, "stall: ASTQ full, no clean victim reg");
        } else {
            ++stallsNoFreeReg;
            lastStall_ = StallCause::FreeList;
            DPRINTF(VcaRename, "stall: no free/evictable register");
        }
        stalled = true;
        return invalidPhysReg;
    }
    if (stopsDryRun()) {
        stalled = true;
        return invalidPhysReg;
    }

    const PhysState &s = regState_[victim];
    TableEntry *entry = table_.lookup(s.addr);
    if (!entry)
        panic("victim register %d has no rename-table entry", int(victim));

    DPRINTF(VcaRename, "reclaim p%d (addr 0x%llx, %s)", int(victim),
            (unsigned long long)s.addr, s.dirty ? "dirty" : "clean");

    if (s.dirty)
        enqueueSpill(victim);

    if (entry->front == victim && entry->commit == victim) {
        dropEntryRsidRef(entry);
        table_.invalidate(entry);
    } else if (entry->commit == victim) {
        // The committed value is replaced while a speculative producer
        // is in flight; the spill above preserved the value in memory.
        entry->commit = invalidPhysReg;
    } else {
        panic("victim register %d in inconsistent table state",
              int(victim));
    }
    regState_.edit(victim)->clear();
    return victim;
}

bool
VcaRenamer::rename(DynInst &inst, Cycle now)
{
    (void)now;
    const isa::StaticInst &si = *inst.si;
    ThreadCtx &ctx = threads_[inst.tid];
    const Addr frame = layout::windowFrameBytes;

    // Stage 1: address generation (base pointer + register index).
    const bool shiftsWindow = ctx.windowedAbi &&
                              (si.isCall || si.isRet);
    Addr srcAddr[2] = {invalidAddr, invalidAddr};
    for (unsigned s = 0; s < si.numSrcs; ++s) {
        if (si.srcValid[s])
            srcAddr[s] = regAddress(inst.tid, si.src[s].cls,
                                    si.src[s].idx);
    }
    Addr destAddr = invalidAddr;
    if (si.hasDest) {
        if (si.isCall && ctx.windowedAbi) {
            // ra is written in the callee's (new) window.
            ctx.wbp -= frame;
            destAddr = regAddress(inst.tid, si.dest.cls, si.dest.idx);
            ctx.wbp += frame;
        } else {
            destAddr = regAddress(inst.tid, si.dest.cls, si.dest.idx);
        }
    }

    // Rename-port accounting (reads of the same address combine).
    if (!ideal_) {
        unsigned needed = si.hasDest ? 1 : 0;
        for (unsigned s = 0; s < si.numSrcs; ++s) {
            if (srcAddr[s] == invalidAddr)
                continue;
            bool seen = srcAddr[s] == (s == 1 ? srcAddr[0] : invalidAddr);
            for (Addr a : cycleReadAddrs_)
                seen = seen || a == srcAddr[s];
            if (!seen)
                ++needed;
        }
        if (portsUsed_ + needed > params_.vcaRenamePorts) {
            ++stallsPorts;
            lastStall_ = StallCause::FreeList;
            return false;
        }
    }

    // Stage 2: table lookups, transactionally. At most one pin per
    // source operand needs rolling back, so a fixed array avoids a
    // heap allocation on every rename.
    PhysRegIndex refBumped[2];
    unsigned numRefBumped = 0;
    TableEntry *createdEmptyEntry = nullptr;
    auto rollback = [&]() {
        for (unsigned i = 0; i < numRefBumped; ++i) {
            auto s = regState_.edit(refBumped[i]);
            if (s->refCount == 0)
                panic("rename rollback refcount underflow");
            --s->refCount;
        }
        if (createdEmptyEntry) {
            dropEntryRsidRef(createdEmptyEntry);
            table_.invalidate(createdEmptyEntry);
        }
    };

    for (unsigned s = 0; s < si.numSrcs; ++s) {
        if (srcAddr[s] == invalidAddr)
            continue;
        TableEntry *entry = table_.lookup(srcAddr[s]);
        PhysRegIndex phys = invalidPhysReg;
        if (entry) {
            ++tableHits;
            VCA_TELEMETRY_PROBE(probe_, onAccess(srcAddr[s]));
            phys = entry->front;
            if (phys == invalidPhysReg)
                panic("valid rename-table entry with no front register");
            DPRINTFT(VcaRename, inst.tid,
                     "src hit addr 0x%llx -> p%d",
                     (unsigned long long)srcAddr[s], int(phys));
        } else {
            ++tableMisses;
            DPRINTFT(VcaRename, inst.tid, "src miss addr 0x%llx",
                     (unsigned long long)srcAddr[s]);
            // Fill path.
            if (!ideal_ && !astq_.canEnqueue(1)) {
                astq_.noteRejected(1);
                ++stallsAstq;
                lastStall_ = StallCause::TransferBackpressure;
                rollback();
                return false;
            }
            bool stalled = false;
            entry = getEntry(srcAddr[s], stalled);
            if (!entry) {
                rollback();
                return false;
            }
            phys = allocPhys(stalled);
            if (phys == invalidPhysReg) {
                // The freshly installed entry would dangle: remove it.
                dropEntryRsidRef(entry);
                table_.invalidate(entry);
                rollback();
                return false;
            }
            const bool astqFull = !ideal_ && !astq_.canEnqueue(1);
            if (astqFull || stopsDryRun()) {
                // Evictions inside getEntry/allocPhys consumed the ASTQ
                // slot this fill was going to use (or a dry run reached
                // the fill): undo and stall.
                regState_.pushFree(phys);
                dropEntryRsidRef(entry);
                table_.invalidate(entry);
                if (astqFull) {
                    astq_.noteRejected(1);
                    ++stallsAstq;
                    lastStall_ = StallCause::TransferBackpressure;
                }
                rollback();
                return false;
            }
            auto ps = regState_.edit(phys);
            ps->addr = srcAddr[s];
            ps->committed = true;
            ps->dirty = false;
            entry->front = phys;
            entry->commit = phys;
            ++fills;
            VCA_TELEMETRY_PROBE(probe_, onFill(srcAddr[s]));
            DPRINTFT(VcaCache, inst.tid, "fill p%d <- addr 0x%llx",
                     int(phys), (unsigned long long)srcAddr[s]);
            if (ideal_) {
                regs_.write(phys,
                            memoryFor(srcAddr[s], inst.tid)
                                .read(srcAddr[s]));
                regs_.setReady(phys, true);
            } else {
                ps->fillPending = true;
                ps->refCount += 1; // fill's own hold until completion
                regs_.setReady(phys, false);
                astq_.enqueue({false, srcAddr[s], phys, inst.tid});
            }
        }
        regState_.edit(phys)->refCount += 1; // consumer pin
        refBumped[numRefBumped++] = phys;
        regState_.touch(phys);
        inst.srcPhys[s] = phys;
        inst.srcAddr[s] = srcAddr[s];
        if (!ideal_) {
            bool seen = false;
            for (Addr a : cycleReadAddrs_)
                seen = seen || a == srcAddr[s];
            if (!seen) {
                cycleReadAddrs_.push_back(srcAddr[s]);
                ++portsUsed_;
            }
        }
    }

    if (!si.hasDest && stopsDryRun()) {
        rollback();
        return false;
    }

    if (si.hasDest) {
        // Allocate the register BEFORE resolving the table entry:
        // replacement inside allocPhys may evict the destination's own
        // current mapping (it is unpinned if no consumer holds it), and
        // an entry pointer taken earlier would dangle.
        bool stalled = false;
        const PhysRegIndex phys = allocPhys(stalled);
        if (phys == invalidPhysReg) {
            rollback();
            return false;
        }
        TableEntry *entry = table_.lookup(destAddr);
        if (!entry) {
            entry = getEntry(destAddr, stalled);
            if (!entry) {
                regState_.pushFree(phys);
                rollback();
                return false;
            }
            createdEmptyEntry = entry;
        }
        if (stopsDryRun()) {
            regState_.pushFree(phys);
            rollback();
            return false;
        }
        if (createdEmptyEntry)
            inst.vcaCreatedEntry = true;

        inst.destAddr = destAddr;
        inst.destPhys = phys;
        inst.vcaPrevFront = entry->front;

        ++entry->specProducers;
        if (entry->commit != invalidPhysReg) {
            regState_.edit(entry->commit)->overwriters =
                entry->specProducers;
        }

        {
            auto ps = regState_.edit(phys);
            ps->addr = destAddr;
            ps->refCount = 1; // destination hold until commit
            ps->committed = false;
            ps->dirty = false;
        }
        regState_.touch(phys);
        regs_.setReady(phys, false);
        entry->front = phys;
        VCA_TELEMETRY_PROBE(probe_, onAccess(destAddr));
        if (!ideal_)
            ++portsUsed_;
    }

    // Window base pointer update (speculative; undone on squash).
    if (shiftsWindow) {
        inst.prevWbp = ctx.wbp;
        ctx.wbp += si.isCall ? -frame : frame;
    }

    inst.renamed = true;
    return true;
}

bool
VcaRenamer::dryRunRefusal(DynInst &inst, cpu::RefusalEffects &fx)
{
    // The dry run is rename() itself: stopsDryRun() ends it before any
    // step a refusal cannot undo, the clocks log the LRU touches
    // instead of stamping, and the counters it bumps are put back here.
    // Refusal decisions never read an LRU stamp, so a logged refusal
    // repeats unchanged in every cycle of its round-robin phase.
    fx.clear();
    std::array<double, numRefusalCounters> before;
    for (size_t i = 0; i < before.size(); ++i)
        before[i] = refusalCounters_[i]->value();
    LruClock *const clocks[] = {&table_.clock(), &regState_.clock(),
                                &rsid_.clock()};
    for (LruClock *c : clocks)
        c->dryRun(&fx.stamps);
    dryRun_ = DryRun::Pure;
    if (rename(inst, 0))
        panic("dry-run rename renamed seq %llu",
              (unsigned long long)inst.seq);
    const bool pure = dryRun_ == DryRun::Pure;
    dryRun_ = DryRun::Off;
    for (LruClock *c : clocks)
        c->dryRun(nullptr);
    for (size_t i = 0; i < before.size(); ++i) {
        stats::Scalar &counter = *refusalCounters_[i];
        if (pure && counter.value() != before[i])
            fx.count(counter, counter.value() - before[i]);
        counter = before[i];
    }
    return pure;
}

cpu::CommitAction
VcaRenamer::commitInst(DynInst &inst)
{
    const isa::StaticInst &si = *inst.si;
    for (unsigned s = 0; s < si.numSrcs; ++s) {
        if (inst.srcPhys[s] == invalidPhysReg)
            continue;
        {
            auto ps = regState_.edit(inst.srcPhys[s]);
            if (ps->refCount == 0)
                panic("source refcount underflow at commit");
            --ps->refCount;
        }
        regState_.touch(inst.srcPhys[s]);
    }

    if (si.hasDest) {
        TableEntry *entry = table_.lookup(inst.destAddr);
        if (!entry)
            panic("committing destination with no rename-table entry");
        if (entry->specProducers == 0)
            panic("producer count underflow at commit");
        --entry->specProducers;
        const PhysRegIndex old = entry->commit;
        if (old != invalidPhysReg) {
            const PhysState &os = regState_[old];
            if (os.fillPending) {
                // The old value is overwritten while an orphaned fill
                // (its consumers were squashed) is still bringing it
                // in. Only the fill's own hold may remain: detach the
                // register and free it when the fill completes.
                if (os.refCount != 1)
                    panic("overwritten fill-pending register has "
                          "consumer pins");
                regState_.edit(old)->zombie = true;
            } else {
                if (os.pinned())
                    panic("overwritten committed register still pinned");
                // Overwrite-free: the old committed value dies without
                // a spill, even if dirty (Figure 2's "overwrite" arc).
                ++overwriteFrees;
                freePhys(old);
            }
        }
        entry->commit = inst.destPhys;
        {
            auto ps = regState_.edit(inst.destPhys);
            if (ps->refCount == 0)
                panic("destination hold refcount underflow");
            --ps->refCount;
            ps->committed = true;
            ps->dirty = true;
            ps->overwriters = entry->specProducers;
        }
        regState_.touch(inst.destPhys);
    }

    if (params_.vcaDeadValueHints && si.isRet &&
        threads_[inst.tid].windowedAbi &&
        inst.srcAddr[0] != invalidAddr) {
        // ra occupies window slot 0, so its address is the departing
        // frame's base; everything in that frame is dead after the
        // return commits.
        applyDeadFrameHint(inst.srcAddr[0]);
    }
    return {};
}

void
VcaRenamer::applyDeadFrameHint(Addr frameBase)
{
    const Addr frameEnd = frameBase + layout::windowFrameBytes;
    table_.forEach([&](TableEntry &e) {
        if (e.addr < frameBase || e.addr >= frameEnd)
            return;
        if (e.front != e.commit || e.front == invalidPhysReg)
            return; // a speculative producer is in flight: leave it
        auto s = regState_.edit(e.front);
        if (!s->committed || s->fillPending)
            return;
        if (s->dirty) {
            s->dirty = false; // dead: never write it back
            ++deadValueHints;
        }
        s->lru = 0; // preferred victim
    });
}

void
VcaRenamer::squashInst(DynInst &inst)
{
    const isa::StaticInst &si = *inst.si;
    for (unsigned s = 0; s < si.numSrcs; ++s) {
        if (inst.srcPhys[s] == invalidPhysReg)
            continue;
        auto ps = regState_.edit(inst.srcPhys[s]);
        if (ps->refCount == 0)
            panic("source refcount underflow at squash");
        --ps->refCount;
    }

    if (si.hasDest && inst.destPhys != invalidPhysReg) {
        TableEntry *entry = table_.lookup(inst.destAddr);
        if (!entry)
            panic("squashing destination with no rename-table entry");
        if (entry->specProducers == 0)
            panic("producer count underflow at squash");
        --entry->specProducers;
        if (entry->commit != invalidPhysReg) {
            regState_.edit(entry->commit)->overwriters =
                entry->specProducers;
        }
        if (entry->front != inst.destPhys)
            panic("squash undo out of order: front is not this dest");
        const PhysRegIndex pf = inst.vcaPrevFront;
        if (pf != invalidPhysReg &&
            regState_[pf].addr == inst.destAddr) {
            entry->front = pf;
        } else if (entry->commit != invalidPhysReg) {
            entry->front = entry->commit;
        } else {
            dropEntryRsidRef(entry);
            table_.invalidate(entry);
        }
        {
            auto ps = regState_.edit(inst.destPhys);
            if (ps->refCount == 0)
                panic("destination hold underflow at squash");
            --ps->refCount;
        }
        freePhys(inst.destPhys);
    }

    if (inst.prevWbp != invalidAddr)
        threads_[inst.tid].wbp = inst.prevWbp;
}

unsigned
VcaRenamer::recoveryCycles(unsigned instsBeforeBranch) const
{
    if (ideal_ || params_.vcaCheckpointRecovery)
        return 0;
    return (instsBeforeBranch + params_.recoveryWalkWidth - 1) /
           params_.recoveryWalkWidth;
}

unsigned
VcaRenamer::extraFrontendCycles() const
{
    return ideal_ ? 0 : 1;
}

TransferOp
VcaRenamer::popTransferOp()
{
    return astq_.pop();
}

void
VcaRenamer::transferDone(const TransferOp &op)
{
    if (op.isStore)
        return; // spill value was captured at enqueue
    if (op.reg == invalidPhysReg)
        panic("fill completion without a target register");
    bool zombie = false;
    {
        auto ps = regState_.edit(op.reg);
        if (!ps->fillPending)
            panic("fill completion for register %d with no pending fill",
                  int(op.reg));
        ps->fillPending = false;
        if (ps->refCount == 0)
            panic("fill hold refcount underflow");
        --ps->refCount;
        zombie = ps->zombie;
    }
    if (zombie) {
        // Orphaned fill whose value was overwritten while in flight.
        ++overwriteFrees;
        freePhys(op.reg);
        return;
    }
    regs_.write(op.reg, memoryFor(op.addr, op.tid).read(op.addr));
    regs_.setReady(op.reg, true);
}

void
VcaRenamer::validate() const
{
    auto &self = const_cast<VcaRenamer &>(*this);
    std::vector<int> owners(regState_.numRegs(), 0);
    self.table_.forEach([&](TableEntry &e) {
        if (e.front == invalidPhysReg)
            panic("valid entry with invalid front register");
        if (regState_[e.front].addr != e.addr)
            panic("front register address mismatch");
        ++owners[e.front];
        if (e.commit != invalidPhysReg && e.commit != e.front) {
            if (regState_[e.commit].addr != e.addr)
                panic("commit register address mismatch");
            if (!regState_[e.commit].committed)
                panic("commit register not marked committed");
            ++owners[e.commit];
        }
    });
    for (unsigned p = 0; p < regState_.numRegs(); ++p) {
        const PhysState &s = regState_[PhysRegIndex(p)];
        if (s.free()) {
            if (owners[p] != 0)
                panic("free register %u referenced by the table", p);
            continue;
        }
        if (owners[p] > 1)
            panic("mapped register %u has %d table references", p,
                  owners[p]);
        if (s.zombie) {
            if (owners[p] != 0 || !s.fillPending)
                panic("zombie register %u in invalid state", p);
            continue;
        }
        if (s.committed && owners[p] != 1)
            panic("committed register %u not referenced by the table", p);
        if (!s.committed && !s.pinned()) {
            // Intermediate speculative producers (older in-flight
            // writes overtaken by newer ones) have no table reference
            // but must stay pinned by their destination hold.
            panic("uncommitted register %u is unpinned", p);
        }
    }
    unsigned evictable = 0;
    unsigned clean = 0;
    for (unsigned p = 0; p < regState_.numRegs(); ++p) {
        const PhysState &s = regState_[PhysRegIndex(p)];
        if (s.evictable()) {
            ++evictable;
            clean += s.dirty ? 0 : 1;
        }
    }
    if (evictable != regState_.numEvictable() ||
        clean != regState_.numCleanEvictable()) {
        panic("victim counts drifted at register %d: evictable %u kept, "
              "%u recounted; clean evictable %u kept, %u recounted",
              int(regState_.misclassified()), regState_.numEvictable(),
              evictable, regState_.numCleanEvictable(), clean);
    }
}

void
VcaRenamer::switchIn(ThreadId tid, const func::ArchState &state)
{
    // Pre-run only: the rename table is empty, so every architectural
    // value can live at its logical-register memory address and the
    // first use of each register simply misses and fills from there.
    ThreadCtx &ctx = threads_.at(tid);
    if (ctx.windowedAbi != state.windowedAbi)
        panic("switch-in ABI mismatch (renamer %d, state %d)",
              int(ctx.windowedAbi), int(state.windowedAbi));

    if (ctx.windowedAbi) {
        ctx.wbp = layout::initialWindowPointer(tid) -
                  Addr(state.callDepth) * layout::windowFrameBytes;
    }

    // Windowed registers already arrived with the relocated memory
    // image (the functional core keeps them in memory); globals and
    // flat-ABI registers live in the functional core's register arrays
    // and must be materialized here.
    for (unsigned f = 0; f < isa::numArchRegs; ++f) {
        const isa::ArchReg r = isa::fromFlatIndex(f);
        const std::uint64_t v = r.cls == RegClass::Int
            ? state.intRegs[r.idx] : state.fpRegs[r.idx];
        const Addr a = regAddress(tid, r.cls, r.idx);
        memoryFor(a, tid).write(a, v);
    }
}

std::uint64_t
VcaRenamer::readArchReg(ThreadId tid, RegClass cls, RegIndex idx)
{
    // Valid while the register cache holds no dirty committed state
    // (e.g. right after switchIn): memory is then authoritative.
    if (cls == RegClass::Int && idx == isa::regZero)
        return 0;
    const Addr a = regAddress(tid, cls, idx);
    return memoryFor(a, tid).read(a);
}

Addr
VcaRenamer::relocateRegSpace(ThreadId tid, Addr addr) const
{
    // The functional core always uses thread 0's register-space layout;
    // this renamer gives each thread a disjoint, page-aligned region.
    if (addr < layout::regSpaceBase)
        return addr;
    return addr + Addr(tid) * layout::threadRegionBytes;
}

} // namespace vca::core
