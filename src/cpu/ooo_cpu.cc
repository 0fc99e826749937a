#include "cpu/ooo_cpu.hh"

#include <algorithm>
#include <atomic>

#include "core/vca_renamer.hh"
#include "cpu/conv_renamer.hh"
#include "func/func_sim.hh"
#include "isa/inst.hh"
#include "isa/semantics.hh"
#include "sim/logging.hh"
#include "trace/debug_flags.hh"

namespace vca::cpu {

using isa::Opcode;
using isa::RegClass;
namespace layout = isa::layout;

const char *
renamerKindName(RenamerKind kind)
{
    switch (kind) {
      case RenamerKind::Baseline:    return "baseline";
      case RenamerKind::ConvWindow:  return "register window";
      case RenamerKind::IdealWindow: return "ideal";
      case RenamerKind::Vca:         return "vca";
    }
    return "?";
}

TaxonomyBuckets::TaxonomyBuckets(const std::string &name,
                                 stats::StatGroup *parent)
    : stats::StatGroup(name, parent),
      frontendBound("frontend_bound", this),
      badSpeculation("bad_speculation", this),
      backendCore("backend_core", this),
      backendMemory("backend_memory", this),
      retiring(this, "retiring",
               "cycles that retired at least one instruction"),
      idle(this, "idle",
           "cycles after the thread halted (per-thread trees only)"),
      icache(&frontendBound, "icache",
             "frontend-bound cycles: fetch waiting on an icache miss"),
      fetch(&frontendBound, "fetch",
            "frontend-bound cycles: fetch/decode pipeline filling"),
      recovery(&badSpeculation, "recovery",
               "cycles rename is blocked by the mispredict-recovery "
               "commit-table walk"),
      exec(&backendCore, "exec",
           "backend-core cycles: oldest instruction waiting on "
           "functional-unit latency or operands"),
      renameFreeList(&backendCore, "rename_freelist",
                     "backend-core cycles: renamer refused (free "
                     "list / table conflicts / ports)"),
      dcache(&backendMemory, "dcache",
             "backend-memory cycles: oldest instruction is an "
             "unfinished load/store"),
      storeDrain(&backendMemory, "store_drain",
                 "backend-memory cycles: completed store stuck "
                 "behind a full store buffer"),
      fillLatency(&backendMemory, "fill_latency",
                  "backend-memory cycles: oldest instruction waiting "
                  "on an in-flight register fill"),
      spillStall(&backendMemory, "spill_stall",
                 "backend-memory cycles: renamer refused on "
                 "spill/fill (ASTQ) backpressure"),
      windowTrap(&backendMemory, "window_trap",
                 "backend-memory cycles: rename blocked by a window "
                 "overflow/underflow trap or its transfer drain")
{
    leaves_[static_cast<unsigned>(Leaf::Retiring)] = &retiring;
    leaves_[static_cast<unsigned>(Leaf::Idle)] = &idle;
    leaves_[static_cast<unsigned>(Leaf::Icache)] = &icache;
    leaves_[static_cast<unsigned>(Leaf::Fetch)] = &fetch;
    leaves_[static_cast<unsigned>(Leaf::Recovery)] = &recovery;
    leaves_[static_cast<unsigned>(Leaf::Exec)] = &exec;
    leaves_[static_cast<unsigned>(Leaf::RenameFreeList)] =
        &renameFreeList;
    leaves_[static_cast<unsigned>(Leaf::Dcache)] = &dcache;
    leaves_[static_cast<unsigned>(Leaf::StoreDrain)] = &storeDrain;
    leaves_[static_cast<unsigned>(Leaf::FillLatency)] = &fillLatency;
    leaves_[static_cast<unsigned>(Leaf::SpillStall)] = &spillStall;
    leaves_[static_cast<unsigned>(Leaf::WindowTrap)] = &windowTrap;
}

const char *
TaxonomyBuckets::leafName(Leaf leaf)
{
    switch (leaf) {
      case Leaf::Retiring:       return "retiring";
      case Leaf::Idle:           return "idle";
      case Leaf::Icache:         return "frontend_bound.icache";
      case Leaf::Fetch:          return "frontend_bound.fetch";
      case Leaf::Recovery:       return "bad_speculation.recovery";
      case Leaf::Exec:           return "backend_core.exec";
      case Leaf::RenameFreeList:
        return "backend_core.rename_freelist";
      case Leaf::Dcache:         return "backend_memory.dcache";
      case Leaf::StoreDrain:     return "backend_memory.store_drain";
      case Leaf::FillLatency:    return "backend_memory.fill_latency";
      case Leaf::SpillStall:     return "backend_memory.spill_stall";
      case Leaf::WindowTrap:     return "backend_memory.window_trap";
      case Leaf::NumLeaves:      break;
    }
    return "?";
}

double
TaxonomyBuckets::leafSum() const
{
    double sum = 0;
    for (const stats::Scalar *leaf : leaves_)
        sum += leaf->value();
    return sum;
}

CycleTaxonomy::CycleTaxonomy(unsigned numThreads,
                             stats::StatGroup *parent)
    : TaxonomyBuckets("taxonomy", parent)
{
    for (unsigned t = 0; t < numThreads; ++t) {
        perThread_.push_back(std::make_unique<TaxonomyBuckets>(
            "thread" + std::to_string(t), this));
    }
}

CycleAccounting::CycleAccounting(stats::StatGroup *parent,
                                 unsigned numThreads)
    : stats::StatGroup("cycle_accounting", parent),
      commitActive(this, "commit_active",
                   "cycles that retired at least one instruction",
                   [this] { return bucketCycles(Bucket::Commit); }),
      memStall(this, "mem_stall",
               "stall cycles: oldest instruction is an unfinished "
               "load/store",
               [this] { return bucketCycles(Bucket::Mem); }),
      execStall(this, "exec_stall",
                "stall cycles: oldest instruction unfinished, "
                "non-memory",
                [this] { return bucketCycles(Bucket::Exec); }),
      renameFreeList(this, "rename_freelist",
                     "stall cycles: ROB empty, renamer refused "
                     "(free list / table conflicts / ports)",
                     [this] { return bucketCycles(Bucket::Rename); }),
      windowShift(this, "window_shift",
                  "stall cycles: ROB empty, rename blocked by a "
                  "window trap or mispredict recovery walk",
                  [this] { return bucketCycles(Bucket::Window); }),
      frontendStall(this, "frontend",
                    "stall cycles: ROB empty, front end still "
                    "fetching/decoding",
                    [this] { return bucketCycles(Bucket::Frontend); }),
      taxonomy(numThreads, this)
{
}

CycleAccounting::Bucket
CycleAccounting::bucketOf(TaxonomyBuckets::Leaf leaf)
{
    using Leaf = TaxonomyBuckets::Leaf;
    switch (leaf) {
      case Leaf::Retiring:       return Bucket::Commit;
      case Leaf::Icache:
      case Leaf::Fetch:          return Bucket::Frontend;
      case Leaf::Recovery:
      case Leaf::WindowTrap:     return Bucket::Window;
      case Leaf::Exec:
      case Leaf::FillLatency:    return Bucket::Exec;
      case Leaf::RenameFreeList:
      case Leaf::SpillStall:     return Bucket::Rename;
      case Leaf::Dcache:
      case Leaf::StoreDrain:     return Bucket::Mem;
      case Leaf::Idle:
      case Leaf::NumLeaves:      break;
    }
    return Bucket::NumBuckets;
}

double
CycleAccounting::bucketCycles(Bucket bucket) const
{
    double sum = 0;
    for (unsigned l = 0; l < TaxonomyBuckets::numLeaves; ++l) {
        const auto leaf = static_cast<TaxonomyBuckets::Leaf>(l);
        if (bucketOf(leaf) == bucket)
            sum += taxonomy.leafValue(leaf);
    }
    return sum;
}

OooCpu::OooCpu(const CpuParams &params,
               std::vector<const isa::Program *> programs,
               stats::StatGroup *parent)
    : stats::StatGroup("cpu", parent),
      numCycles(this, "cycles", "simulated cycles"),
      committedTotal(this, "committed_insts", "committed instructions"),
      committedLoads(this, "committed_loads", "committed loads"),
      committedStores(this, "committed_stores", "committed stores"),
      fetchedInsts(this, "fetched_insts", "fetched instructions"),
      squashedInsts(this, "squashed_insts", "squashed instructions"),
      branchesCommitted(this, "branches", "committed cond. branches"),
      mispredicts(this, "mispredicts", "mispredicted control insts"),
      loadForwards(this, "load_forwards", "loads forwarded from SQ"),
      fetchIcacheStalls(this, "fetch_icache_stalls",
                        "fetch cycles lost to icache misses"),
      renameStallCycles(this, "rename_stall_cycles",
                        "cycles rename made no progress"),
      robFullStalls(this, "rob_full_stalls", "rename stalls: ROB full"),
      iqFullStalls(this, "iq_full_stalls", "rename stalls: IQ full"),
      lsqFullStalls(this, "lsq_full_stalls", "rename stalls: LSQ full"),
      robOccupancyDist(this, "rob_occupancy",
                       "ROB occupancy sampled per cycle", 0,
                       params.robSize + 1, 16),
      iqOccupancyDist(this, "iq_occupancy",
                      "IQ occupancy sampled per cycle", 0,
                      params.iqSize + 1, 16),
      committedTotalAlias(this, "committedTotal",
                          "alias of committed_insts for tooling",
                          [this] { return committedTotal.value(); }),
      cycleAccounting(this, params.numThreads),
      params_(params),
      rng_(params.rngSeed),
      memSys_(params.memParams, this),
      bpred_(params.bpredParams, params.numThreads, this),
      regs_(params.physRegs)
{
    if (programs.size() != params_.numThreads)
        fatal("cpu: %zu programs for %u threads", programs.size(),
              params_.numThreads);

    threads_.resize(params_.numThreads);
    std::vector<mem::SparseMemory *> memories;
    for (unsigned t = 0; t < params_.numThreads; ++t) {
        ThreadState &ts = threads_[t];
        ts.program = programs[t];
        if (!ts.program->finalized())
            fatal("cpu: program '%s' not finalized",
                  ts.program->name.c_str());
        ts.memory = std::make_unique<mem::SparseMemory>();
        func::loadProgramData(*ts.program, *ts.memory);
        ts.fetchPc = ts.program->entry;
        memories.push_back(ts.memory.get());
    }

    switch (params_.renamer) {
      case RenamerKind::Baseline:
        renamer_ = std::make_unique<ConvRenamer>(params_, regs_,
                                                 isa::numArchRegs, this);
        break;
      case RenamerKind::ConvWindow:
        renamer_ = std::make_unique<WindowConvRenamer>(params_, regs_,
                                                       memories, this);
        break;
      case RenamerKind::IdealWindow:
        renamer_ = std::make_unique<core::VcaRenamer>(params_, regs_,
                                                      memories, true,
                                                      this);
        break;
      case RenamerKind::Vca:
        renamer_ = std::make_unique<core::VcaRenamer>(params_, regs_,
                                                      memories, false,
                                                      this);
        break;
    }

    for (unsigned t = 0; t < params_.numThreads; ++t) {
        renamer_->setThreadContext(static_cast<ThreadId>(t),
                                   threads_[t].program->windowedAbi);
    }

    frontendDelay_ = params_.decodeDelay + renamer_->extraFrontendCycles();
    waiters_.resize(params_.physRegs);

    // Pipeline queues: bounds come straight from the parameters the
    // pipeline already enforces before every push.
    for (ThreadState &ts : threads_) {
        ts.fetchQueue.reset(params_.width * (frontendDelay_ + 3));
        ts.rob.reset(params_.robSize);
        ts.lq.reset(params_.lqSize);
        ts.sq.reset(params_.sqSize);
    }
    storeBuffer_.reset(params_.storeBufferSize);

    // Calendar horizon: the deepest completion any single event can
    // schedule is a full miss chain (L1 + L2 + memory) plus the
    // longest FU latency and the +1 issue offset; pad for slack. The
    // overflow bucket keeps longer latencies correct regardless.
    const Cycle horizon = params_.memParams.dl1.hitLatency +
                          params_.memParams.l2.hitLatency +
                          params_.memParams.memLatency + 64;
    events_.reset(horizon);
    transferEvents_.reset(horizon);

    commitSnapshot_.resize(params_.numThreads, 0);
    idleRename_.resize(params_.numThreads);
    for (IdleRenamePhase &phase : idleRename_)
        phase.refusals.reserve(params_.numThreads);
}

OooCpu::~OooCpu() = default;

mem::SparseMemory &
OooCpu::threadMemory(ThreadId tid)
{
    return *threads_.at(tid).memory;
}

void
OooCpu::switchIn(ThreadId tid, const func::ArchState &state,
                 const mem::SparseMemory &funcMem)
{
    if (now_ != 0 || committedTotal.value() != 0)
        panic("switchIn is only legal before the first simulated cycle");
    ThreadState &ts = threads_.at(tid);
    if (state.windowedAbi != ts.program->windowedAbi)
        panic("switchIn ABI mismatch for thread %u", unsigned(tid));

    // Whole-page copy, zero words included: the functional run may
    // have overwritten an initialized word with zero, so a
    // value-filtered copy would leave stale state behind. Relocation
    // moves register space by whole pages, so each source page is one
    // destination page.
    ts.memory->clear();
    funcMem.forEachPage([&](Addr base, const std::uint64_t *words) {
        const Addr dst = renamer_->relocateRegSpace(tid, base);
        if (dst % mem::SparseMemory::pageBytes)
            panic("switchIn: relocated page 0x%llx is not page-aligned",
                  (unsigned long long)dst);
        ts.memory->writePage(dst, words);
    });

    ts.fetchPc = state.pc;
    renamer_->switchIn(tid, state);

    // Drain/transfer invariant: every architectural register the
    // detailed core would now read must match the functional golden
    // model, whatever structure the renamer keeps it in.
    for (unsigned f = 0; f < isa::numArchRegs; ++f) {
        const isa::ArchReg r = isa::fromFlatIndex(f);
        const std::uint64_t want = r.cls == isa::RegClass::Int
            ? state.intRegs[r.idx] : state.fpRegs[r.idx];
        const std::uint64_t got =
            renamer_->readArchReg(tid, r.cls, r.idx);
        if (got != want) {
            panic("switch-in invariant violated: tid %u %c%u is %llx, "
                  "functional model has %llx", unsigned(tid),
                  r.cls == isa::RegClass::Int ? 'r' : 'f',
                  unsigned(r.idx), (unsigned long long)got,
                  (unsigned long long)want);
        }
    }
}

unsigned
OooCpu::robOccupancy() const
{
    return robCount_;
}

unsigned
OooCpu::inflightCount(ThreadId tid) const
{
    const ThreadState &t = threads_.at(tid);
    return t.fetchQueue.size() + t.rob.size();
}

unsigned
OooCpu::fuLimit(isa::FuClass fu) const
{
    switch (fu) {
      case isa::FuClass::IntAlu:   return params_.fuIntAlu;
      case isa::FuClass::IntMul:   return params_.fuIntMul;
      case isa::FuClass::IntDiv:   return params_.fuIntDiv;
      case isa::FuClass::FpAlu:    return params_.fuFpAlu;
      case isa::FuClass::FpMul:    return params_.fuFpMul;
      case isa::FuClass::FpDiv:    return params_.fuFpDiv;
      case isa::FuClass::MemRead:  return params_.dcachePorts;
      case isa::FuClass::MemWrite: return params_.dcachePorts;
      case isa::FuClass::None:     return params_.issueWidth;
    }
    return 1;
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

std::uint64_t
OooCpu::readOperand(const DynInst *inst, unsigned s) const
{
    const isa::StaticInst &si = *inst->si;
    if (s >= si.numSrcs || !si.srcValid[s])
        return 0;
    return regs_.read(inst->srcPhys[s]);
}

namespace {

/** Nops, halts and direct jumps complete at rename, without the IQ. */
bool
needsIq(const DynInst &inst)
{
    return !inst.si->isNop && !inst.si->isHalt && !inst.si->isJump;
}

} // namespace

void
OooCpu::executeInst(DynInst *inst)
{
    const isa::StaticInst &si = *inst->si;
    const std::uint64_t a = readOperand(inst, 0);
    const std::uint64_t b = readOperand(inst, 1);
    std::uint64_t r = 0;

    switch (si.op) {
      case Opcode::Ld: case Opcode::Fld:
        inst->effAddr = (a + si.imm) & ~Addr(7);
        inst->effAddrValid = true;
        break;
      case Opcode::St: case Opcode::Fst:
        inst->effAddr = (a + si.imm) & ~Addr(7);
        inst->effAddrValid = true;
        inst->storeData = b;
        break;

      case Opcode::Beq: case Opcode::Bne:
      case Opcode::Blt: case Opcode::Bge: {
        const bool taken = isa::branchTaken(si.op, a, b);
        inst->actualTaken = taken;
        inst->actualNpc = taken ? inst->pc + 1 + si.imm : inst->pc + 1;
        break;
      }
      case Opcode::Call:
        r = inst->pc + 1; // ra
        inst->actualNpc = static_cast<Addr>(si.imm);
        break;
      case Opcode::Ret:
        inst->actualNpc = static_cast<Addr>(a);
        break;

      case Opcode::Jmp:
        inst->actualNpc = static_cast<Addr>(si.imm);
        break;
      case Opcode::Nop:
      case Opcode::Halt:
        break;
      default:
        r = isa::aluResult(si.op, a, b, si.imm);
        break;
    }
    inst->result = r;
}

void
OooCpu::scheduleCompletion(DynInst *inst, Cycle when)
{
    events_.schedule(when, {inst, inst->seq});
}

void
OooCpu::wakeup(PhysRegIndex reg)
{
    auto &list = waiters_[reg];
    for (auto &[inst, seq] : list) {
        if (inst->seq != seq || inst->squashed)
            continue;
        if (inst->iqSlot <= 0)
            panic("wakeup of instruction not waiting in IQ");
        --inst->iqSlot;
        if (inst->iqSlot == 0)
            readyList_.emplace_back(inst, inst->seq);
    }
    list.clear();
}

void
OooCpu::completeInst(DynInst *inst)
{
    if (inst->completed)
        return;
    inst->completed = true;
    inst->completeTick = now_;
    if (inst->si->hasDest) {
        regs_.write(inst->destPhys, inst->result);
        regs_.setReady(inst->destPhys, true);
        wakeup(inst->destPhys);
    }
    if (inst->isControl())
        resolveControl(inst);
}

void
OooCpu::resolveControl(DynInst *inst)
{
    if (inst->actualNpc == inst->predNpc)
        return;

    ++mispredicts;
    inst->mispredicted = true;
    const ThreadId tid = inst->tid;
    DPRINTFT(Squash, tid,
             "mispredict seq=%llu pc=%llu predNpc=%llu actualNpc=%llu",
             (unsigned long long)inst->seq,
             (unsigned long long)inst->pc,
             (unsigned long long)inst->predNpc,
             (unsigned long long)inst->actualNpc);

    // How far the branch sits from the ROB head determines the
    // commit-table walk length of the VCA recovery scheme.
    unsigned before = 0;
    for (const DynInst *d : threads_[tid].rob) {
        if (d->seq >= inst->seq)
            break;
        ++before;
    }

    squashThread(tid, inst->seq);

    // Repair speculative predictor state past the squash.
    if (inst->si->isBranch && inst->hasBpCkpt) {
        bpred_.repairHistory(tid, inst->bpCkpt, inst->actualTaken);
        ++bpred_.condMispredicts;
    } else if (inst->si->isRet && inst->hasBpCkpt) {
        bpred_.restore(tid, inst->bpCkpt);
        bpred::BPredCheckpoint scratch;
        bpred_.popRas(tid, scratch);
        ++bpred_.rasMispredicts;
    }

    ThreadState &ts = threads_[tid];
    ts.fetchPc = inst->actualNpc;
    ts.fetchReadyAt = std::max(ts.fetchReadyAt, now_ + 1);
    ts.fetchHalted = false;
    const unsigned recovery = renamer_->recoveryCycles(before);
    ts.renameBlockedUntil =
        std::max(ts.renameBlockedUntil, now_ + recovery);
    if (ts.renameBlockedUntil > now_)
        ts.renameBlockReason = RenameBlock::Recovery;
}

void
OooCpu::squashThread(ThreadId tid, std::uint64_t afterSeq)
{
    ThreadState &ts = threads_[tid];
    DPRINTFT(Squash, tid,
             "squash after seq=%llu (%zu frontend, %zu rob entries "
             "inspected)",
             (unsigned long long)afterSeq, ts.fetchQueue.size(),
             ts.rob.size());

    // Front-end entries are all younger than anything in the ROB:
    // undo their predictor effects youngest-first, then drop them.
    for (size_t i = ts.fetchQueue.size(); i-- > 0;) {
        DynInst *inst = ts.fetchQueue[i].inst;
        if (inst->hasBpCkpt)
            bpred_.restore(tid, inst->bpCkpt);
        inst->squashed = true;
        ++squashedInsts;
        releaseInst(inst);
    }
    ts.fetchQueue.clear();
    ts.fetchHalted = false;

    while (!ts.rob.empty() && ts.rob.back()->seq > afterSeq) {
        DynInst *inst = ts.rob.back();
        ts.rob.pop_back();
        --robCount_;
        if (inst->hasBpCkpt)
            bpred_.restore(tid, inst->bpCkpt);
        renamer_->squashInst(*inst);
        if (inst->iqSlot >= 0)
            --iqCount_;
        inst->squashed = true;
        ++squashedInsts;
        releaseInst(inst);
    }
    while (!ts.lq.empty() && ts.lq.back()->seq > afterSeq)
        ts.lq.pop_back();
    while (!ts.sq.empty() && ts.sq.back()->seq > afterSeq)
        ts.sq.pop_back();
}

void
OooCpu::releaseInst(DynInst *inst)
{
    pool_.release(inst);
}

// ---------------------------------------------------------------------
// Pipeline stages
// ---------------------------------------------------------------------

void
OooCpu::processCompletions()
{
    // Normal completions scheduled for this cycle, oldest first so a
    // mispredicting older branch squashes younger same-cycle events.
    completionScratch_.clear();
    events_.popAt(now_, completionScratch_);
    if (!completionScratch_.empty()) {
        const auto bySeq = [](const auto &x, const auto &y) {
            return x.second < y.second;
        };
        // Events usually pop already seq-ordered (issue order follows
        // seq order within a cycle); skip the sort when they do.
        if (!std::is_sorted(completionScratch_.begin(),
                            completionScratch_.end(), bySeq)) {
            std::sort(completionScratch_.begin(),
                      completionScratch_.end(), bySeq);
        }
        for (auto &[inst, seq] : completionScratch_) {
            if (inst->seq != seq || inst->squashed)
                continue;
            completeInst(inst);
        }
    }

    transferScratch_.clear();
    transferEvents_.popAt(now_, transferScratch_);
    for (const TransferOp &op : transferScratch_) {
        renamer_->transferDone(op);
        if (!op.isStore && op.reg != invalidPhysReg)
            wakeup(op.reg);
    }
}

void
OooCpu::commitStage()
{
    unsigned budget = params_.commitWidth;
    const unsigned nThreads = params_.numThreads;
    for (unsigned i = 0; i < nThreads && budget > 0; ++i) {
        const unsigned t = (commitRR_ + i) % nThreads;
        ThreadState &ts = threads_[t];
        while (budget > 0 && !ts.rob.empty()) {
            DynInst *inst = ts.rob.front();
            if (!inst->completed)
                break;

            if (inst->isStore()) {
                if (storeBuffer_.size() >= params_.storeBufferSize)
                    break;
                ts.memory->write(inst->effAddr, inst->storeData);
                storeBuffer_.push_back(
                    {inst->effAddr, static_cast<ThreadId>(t)});
                if (!ts.sq.empty() && ts.sq.front() == inst)
                    ts.sq.pop_front();
                ++committedStores;
            }
            if (inst->isLoad()) {
                if (!ts.lq.empty() && ts.lq.front() == inst)
                    ts.lq.pop_front();
                ++committedLoads;
            }

            const CommitAction action = renamer_->commitInst(*inst);

            if (inst->si->isBranch) {
                ++branchesCommitted;
                bpred_.update(static_cast<ThreadId>(t), inst->pc,
                              inst->actualTaken, inst->bpCkpt.history);
            }

            if (DTRACE(Commit)) {
                DPRINTFT(Commit, t, "commit seq=%llu pc=%llu %s%s",
                         (unsigned long long)inst->seq,
                         (unsigned long long)inst->pc,
                         isa::disassemble(*inst->si).c_str(),
                         inst->mispredicted ? " [mispredicted]" : "");
            }

            if (!commitListeners_.empty()) {
                for (const auto &listener : commitListeners_)
                    listener(*inst);
            }

            ts.rob.pop_front();
            --robCount_;
            ++ts.committed;
            ++committedTotal;
            --budget;

            const bool halted = inst->si->isHalt;
            const bool wasCall = inst->si->isCall;
            const std::uint64_t seq = inst->seq;
            // Trapping instructions are calls/returns: execution must
            // resume at their actual control-flow target.
            const Addr resumePc = inst->isControl() ? inst->actualNpc
                                                    : inst->pc + 1;
            releaseInst(inst);

            if (halted) {
                ts.done = true;
                squashThread(static_cast<ThreadId>(t), seq);
                break;
            }

            if (action.windowTrap) {
                emitSimEvent(wasCall ? SimEvent::Kind::WindowOverflow
                                     : SimEvent::Kind::WindowUnderflow,
                             static_cast<ThreadId>(t), 0);
                // Flush everything younger, run the handler, restart
                // fetch after the trapping call/return.
                squashThread(static_cast<ThreadId>(t), seq);
                renamer_->performTrap(static_cast<ThreadId>(t));
                ts.renameBlockedUntil = std::max(
                    ts.renameBlockedUntil, now_ + action.stallCycles);
                if (ts.renameBlockedUntil > now_)
                    ts.renameBlockReason = RenameBlock::Trap;
                ts.fetchPc = resumePc;
                ts.fetchReadyAt = std::max(ts.fetchReadyAt, now_ + 1);
                break;
            }
        }
    }
    commitRR_ = (commitRR_ + 1) % nThreads;
}

void
OooCpu::issueStage()
{
    unsigned issueBudget = params_.issueWidth;
    unsigned memPorts = params_.dcachePorts;
    unsigned fuUsed[9] = {};

    if (!readyList_.empty()) {
        // The leftovers from last cycle (prefix of readySortedLen_
        // entries) are already seq-sorted; only wakeups appended since
        // need sorting, then a merge if the two runs interleave. The
        // result is the same unique seq order a full sort produces.
        const auto bySeq = [](const auto &x, const auto &y) {
            return x.second < y.second;
        };
        if (readySortedLen_ < readyList_.size()) {
            const auto mid = readyList_.begin() +
                             static_cast<std::ptrdiff_t>(readySortedLen_);
            std::sort(mid, readyList_.end(), bySeq);
            if (mid != readyList_.begin() && bySeq(*mid, *(mid - 1))) {
                mergeScratch_.clear();
                std::merge(readyList_.begin(), mid, mid,
                           readyList_.end(),
                           std::back_inserter(mergeScratch_), bySeq);
                readyList_.swap(mergeScratch_);
            }
        }
        auto &remaining = readyScratch_;
        remaining.clear();

        for (auto it = readyList_.begin(); it != readyList_.end();
             ++it) {
            auto &[inst, seq] = *it;
            if (inst->seq != seq || inst->squashed || inst->issued)
                continue;
            if (issueBudget == 0) {
                // Nothing further can issue: keep the tail wholesale.
                // Stale records ride along and are filtered next cycle,
                // exactly as the per-entry scan would have done.
                remaining.insert(remaining.end(), it, readyList_.end());
                break;
            }
            const isa::FuClass fu = inst->si->fu;
            const auto fuIdx = static_cast<unsigned>(fu);
            if (fuUsed[fuIdx] >= fuLimit(fu)) {
                remaining.emplace_back(inst, seq);
                continue;
            }

            if (inst->isLoad()) {
                // Loads need a data-cache port and a disambiguated LSQ.
                if (memPorts == 0) {
                    remaining.emplace_back(inst, seq);
                    continue;
                }
                // Address generation; idempotent, so retries (LSQ not
                // disambiguated, port rejected) skip the recompute.
                if (!inst->effAddrValid)
                    executeInst(inst);
                DynInst *forwardFrom = nullptr;
                if (!loadReadyInLsq(inst, &forwardFrom)) {
                    remaining.emplace_back(inst, seq);
                    continue;
                }
                const Addr tagged = mem::MemSystem::threadTag(
                    inst->tid, inst->effAddr);
                const auto access =
                    memSys_.dataAccess(tagged, false, now_);
                if (!access.accepted) {
                    --memPorts; // the probe consumed a port
                    remaining.emplace_back(inst, seq);
                    continue;
                }
                Cycle latency = access.latency;
                std::uint64_t value;
                if (forwardFrom) {
                    ++loadForwards;
                    value = forwardFrom->storeData;
                    latency = params_.memParams.dl1.hitLatency;
                } else {
                    value =
                        threads_[inst->tid].memory->read(inst->effAddr);
                }
                inst->result = value;
                --memPorts;
                ++fuUsed[fuIdx];
                --issueBudget;
                inst->issued = true;
                inst->issueTick = now_;
                inst->iqSlot = -1;
                --iqCount_;
                DPRINTFT(Issue, inst->tid,
                         "issue load seq=%llu addr=0x%llx lat=%llu%s",
                         (unsigned long long)inst->seq,
                         (unsigned long long)inst->effAddr,
                         (unsigned long long)latency,
                         forwardFrom ? " [forwarded]" : "");
                scheduleCompletion(inst, now_ + 1 + latency);
                continue;
            }

            // Non-load: execute now, complete after the FU latency.
            executeInst(inst);
            ++fuUsed[fuIdx];
            --issueBudget;
            inst->issued = true;
            inst->issueTick = now_;
            inst->iqSlot = -1;
            --iqCount_;
            DPRINTFT(Issue, inst->tid, "issue seq=%llu pc=%llu fu=%u",
                     (unsigned long long)inst->seq,
                     (unsigned long long)inst->pc,
                     static_cast<unsigned>(inst->si->fu));
            scheduleCompletion(inst,
                               now_ + 1 + isa::fuLatency(inst->si->fu));
        }
        readyList_.swap(remaining);
    }
    // Everything still queued is in seq order; wakeups appended after
    // this point extend the unsorted suffix.
    readySortedLen_ = readyList_.size();

    // Committed stores drain through remaining ports.
    while (memPorts > 0 && !storeBuffer_.empty()) {
        const StoreBufferEntry &e = storeBuffer_.front();
        const auto access = memSys_.dataAccess(
            mem::MemSystem::threadTag(e.tid, e.addr), true, now_);
        if (!access.accepted)
            break;
        storeBuffer_.pop_front();
        --memPorts;
    }

    // Spill/fill (or window-trap) transfers get the leftover ports
    // ("the entry at the head of the ASTQ is issued to a free port").
    while (memPorts > 0 &&
           (pendingTransferValid_ || renamer_->hasTransferOp())) {
        TransferOp op = pendingTransferValid_ ? pendingTransfer_
                                              : renamer_->popTransferOp();
        pendingTransferValid_ = false;
        const auto access = memSys_.dataAccess(
            mem::MemSystem::threadTag(op.tid, op.addr), op.isStore,
            now_);
        if (!access.accepted) {
            pendingTransfer_ = op;
            pendingTransferValid_ = true;
            break;
        }
        --memPorts;
        transferEvents_.schedule(now_ + access.latency, op);
        emitSimEvent(op.isStore ? SimEvent::Kind::Spill
                                : SimEvent::Kind::Fill,
                     op.tid, op.addr);
    }
}

bool
OooCpu::loadReadyInLsq(DynInst *ld, DynInst **forwardFrom) const
{
    const ThreadState &ts = threads_[ld->tid];
    DynInst *candidate = nullptr;
    for (DynInst *st : ts.sq) {
        if (st->seq > ld->seq)
            break;
        if (!st->effAddrValid)
            return false; // conservative: wait for older store addrs
        if (st->effAddr == ld->effAddr)
            candidate = st; // youngest older match wins
    }
    *forwardFrom = candidate;
    return true;
}

void
OooCpu::insertIq(DynInst *inst)
{
    unsigned waiting = 0;
    for (unsigned s = 0; s < inst->si->numSrcs; ++s) {
        if (!inst->si->srcValid[s])
            continue;
        if (!regs_.isReady(inst->srcPhys[s])) {
            waiters_[inst->srcPhys[s]].emplace_back(inst, inst->seq);
            ++waiting;
        }
    }
    inst->iqSlot = static_cast<std::int32_t>(waiting);
    ++iqCount_;
    if (waiting == 0)
        readyList_.emplace_back(inst, inst->seq);
}

bool
OooCpu::renameReady(const ThreadState &ts, Cycle at) const
{
    return !ts.done && ts.renameBlockedUntil <= at &&
           !ts.fetchQueue.empty() && ts.fetchQueue.front().readyAt <= at;
}

OooCpu::RenameGate
OooCpu::renameGate(const ThreadState &ts, const DynInst &inst) const
{
    if (robOccupancy() >= params_.robSize)
        return RenameGate::RobFull;
    if (needsIq(inst) && iqCount_ >= params_.iqSize)
        return RenameGate::IqFull;
    if ((inst.isLoad() && ts.lq.size() >= params_.lqSize) ||
        (inst.isStore() && ts.sq.size() >= params_.sqSize)) {
        return RenameGate::LsqFull;
    }
    return RenameGate::Ok;
}

void
OooCpu::renameStage()
{
    renamerRefusedThisCycle_ = false;
    if (renamer_->transfersBlockRename()) {
        DPRINTF(Rename, "rename blocked: transfers draining");
        return;
    }

    renamer_->beginCycle(now_);

    // Rename bandwidth is shared: threads are visited round-robin and
    // a thread that stalls (fill/spill resources, table conflicts)
    // yields the remaining slots to the next thread instead of wasting
    // the cycle -- important under SMT, where one thread's register
    // pressure must not serialize the others.
    const unsigned nThreads = params_.numThreads;
    unsigned budget = params_.width;
    bool progress = false;

    for (unsigned i = 0; i < nThreads && budget > 0; ++i) {
        const unsigned t = (renameRR_ + i) % nThreads;
        ThreadState &ts = threads_[t];
        while (budget > 0 && renameReady(ts, now_)) {
            DynInst *inst = ts.fetchQueue.front().inst;

            const RenameGate gate = renameGate(ts, *inst);
            if (gate == RenameGate::RobFull) {
                ++robFullStalls;
                DPRINTFT(Rename, t, "stall: ROB full");
                budget = 0;
                break;
            }
            if (gate == RenameGate::IqFull) {
                ++iqFullStalls;
                DPRINTFT(Rename, t, "stall: IQ full");
                budget = 0;
                break;
            }
            if (gate == RenameGate::LsqFull) {
                ++lsqFullStalls;
                DPRINTFT(Rename, t, "stall: %s full",
                         inst->isLoad() ? "LQ" : "SQ");
                break;
            }

            if (!renamer_->rename(*inst, now_)) {
                // This thread stalls; try the next thread.
                renamerRefusedThisCycle_ = true;
                ts.renameRefused = true;
                ts.renameRefusedCause = renamer_->lastStallCause();
                DPRINTFT(Rename, t, "stall: renamer refused seq=%llu",
                         (unsigned long long)inst->seq);
                break;
            }

            inst->renameTick = now_;
            inst->dispatchTick = now_;
            inst->decodeTick = inst->fetchTick + params_.decodeDelay;
            DPRINTFT(Rename, t,
                     "rename seq=%llu pc=%llu dest p%d src p%d,p%d",
                     (unsigned long long)inst->seq,
                     (unsigned long long)inst->pc, inst->destPhys,
                     inst->srcPhys[0], inst->srcPhys[1]);
            ts.fetchQueue.pop_front();
            ts.rob.push_back(inst);
            ++robCount_;
            if (inst->isLoad())
                ts.lq.push_back(inst);
            if (inst->isStore())
                ts.sq.push_back(inst);

            if (needsIq(*inst)) {
                insertIq(inst);
            } else {
                // Nops, halts and direct jumps complete immediately.
                inst->actualNpc = inst->si->isJump
                    ? static_cast<Addr>(inst->si->imm) : inst->pc + 1;
                inst->completed = true;
                inst->issueTick = now_;
                inst->completeTick = now_;
            }
            --budget;
            progress = true;
        }
    }
    renameRR_ = (renameRR_ + 1) % nThreads;
    if (!progress)
        ++renameStallCycles;
}

bool
OooCpu::canFetch(const ThreadState &ts, Cycle at) const
{
    return !ts.done && !ts.fetchHalted && ts.fetchReadyAt <= at &&
           ts.fetchQueue.size() < params_.width * (frontendDelay_ + 2);
}

ThreadId
OooCpu::pickFetchThread() const
{
    int best = -1;
    unsigned bestCount = ~0u;
    for (unsigned t = 0; t < params_.numThreads; ++t) {
        const ThreadState &ts = threads_[t];
        if (!canFetch(ts, now_))
            continue;
        const unsigned count = inflightCount(static_cast<ThreadId>(t));
        if (count < bestCount) {
            bestCount = count;
            best = static_cast<int>(t);
        }
    }
    return best < 0 ? static_cast<ThreadId>(0xff)
                    : static_cast<ThreadId>(best);
}

void
OooCpu::fetchStage()
{
    const ThreadId tid = pickFetchThread();
    if (tid == 0xff)
        return;
    ThreadState &ts = threads_[tid];

    // One icache access per fetch cycle; a miss stalls this thread.
    const Addr lineAddr = layout::pcToAddr(ts.fetchPc);
    const auto access = memSys_.instAccess(
        mem::MemSystem::threadTag(tid, lineAddr), now_);
    if (!access.accepted) {
        DPRINTFT(Fetch, tid, "icache rejected pc=%llu (MSHRs full)",
                 (unsigned long long)ts.fetchPc);
        ts.fetchReadyAt = now_ + 1;
        return;
    }
    if (!access.hit) {
        DPRINTFT(Fetch, tid, "icache miss pc=%llu lat=%llu",
                 (unsigned long long)ts.fetchPc,
                 (unsigned long long)access.latency);
        ts.fetchReadyAt = now_ + access.latency;
        ts.icacheStallUntil = ts.fetchReadyAt;
        ++fetchIcacheStalls;
        return;
    }

    // il1.lineBytes is fatal-checked to be a power of two, so the
    // line-boundary test is a mask compare instead of two divisions.
    const Addr lineMask =
        ~static_cast<Addr>(params_.memParams.il1.lineBytes - 1);
    Addr pc = ts.fetchPc;
    for (unsigned i = 0; i < params_.width; ++i) {
        if (((layout::pcToAddr(pc) ^ lineAddr) & lineMask) != 0)
            break; // stop at the cache-line boundary

        const isa::StaticInst &si = ts.program->inst(pc);
        DynInst *inst = pool_.acquire();
        inst->si = &si;
        inst->pc = pc;
        inst->tid = tid;
        inst->seq = nextSeq_++;
        inst->fetchTick = now_;
        ++fetchedInsts;
        DPRINTFT(Fetch, tid, "fetch seq=%llu pc=%llu %s",
                 (unsigned long long)inst->seq,
                 (unsigned long long)pc,
                 isa::disassemble(si).c_str());

        Addr npc = pc + 1;
        if (si.isHalt) {
            ts.fetchHalted = true;
        } else if (si.isJump) {
            npc = static_cast<Addr>(si.imm);
        } else if (si.isCall) {
            bpred_.pushRas(tid, pc + 1, inst->bpCkpt);
            inst->hasBpCkpt = true;
            npc = static_cast<Addr>(si.imm);
        } else if (si.isRet) {
            npc = bpred_.popRas(tid, inst->bpCkpt);
            inst->hasBpCkpt = true;
        } else if (si.isBranch) {
            inst->predTaken = bpred_.predict(tid, pc, inst->bpCkpt);
            inst->hasBpCkpt = true;
            npc = inst->predTaken ? pc + 1 + si.imm : pc + 1;
        }
        inst->predNpc = npc;
        ts.fetchQueue.push_back({inst, now_ + frontendDelay_});

        pc = npc;
        if (si.isHalt)
            break;
        if (si.isControl() && npc != inst->pc + 1)
            break; // taken control flow: redirect next cycle
    }
    ts.fetchPc = pc;
}

/**
 * Refine a non-retiring ROB-head stall into a taxonomy leaf: a memory
 * stall (dcache, store_drain) or an execution stall (exec,
 * fill_latency) — DESIGN.md "Hierarchical cycle attribution".
 */
TaxonomyBuckets::Leaf
OooCpu::classifyHead(const DynInst *head) const
{
    using Leaf = TaxonomyBuckets::Leaf;
    // A completed head that didn't retire is a store stuck behind a
    // full store buffer (loads and ALU ops retire as soon as they
    // complete, given that commit bandwidth went unused this cycle).
    if (head->completed)
        return Leaf::StoreDrain;
    if (head->si->isMem())
        return Leaf::Dcache;
    // At the ROB head every older instruction has committed, so an
    // unready source of an unissued instruction can only be an
    // in-flight VCA register fill (non-VCA renamers always hand out
    // ready committed sources) — the fill-latency exposure of paper
    // Section 2.2.
    if (!head->issued) {
        for (unsigned s = 0; s < head->si->numSrcs; ++s) {
            if (head->si->srcValid[s] &&
                !regs_.isReady(head->srcPhys[s])) {
                return Leaf::FillLatency;
            }
        }
    }
    return Leaf::Exec;
}

/** Machine-level taxonomy leaf for this cycle: the oldest ROB head
 *  across threads or, with every ROB empty, why the front end is not
 *  delivering. The flat CycleAccounting buckets sum these leaves. */
TaxonomyBuckets::Leaf
OooCpu::classifyMachine(double committedThisCycle) const
{
    using Leaf = TaxonomyBuckets::Leaf;
    if (committedThisCycle > 0)
        return Leaf::Retiring;

    const DynInst *oldest = nullptr;
    for (const ThreadState &ts : threads_) {
        if (ts.rob.empty())
            continue;
        const DynInst *head = ts.rob.front();
        if (!oldest || head->seq < oldest->seq)
            oldest = head;
    }
    if (oldest)
        return classifyHead(oldest);

    bool trapBlocked = false;
    bool trapReason = false;
    for (const ThreadState &ts : threads_) {
        if (!ts.done && ts.renameBlockedUntil > now_) {
            trapBlocked = true;
            if (ts.renameBlockReason == RenameBlock::Trap)
                trapReason = true;
        }
    }
    const bool transferBlock = renamer_->transfersBlockRename();
    if (trapBlocked || transferBlock) {
        return (trapReason || transferBlock) ? Leaf::WindowTrap
                                             : Leaf::Recovery;
    }
    if (renamerRefusedThisCycle_) {
        return renamer_->lastStallCause() ==
                       Renamer::StallCause::TransferBackpressure
                   ? Leaf::SpillStall
                   : Leaf::RenameFreeList;
    }
    for (const ThreadState &ts : threads_) {
        if (!ts.done && ts.icacheStallUntil > now_)
            return Leaf::Icache;
    }
    return Leaf::Fetch;
}

/** Per-thread taxonomy leaf: the same rules applied to one thread's
 *  own ROB head / front-end state, plus the Idle leaf once done. */
TaxonomyBuckets::Leaf
OooCpu::classifyThread(unsigned t) const
{
    using Leaf = TaxonomyBuckets::Leaf;
    const ThreadState &ts = threads_[t];
    if (ts.committed > commitSnapshot_[t])
        return Leaf::Retiring;
    if (ts.done)
        return Leaf::Idle;
    if (!ts.rob.empty())
        return classifyHead(ts.rob.front());
    if (ts.renameBlockedUntil > now_) {
        return ts.renameBlockReason == RenameBlock::Trap
                   ? Leaf::WindowTrap
                   : Leaf::Recovery;
    }
    if (renamer_->transfersBlockRename())
        return Leaf::WindowTrap;
    if (ts.renameRefused) {
        return ts.renameRefusedCause ==
                       Renamer::StallCause::TransferBackpressure
                   ? Leaf::SpillStall
                   : Leaf::RenameFreeList;
    }
    if (ts.icacheStallUntil > now_)
        return Leaf::Icache;
    return Leaf::Fetch;
}

/**
 * Attribute this cycle (or `cycles` identical skipped ones): one
 * machine-level leaf and one leaf per hardware thread, so every tree
 * in cpu.cycle_accounting.taxonomy partitions cpu.cycles exactly. Runs
 * after every stage so rename-stall state from this cycle is visible.
 */
void
OooCpu::accountTaxonomy(double committedThisCycle, double cycles)
{
    CycleTaxonomy &tax = cycleAccounting.taxonomy;
    tax.add(classifyMachine(committedThisCycle), cycles);
    for (unsigned t = 0; t < params_.numThreads; ++t) {
        tax.thread(t).add(classifyThread(t), cycles);
        threads_[t].renameRefused = false;
    }
}

void
OooCpu::tick()
{
    ++now_;
    ++numCycles;
    trace::setTraceCycle(now_);
    robOccupancyDist.sample(static_cast<double>(robCount_));
    iqOccupancyDist.sample(static_cast<double>(iqCount_));
    const double committedBefore = committedTotal.value();
    for (unsigned t = 0; t < params_.numThreads; ++t)
        commitSnapshot_[t] = threads_[t].committed;
    processCompletions();
    commitStage();
    issueStage();
    renameStage();
    fetchStage();
    const double committedDelta =
        committedTotal.value() - committedBefore;
    accountTaxonomy(committedDelta);
}

namespace {

/** Process-wide switch behind setIdleSkippingForTest(). */
std::atomic<bool> idleSkipping{true};

} // namespace

void
setIdleSkippingForTest(bool enabled)
{
    idleSkipping.store(enabled, std::memory_order_relaxed);
}

/** Skipping stays off while something observes every cycle: a debug
 *  flag (DPRINTF stamps every stall cycle) or a register-cache probe
 *  (its onCycle samples occupancy every N cycles). */
bool
OooCpu::idleSkipAllowed() const
{
    return idleSkipping.load(std::memory_order_relaxed) &&
           !trace::anyFlagEnabled() && !renamer_->observesEveryCycle();
}

/**
 * Forward quiescence of the post-tick state: the next cycle drains no
 * store, issues no spill/fill transfer, commits, issues and fetches
 * nothing, so it touches no cache (and no MSHR can reject it). Rename
 * is left to the per-phase dry run in skipQuiescentCycles(); events
 * and time-triggered thread state bound the span through
 * nextWakeCycle().
 */
bool
OooCpu::quiescent() const
{
    if (!storeBuffer_.empty() || pendingTransferValid_ ||
        renamer_->hasTransferOp()) {
        return false;
    }
    for (const ThreadState &ts : threads_) {
        if (!ts.rob.empty() && ts.rob.front()->completed)
            return false;
        // Fetch serves one thread per cycle: a thread that missed in
        // the icache this cycle leaves the next cycle to another one.
        if (canFetch(ts, now_ + 1))
            return false;
    }
    // A live ready-list record issues, unless it is a load that has
    // its address and still waits on an older store's: that retry is
    // pure and repeats every cycle until the store issues.
    for (const auto &[inst, seq] : readyList_) {
        if (inst->seq != seq || inst->squashed || inst->issued)
            continue;
        DynInst *forwardFrom = nullptr;
        if (!inst->isLoad() || !inst->effAddrValid ||
            loadReadyInLsq(inst, &forwardFrom)) {
            return false;
        }
    }
    return true;
}

/** First cycle after now_ at which anything can change: a due
 *  completion or transfer event, or a live thread's fetch, rename or
 *  icache timer. neverCycle when nothing is pending. */
Cycle
OooCpu::nextWakeCycle() const
{
    Cycle wake = std::min(events_.nextDue(now_),
                          transferEvents_.nextDue(now_));
    const auto until = [&](Cycle c) {
        if (c > now_)
            wake = std::min(wake, c);
    };
    for (const ThreadState &ts : threads_) {
        if (ts.done)
            continue;
        until(ts.fetchReadyAt);
        until(ts.renameBlockedUntil);
        until(ts.icacheStallUntil);
        if (!ts.fetchQueue.empty())
            until(ts.fetchQueue.front().readyAt);
    }
    return wake;
}

/**
 * Dry-run renameStage() for one cycle of a quiescent span (`at` is any
 * one of them) whose round robin starts at thread `first`, recording
 * each thread's gate stall or replayable renamer refusal in `phase`.
 * Returns false when some thread would reach a rename that may succeed
 * or change state a refusal cannot undo: such a cycle is ticked.
 */
bool
OooCpu::dryRunRenamePhase(unsigned first, Cycle at, IdleRenamePhase &phase)
{
    phase.refusals.clear();
    phase.lsqFull = 0;
    phase.stop = RenameGate::Ok;
    renamer_->beginCycle(at);
    const unsigned nThreads = params_.numThreads;
    for (unsigned i = 0; i < nThreads; ++i) {
        const ThreadId tid = static_cast<ThreadId>((first + i) % nThreads);
        ThreadState &ts = threads_[tid];
        if (!renameReady(ts, at))
            continue;
        DynInst &inst = *ts.fetchQueue.front().inst;
        const RenameGate gate = renameGate(ts, inst);
        switch (gate) {
          case RenameGate::Ok: {
            IdleRenamePhase::Refusal &r = phase.refusals.emplace_back();
            r.tid = tid;
            if (!renamer_->dryRunRefusal(inst, r.fx))
                return false;
            r.cause = renamer_->lastStallCause();
            break;
          }
          case RenameGate::RobFull:
          case RenameGate::IqFull:
            phase.stop = gate;
            return true;
          case RenameGate::LsqFull:
            ++phase.lsqFull;
            break;
        }
    }
    return true;
}

/**
 * Idle-cycle skipping (DESIGN.md §5): when the post-tick state is
 * quiescent, advance now_ to one cycle before the wake cycle (or to
 * lastCycle, the run's budget) and replay the skipped cycles'
 * per-cycle effects in bulk, so every statistic ends exactly as if
 * each cycle had been ticked.
 */
void
OooCpu::skipQuiescentCycles(Cycle lastCycle)
{
    if (!quiescent())
        return;
    const Cycle wake = nextWakeCycle();
    if (wake == neverCycle && lastCycle == neverCycle)
        return; // nothing can ever change: tick on as before
    Cycle skip = std::min(wake - 1, lastCycle) - now_;
    // Rename's round-robin phase advances each cycle and decides
    // which stall counter a cycle bumps, which threads are refused, or
    // whether a head slips past a full IQ into the renamer: end the
    // span before the first phase that would rename.
    const unsigned nThreads = params_.numThreads;
    const bool renameRuns = !renamer_->transfersBlockRename();
    if (renameRuns) {
        for (unsigned p = 0; p < nThreads && p < skip; ++p) {
            if (!dryRunRenamePhase((renameRR_ + p) % nThreads, now_ + 1,
                                   idleRename_[p])) {
                skip = p;
                break;
            }
        }
    }
    if (skip == 0)
        return;

    now_ += skip;
    numCycles += double(skip);
    skippedCycles_ += skip;
    trace::setTraceCycle(now_);
    robOccupancyDist.sample(static_cast<double>(robCount_), skip);
    iqOccupancyDist.sample(static_cast<double>(iqCount_), skip);
    for (unsigned t = 0; t < nThreads; ++t)
        commitSnapshot_[t] = threads_[t].committed;
    commitRR_ = static_cast<unsigned>((commitRR_ + skip) % nThreads);

    // now_ is the span's last cycle. Classification is constant until
    // the wake cycle, except for the refusal flags each phase sets.
    if (!renameRuns) {
        renamerRefusedThisCycle_ = false;
        accountTaxonomy(0, double(skip));
        return;
    }
    renamer_->beginCycle(now_);
    renameStallCycles += double(skip);
    const unsigned phases =
        static_cast<unsigned>(std::min<Cycle>(nThreads, skip));
    const auto cyclesIn = [&](unsigned p) {
        return skip / nThreads + (p < skip % nThreads ? 1 : 0);
    };
    // The span's earlier cycles first, in bulk: counters grow by each
    // phase's cycle count and refusals take their LRU stamps unwritten
    // (the last rotation overwrites every field they would write)...
    for (unsigned p = 0; p < phases; ++p) {
        const IdleRenamePhase &phase = idleRename_[p];
        const Cycle cycles = cyclesIn(p);
        if (phase.stop == RenameGate::RobFull)
            robFullStalls += double(cycles);
        if (phase.stop == RenameGate::IqFull)
            iqFullStalls += double(cycles);
        lsqFullStalls += double(phase.lsqFull * cycles);
        for (const IdleRenamePhase::Refusal &r : phase.refusals)
            r.fx.repeat(cycles - 1);
    }
    // ...then its last rotation, phase by phase in cycle order, which
    // leaves every LRU field and stamp counter as ticking would.
    for (unsigned j = 0; j < phases; ++j) {
        const unsigned p =
            static_cast<unsigned>((skip - phases + j) % nThreads);
        renamerRefusedThisCycle_ = false;
        for (const IdleRenamePhase::Refusal &r : idleRename_[p].refusals) {
            r.fx.replay();
            renamerRefusedThisCycle_ = true;
            threads_[r.tid].renameRefused = true;
            threads_[r.tid].renameRefusedCause = r.cause;
        }
        accountTaxonomy(0, double(cyclesIn(p)));
    }
    renameRR_ = static_cast<unsigned>((renameRR_ + skip) % nThreads);
}

RunResult
OooCpu::run(InstCount maxInstsPerThread, Cycle maxCycles,
            bool stopOnFirstThread)
{
    std::vector<InstCount> startCounts(params_.numThreads);
    for (unsigned t = 0; t < params_.numThreads; ++t)
        startCounts[t] = threads_[t].committed;
    const Cycle startCycle = now_;
    const Cycle lastCycle =
        maxCycles == 0 || maxCycles > neverCycle - startCycle
            ? neverCycle
            : startCycle + maxCycles;
    const bool skipIdle = idleSkipAllowed();

    auto reached = [&](unsigned t) {
        return threads_[t].done ||
               threads_[t].committed - startCounts[t] >=
                   maxInstsPerThread;
    };

    for (;;) {
        if (now_ >= lastCycle)
            break;
        bool allDone = true;
        bool anyDone = false;
        for (unsigned t = 0; t < params_.numThreads; ++t) {
            if (reached(t))
                anyDone = true;
            else
                allDone = false;
        }
        if (allDone || (stopOnFirstThread && anyDone))
            break;
        if (skipIdle) {
            skipQuiescentCycles(lastCycle);
            if (now_ == lastCycle)
                break;
        }
        tick();
    }

    RunResult res;
    res.cycles = now_ - startCycle;
    res.threadInsts.resize(params_.numThreads);
    for (unsigned t = 0; t < params_.numThreads; ++t) {
        res.threadInsts[t] = threads_[t].committed - startCounts[t];
        res.totalInsts += res.threadInsts[t];
    }
    res.dcacheAccesses = memSys_.dcache().accesses.value();
    res.ipc = res.cycles
        ? static_cast<double>(res.totalInsts) / res.cycles : 0.0;
    return res;
}

} // namespace vca::cpu
