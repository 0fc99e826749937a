/**
 * @file
 * Execution-driven out-of-order superscalar CPU with SMT.
 *
 * The pipeline models paper Table 1: 4-wide fetch/rename/issue/commit,
 * a 128-entry instruction queue, 192-entry reorder buffer, 8-cycle
 * fetch-to-execute depth (9 with VCA's extra rename stage), hybrid
 * branch prediction with a return-address stack, ICOUNT SMT fetch, a
 * per-thread load/store queue with store-to-load forwarding and
 * conservative memory disambiguation, and a 2-port L1 data cache shared
 * by loads, stores, and the renamer's spill/fill traffic.
 *
 * Values flow through the physical register file (execute-at-execute,
 * M5 O3 style), so wrong-path instructions really execute and pollute
 * the caches - the misspeculation effects visible in the paper's
 * Figure 5 - while stores update architectural memory only at commit.
 */

#ifndef VCA_CPU_OOO_CPU_HH
#define VCA_CPU_OOO_CPU_HH

#include <functional>
#include <memory>
#include <vector>

#include "bpred/bpred.hh"
#include "cpu/dyn_inst.hh"
#include "cpu/params.hh"
#include "cpu/phys_regfile.hh"
#include "cpu/renamer.hh"
#include "isa/program.hh"
#include "mem/cache.hh"
#include "mem/sparse_memory.hh"
#include "sim/event_queue.hh"
#include "sim/ring_buffer.hh"
#include "sim/rng.hh"
#include "stats/statistics.hh"

namespace vca::cpu {

/** Results of a measurement interval. */
struct RunResult
{
    Cycle cycles = 0;
    InstCount totalInsts = 0;
    std::vector<InstCount> threadInsts;
    double dcacheAccesses = 0;
    double ipc = 0;
};

/**
 * One hierarchical cycle-taxonomy tree (top-down style): five
 * categories with renamer-specific leaves, each leaf a Scalar. The
 * twelve leaves partition whatever cycle stream is attributed into the
 * tree — the machine-level tree partitions `cpu.cycles` exactly, and
 * so does each per-hardware-thread tree (see CycleTaxonomy).
 *
 *   retiring                      >=1 instruction retired
 *   idle                          thread finished (per-thread trees)
 *   frontend_bound/{icache,fetch} ROB empty, front end filling
 *   bad_speculation/{recovery}    ROB empty, mispredict-recovery walk
 *   backend_core/{exec,rename_freelist}
 *   backend_memory/{dcache,store_drain,fill_latency,spill_stall,
 *                   window_trap}
 */
class TaxonomyBuckets : public stats::StatGroup
{
  public:
    TaxonomyBuckets(const std::string &name, stats::StatGroup *parent);

    /** Leaf identifiers in a fixed order (probe/export order). */
    enum class Leaf : unsigned
    {
        Retiring,
        Idle,
        Icache,
        Fetch,
        Recovery,
        Exec,
        RenameFreeList,
        Dcache,
        StoreDrain,
        FillLatency,
        SpillStall,
        WindowTrap,
        NumLeaves
    };
    static constexpr unsigned numLeaves =
        static_cast<unsigned>(Leaf::NumLeaves);

    /** Dotted leaf name relative to this tree, e.g.
     *  "backend_memory.dcache". */
    static const char *leafName(Leaf leaf);

    void
    add(Leaf leaf, double cycles = 1)
    {
        *leaves_[static_cast<unsigned>(leaf)] += cycles;
    }

    double
    leafValue(Leaf leaf) const
    {
        return leaves_[static_cast<unsigned>(leaf)]->value();
    }

    /** Sum over all leaves (== attributed cycles). */
    double leafSum() const;

    // Category subgroups (declared before the scalars they parent).
    stats::StatGroup frontendBound;
    stats::StatGroup badSpeculation;
    stats::StatGroup backendCore;
    stats::StatGroup backendMemory;

    stats::Scalar retiring;
    stats::Scalar idle;
    stats::Scalar icache;         ///< frontend_bound.icache
    stats::Scalar fetch;          ///< frontend_bound.fetch
    stats::Scalar recovery;       ///< bad_speculation.recovery
    stats::Scalar exec;           ///< backend_core.exec
    stats::Scalar renameFreeList; ///< backend_core.rename_freelist
    stats::Scalar dcache;         ///< backend_memory.dcache
    stats::Scalar storeDrain;     ///< backend_memory.store_drain
    stats::Scalar fillLatency;    ///< backend_memory.fill_latency
    stats::Scalar spillStall;     ///< backend_memory.spill_stall
    stats::Scalar windowTrap;     ///< backend_memory.window_trap

  private:
    stats::Scalar *leaves_[numLeaves];
};

/**
 * The full taxonomy subtree under cpu.cycle_accounting: one
 * machine-level tree (the group's own leaves) plus one "threadN"
 * subtree per hardware thread. Every simulated cycle adds exactly one
 * machine-level leaf and exactly one leaf per thread tree, so each
 * tree independently partitions `cpu.cycles`.
 */
class CycleTaxonomy : public TaxonomyBuckets
{
  public:
    CycleTaxonomy(unsigned numThreads, stats::StatGroup *parent);

    TaxonomyBuckets &thread(unsigned t) { return *perThread_.at(t); }
    const TaxonomyBuckets &
    thread(unsigned t) const
    {
        return *perThread_.at(t);
    }
    unsigned
    numThreads() const
    {
        return static_cast<unsigned>(perThread_.size());
    }

  private:
    std::vector<std::unique_ptr<TaxonomyBuckets>> perThread_;
};

/**
 * Commit-stall attribution: every simulated cycle lands in exactly one
 * bucket, so the buckets sum to `cpu.cycles`. Attribution is
 * commit-centric (gem5's methodology): a cycle that retires nothing is
 * blamed on whatever the oldest unretired instruction is waiting for,
 * or — with an empty ROB — on why the front end is not delivering.
 *
 * The machine-level `taxonomy` leaves are the only per-cycle
 * classification; the six flat buckets are Formulas over them
 * (DESIGN.md "Hierarchical cycle attribution"):
 *   commit_active   == taxonomy.retiring
 *   frontend        == icache + fetch
 *   window_shift    == recovery + window_trap
 *   exec_stall      == exec + fill_latency
 *   mem_stall       == dcache + store_drain
 *   rename_freelist == spill_stall + rename_freelist (leaf)
 */
class CycleAccounting : public stats::StatGroup
{
  public:
    CycleAccounting(stats::StatGroup *parent, unsigned numThreads);

    /** The flat buckets, in registration order. */
    enum class Bucket : unsigned
    {
        Commit,
        Mem,
        Exec,
        Rename,
        Window,
        Frontend,
        NumBuckets
    };
    static constexpr unsigned numBuckets =
        static_cast<unsigned>(Bucket::NumBuckets);

    /** The flat bucket a leaf refines; NumBuckets for Idle, which
     *  only the per-thread trees use. */
    static Bucket bucketOf(TaxonomyBuckets::Leaf leaf);

    /** Short bucket names in Bucket order: the keys of
     *  Measurement::cycleBreakdown. */
    static constexpr const char *bucketNames[numBuckets] = {
        "commit", "mem", "exec", "rename", "window", "frontend"};

    stats::Formula commitActive;   ///< >=1 instruction retired
    stats::Formula memStall;       ///< ROB head is an unfinished mem op
    stats::Formula execStall;      ///< ROB head unfinished, non-memory
    stats::Formula renameFreeList; ///< ROB empty, renamer refused
    stats::Formula windowShift;    ///< ROB empty, trap/recovery stall
    stats::Formula frontendStall;  ///< ROB empty, fetch/decode filling
    CycleTaxonomy taxonomy;        ///< the per-cycle classification

  private:
    /** Machine-level cycles in a bucket: the sum of its leaves. */
    double bucketCycles(Bucket bucket) const;
};

/**
 * Cycle budget for a run of `insts` instructions per thread: 200
 * cycles per instruction plus 100k cycles of slack, saturating at the
 * largest Cycle instead of wrapping.
 */
constexpr Cycle
cycleBudget(InstCount insts)
{
    constexpr Cycle perInst = 200;
    constexpr Cycle slack = 100'000;
    return insts > (neverCycle - slack) / perInst
               ? neverCycle
               : insts * perInst + slack;
}

/**
 * Test-only: turn idle-cycle skipping in OooCpu::run off (or back on)
 * for every core in the process, so a test can compare a run with its
 * tick-by-tick reference. Not a simulator option.
 */
void setIdleSkippingForTest(bool enabled);

class OooCpu : public stats::StatGroup
{
  public:
    /**
     * Build a core running one program per hardware thread.
     * @param programs one finalized program per thread (size sets the
     *                 thread count; must match params.numThreads)
     */
    OooCpu(const CpuParams &params,
           std::vector<const isa::Program *> programs,
           stats::StatGroup *parent = nullptr);
    ~OooCpu() override;

    /**
     * Run until every thread commits maxInstsPerThread (or halts), one
     * thread commits that many (stopOnFirstThread), or maxCycles pass
     * (0 = no limit). Quiescent spans are skipped in one step with
     * byte-identical statistics (DESIGN.md §5, "Idle-cycle skipping").
     */
    RunResult run(InstCount maxInstsPerThread,
                  Cycle maxCycles = 0,
                  bool stopOnFirstThread = false);

    /** Advance one cycle (exposed for fine-grained tests). */
    void tick();

    /**
     * Empty the core for another switch-in: every piece of transient
     * state (fetch queues, ROB, LQ/SQ, store buffer, IQ, event queues,
     * idle-skip records, the renamer, the cycle count, the RNG) goes
     * back to what construction builds, and every statistic is reset,
     * cache and predictor statistics included. In-flight instructions
     * are dropped, not squashed, so the predictor's histories and RAS
     * are left as they are. The caches drop their in-flight fills and
     * MRU line (Cache::drain) and keep their tags and LRU order; the
     * predictor keeps its tables. Thread memory images are left for
     * switchIn() to rewrite.
     */
    void drain();

    /**
     * Install functionally fast-forwarded state for one thread. Only
     * legal before the first simulated cycle of a new or drained core:
     * rewrites the thread's memory image to the functional one
     * (relocating register-space pages for renamers that give each
     * thread its own register region), redirects fetch, and hands the
     * register state to the renamer. Panics if any architectural
     * register afterwards disagrees with the functional golden model
     * (the transfer invariant).
     */
    void switchIn(ThreadId tid, const func::ArchState &state,
                  const mem::SparseMemory &funcMem);

    bool threadDone(ThreadId tid) const { return threads_.at(tid).done; }
    InstCount
    committedInsts(ThreadId tid) const
    {
        return threads_.at(tid).committed;
    }
    Cycle currentCycle() const { return now_; }

    /** Cycles run() skipped instead of ticking, over the core's life
     *  (a host statistic: host.sim_cycles_skipped). */
    Cycle skippedCycles() const { return skippedCycles_; }

    /**
     * The core's designated randomness source, seeded from
     * CpuParams::rngSeed. Every stochastic tie-break a component might
     * add must draw from here (never from shared or ambient state):
     * the sweep runner seeds it per point, which is what keeps
     * parallel sweeps bit-identical to serial ones.
     */
    Rng &rng() { return rng_; }

    Renamer &renamer() { return *renamer_; }
    mem::MemSystem &memSystem() { return memSys_; }
    bpred::BranchPredictor &branchPredictor() { return bpred_; }
    PhysRegFile &physRegs() { return regs_; }
    mem::SparseMemory &threadMemory(ThreadId tid);

    /**
     * Register a commit listener (called in commit order, in
     * registration order). Listeners compose: co-simulation checks,
     * the exec tracer, the pipeline tracer and interval statistics can
     * all observe the same run.
     */
    void addCommitListener(std::function<void(const DynInst &)> listener)
    {
        commitListeners_.push_back(std::move(listener));
    }

    /**
     * Rare pipeline events observable by telemetry listeners: window
     * overflow/underflow traps at commit and accepted spill/fill
     * transfer issues. Deliberately NOT per-instruction — emission
     * sites sit on cold paths and cost one empty() test when no
     * listener is registered (nothing at all when telemetry hooks are
     * compiled out).
     */
    struct SimEvent
    {
        enum class Kind
        {
            WindowOverflow,  ///< commit-time trap on a call
            WindowUnderflow, ///< commit-time trap on a return
            Spill,           ///< store transfer issued to the cache
            Fill,            ///< load transfer issued to the cache
        };
        Kind kind;
        ThreadId tid;
        Cycle cycle;
        Addr addr; ///< transfer address (0 for window traps)
    };

    void addSimEventListener(std::function<void(const SimEvent &)> listener)
    {
        simEventListeners_.push_back(std::move(listener));
    }

    // Statistics (public; benches read them).
    stats::Scalar numCycles;
    stats::Scalar committedTotal;
    stats::Scalar committedLoads;
    stats::Scalar committedStores;
    stats::Scalar fetchedInsts;
    stats::Scalar squashedInsts;
    stats::Scalar branchesCommitted;
    stats::Scalar mispredicts;
    stats::Scalar loadForwards;
    stats::Scalar fetchIcacheStalls;
    stats::Scalar renameStallCycles;
    stats::Scalar robFullStalls;
    stats::Scalar iqFullStalls;
    stats::Scalar lsqFullStalls;
    stats::Distribution robOccupancyDist;
    stats::Distribution iqOccupancyDist;
    stats::Formula committedTotalAlias; ///< "committedTotal" for tools
    CycleAccounting cycleAccounting;

  private:
    struct FetchEntry
    {
        DynInst *inst;
        Cycle readyAt;
    };

    /** Why a thread's rename is blocked (renameBlockedUntil). */
    enum class RenameBlock : std::uint8_t
    {
        None,
        Recovery, ///< mispredict-recovery commit-table walk
        Trap,     ///< window overflow/underflow trap handler
    };

    struct ThreadState
    {
        const isa::Program *program = nullptr;
        std::unique_ptr<mem::SparseMemory> memory;
        Addr fetchPc = 0;
        Cycle fetchReadyAt = 0;
        bool fetchHalted = false;
        bool done = false;
        InstCount committed = 0;
        // Fixed-capacity rings (sized from CpuParams in the ctor); the
        // pipeline's own occupancy checks keep them within bounds, so
        // fetch/commit/squash never touch the allocator.
        RingBuffer<FetchEntry> fetchQueue;
        RingBuffer<DynInst *> rob;
        RingBuffer<DynInst *> lq; ///< loads in program order
        RingBuffer<DynInst *> sq; ///< stores in program order
        Cycle renameBlockedUntil = 0;
        // Taxonomy breadcrumbs: written on the (cold) stall paths,
        // read only by the accountTaxonomy() pass.
        RenameBlock renameBlockReason = RenameBlock::None;
        Cycle icacheStallUntil = 0;
        bool renameRefused = false;
        Renamer::StallCause renameRefusedCause =
            Renamer::StallCause::FreeList;
    };

    struct StoreBufferEntry
    {
        Addr addr;
        ThreadId tid;
    };

    /** Why rename cannot take a fetch-queue head, in renameStage's
     *  check order; Ok means the head reaches the renamer. */
    enum class RenameGate : std::uint8_t
    {
        Ok,
        RobFull,
        IqFull,
        LsqFull,
    };

    // Pipeline stages (called in reverse order each tick).
    void processCompletions();
    void commitStage();
    void issueStage();
    void renameStage();
    void fetchStage();

    // Helpers.
    void accountTaxonomy(double committedThisCycle, double cycles = 1);
    TaxonomyBuckets::Leaf classifyHead(const DynInst *head) const;
    TaxonomyBuckets::Leaf classifyMachine(double committedThisCycle) const;
    TaxonomyBuckets::Leaf classifyThread(unsigned t) const;
    void executeInst(DynInst *inst);
    std::uint64_t readOperand(const DynInst *inst, unsigned s) const;
    void resolveControl(DynInst *inst);
    void scheduleCompletion(DynInst *inst, Cycle when);
    void completeInst(DynInst *inst);
    void wakeup(PhysRegIndex reg);
    void insertIq(DynInst *inst);
    bool loadReadyInLsq(DynInst *ld, DynInst **forwardFrom) const;
    void squashThread(ThreadId tid, std::uint64_t afterSeq);
    void releaseInst(DynInst *inst);
    unsigned robOccupancy() const;
    unsigned inflightCount(ThreadId tid) const;
    unsigned fuLimit(isa::FuClass fu) const;
    ThreadId pickFetchThread() const;
    bool canFetch(const ThreadState &ts, Cycle at) const;
    bool renameReady(const ThreadState &ts, Cycle at) const;
    RenameGate renameGate(const ThreadState &ts,
                          const DynInst &inst) const;

    // Idle-cycle skipping (DESIGN.md §5).
    /** One rename round-robin phase of a quiescent span: dry-run once,
     *  replayed for every cycle of the span in that phase. */
    struct IdleRenamePhase
    {
        struct Refusal
        {
            ThreadId tid;
            Renamer::StallCause cause;
            RefusalEffects fx;
        };
        std::vector<Refusal> refusals; ///< in round-robin order
        unsigned lsqFull = 0; ///< LQ/SQ-full stalls per cycle
        RenameGate stop = RenameGate::Ok; ///< a ROB/IQ stall ends it
    };
    bool idleSkipAllowed() const;
    bool quiescent() const;
    Cycle nextWakeCycle() const;
    bool dryRunRenamePhase(unsigned first, Cycle at,
                           IdleRenamePhase &phase);
    void skipQuiescentCycles(Cycle lastCycle);

    CpuParams params_;
    Rng rng_;
    std::vector<ThreadState> threads_;

    mem::MemSystem memSys_;
    bpred::BranchPredictor bpred_;
    PhysRegFile regs_;
    std::unique_ptr<Renamer> renamer_;
    InstPool pool_;

    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 1;
    unsigned frontendDelay_ = 0; ///< decodeDelay + renamer extra stages
    unsigned robCount_ = 0; ///< sum of per-thread ROB sizes, maintained
                            ///< incrementally (robOccupancy() reads it)
    Cycle skippedCycles_ = 0; ///< see skippedCycles()

    // Instruction queue: ready list plus per-register waiter lists.
    // Entries carry the sequence number at insertion so records that
    // outlive a squash (the pool recycles DynInsts) are ignored.
    std::vector<std::pair<DynInst *, std::uint64_t>> readyList_;
    std::vector<std::pair<DynInst *, std::uint64_t>> readyScratch_;
    std::vector<std::pair<DynInst *, std::uint64_t>> mergeScratch_;
    size_t readySortedLen_ = 0; ///< sorted-prefix length of readyList_
    std::vector<std::vector<std::pair<DynInst *, std::uint64_t>>>
        waiters_;
    unsigned iqCount_ = 0;

    // Completion events: (inst, seq-at-schedule), calendar-indexed by
    // cycle. The ring horizon covers the deepest schedulable latency
    // (full cache-miss chain plus FU latency); anything longer falls
    // into the queue's overflow bucket.
    CalendarQueue<std::pair<DynInst *, std::uint64_t>> events_;
    // Transfer (spill/fill) completion events.
    CalendarQueue<TransferOp> transferEvents_;
    // Per-cycle pop scratch, reused to avoid allocation in tick().
    std::vector<std::pair<DynInst *, std::uint64_t>> completionScratch_;
    std::vector<TransferOp> transferScratch_;
    bool pendingTransferValid_ = false;
    TransferOp pendingTransfer_{}; ///< rejected by MSHRs; retry first

    RingBuffer<StoreBufferEntry> storeBuffer_;

    unsigned commitRR_ = 0; ///< commit round-robin cursor
    unsigned renameRR_ = 0; ///< rename round-robin cursor
    bool renamerRefusedThisCycle_ = false; ///< for stall attribution
    // Per-thread committed counts captured at the top of tick() so the
    // taxonomy pass sees this cycle's per-thread commit deltas.
    std::vector<InstCount> commitSnapshot_;
    // One per round-robin phase, reused by every skipped span.
    std::vector<IdleRenamePhase> idleRename_;

    std::vector<std::function<void(const DynInst &)>> commitListeners_;
    std::vector<std::function<void(const SimEvent &)>> simEventListeners_;

    void
    emitSimEvent(SimEvent::Kind kind, ThreadId tid, Addr addr)
    {
        if (simEventListeners_.empty())
            return;
        const SimEvent ev{kind, tid, now_, addr};
        for (const auto &listener : simEventListeners_)
            listener(ev);
    }
};

} // namespace vca::cpu

#endif // VCA_CPU_OOO_CPU_HH
