/**
 * @file
 * Processor configuration. Defaults reproduce paper Table 1:
 *
 *   Machine width       4
 *   Instruction queue   128
 *   Reorder buffer      192
 *   Pipeline depth      8 cycles fetch-to-exec (9 for VCA: Figure 1's
 *                       extra rename stage)
 *   DL1 ports           2 R/W
 *   DL1                 64K 4-way, 3-cycle hit
 *   IL1                 64K 4-way, 1-cycle hit
 *   L2                  1M 4-way, 15-cycle hit
 *   Memory              250 cycles
 *   Branch predictor    hybrid (bimodal + gshare + chooser)
 */

#ifndef VCA_CPU_PARAMS_HH
#define VCA_CPU_PARAMS_HH

#include <cstdint>

#include "bpred/bpred.hh"
#include "mem/cache.hh"

namespace vca::cpu {

/** Which register-management architecture the core uses. */
enum class RenamerKind
{
    Baseline,    ///< conventional rename, non-windowed binaries
    ConvWindow,  ///< conventional register windows (trap on over/underflow)
    IdealWindow, ///< idealized windows: free, instantaneous spill/fill
    Vca,         ///< the paper's virtual context architecture
};

const char *renamerKindName(RenamerKind kind);

struct CpuParams
{
    // Core (Table 1).
    unsigned width = 4;          ///< fetch/rename width
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;
    unsigned iqSize = 128;
    unsigned robSize = 192;
    unsigned decodeDelay = 3;    ///< cycles between fetch and rename
    unsigned physRegs = 256;     ///< merged int/FP physical register file
    unsigned numThreads = 1;
    RenamerKind renamer = RenamerKind::Baseline;

    // Load/store machinery (per thread).
    unsigned lqSize = 48;
    unsigned sqSize = 32;
    unsigned storeBufferSize = 32;

    // Functional units.
    unsigned fuIntAlu = 4;
    unsigned fuIntMul = 2;
    unsigned fuIntDiv = 1;
    unsigned fuFpAlu = 2;
    unsigned fuFpMul = 2;
    unsigned fuFpDiv = 1;

    // Data cache ports, shared by loads, stores, and spill/fill traffic.
    unsigned dcachePorts = 2;

    // Conventional register windows (Section 4.1): rename registers
    // that must remain after carving logical windows out of the
    // physical file, and the trap overhead.
    unsigned windowMinRenameRegs = 64;
    unsigned windowTrapCycles = 10;

    // VCA (Section 2.2 / 3): rename-table geometry, ports, ASTQ, RSIDs.
    unsigned vcaTableSets = 64;
    unsigned vcaTableAssoc = 3;      ///< 3/5/6 for 1/2/4 threads
    unsigned vcaRenamePorts = 8;     ///< vs 12 on the baseline
    unsigned astqEntries = 4;
    unsigned astqWritesPerCycle = 2;
    unsigned rsidEntries = 16;
    unsigned rsidOffsetBits = 16;    ///< register-space offset width
    unsigned recoveryWalkWidth = 8;  ///< commit-table rebuild rate
    bool vcaCheckpointRecovery = false; ///< ablation: checkpoint instead
                                        ///< of the P4-style ROB walk

    /**
     * The paper's future-work extension (Sections 5-6): when a return
     * commits, every register of the departing window frame is dead;
     * mark the cached copies clean (no spill on eviction) and make
     * them preferred victims. Requires the windowed ABI's guarantee
     * that fresh frames are written before they are read.
     */
    bool vcaDeadValueHints = false;

    /**
     * Seed for the core's tie-break RNG (see OooCpu::rng()). The
     * timing model itself is deterministic — all randomness lives in
     * the pre-seeded workloads — but any future stochastic component
     * must draw from that per-core generator, seeded here, so that
     * parallel sweep execution order can never leak into results.
     */
    std::uint64_t rngSeed = 0x9e3779b97f4a7c15ULL;

    mem::MemSystemParams memParams;
    bpred::BPredParams bpredParams;

    /** Associativity the paper uses for a given thread count. */
    static unsigned
    vcaAssocForThreads(unsigned threads)
    {
        if (threads <= 1)
            return 3;
        if (threads == 2)
            return 5;
        return 6;
    }

    /** Convenience preset: Table 1 baseline with a renamer choice. */
    static CpuParams
    preset(RenamerKind kind, unsigned physRegs, unsigned threads = 1)
    {
        CpuParams p;
        p.renamer = kind;
        p.physRegs = physRegs;
        p.numThreads = threads;
        p.vcaTableAssoc = vcaAssocForThreads(threads);
        return p;
    }
};

} // namespace vca::cpu

#endif // VCA_CPU_PARAMS_HH
