/**
 * @file
 * Branch prediction: a hybrid (tournament) direction predictor combining
 * a bimodal table and a gshare table via a chooser (the "Hybrid"
 * predictor of paper Table 1), plus a checkpointable return-address
 * stack for predicting RET targets.
 *
 * Direct branch/jump/call targets are taken from the decoded program
 * image (equivalent to a perfect BTB for direct control transfers; the
 * only indirect control transfer in VRISC-64 is RET, which the RAS
 * handles).
 *
 * The global history is updated speculatively at predict time; each
 * prediction returns a checkpoint that restore() uses to repair the
 * history and RAS after a squash.
 */

#ifndef VCA_BPRED_BPRED_HH
#define VCA_BPRED_BPRED_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hh"
#include "stats/statistics.hh"

namespace vca::bpred {

struct BPredParams
{
    unsigned bimodalBits = 13;  ///< log2 entries
    unsigned gshareBits = 13;
    unsigned chooserBits = 13;
    unsigned historyBits = 12;
    unsigned rasEntries = 16;
};

/** State needed to undo a speculative prediction. */
struct BPredCheckpoint
{
    std::uint64_t history = 0;
    unsigned rasTop = 0;
    Addr rasTopValue = 0;
};

class BranchPredictor : public stats::StatGroup
{
  public:
    BranchPredictor(const BPredParams &params, unsigned numThreads,
                    stats::StatGroup *parent);

    /**
     * Predict the direction of a conditional branch at pc and
     * speculatively update the history.
     */
    bool predict(ThreadId tid, Addr pc, BPredCheckpoint &ckpt);

    /** Record a call: push the return PC on the thread's RAS. */
    void pushRas(ThreadId tid, Addr returnPc, BPredCheckpoint &ckpt);

    /** Predict a RET target by popping the RAS. */
    Addr popRas(ThreadId tid, BPredCheckpoint &ckpt);

    /** Snapshot for non-branch control (call/ret) checkpointing. */
    BPredCheckpoint snapshot(ThreadId tid) const;

    /** Undo speculative state back to a checkpoint (on squash). */
    void restore(ThreadId tid, const BPredCheckpoint &ckpt);

    /**
     * Repair the global history after a mispredicted conditional
     * branch: restore to the pre-prediction checkpoint, then shift in
     * the actual outcome (what the front end does on a redirect).
     */
    void repairHistory(ThreadId tid, const BPredCheckpoint &ckpt,
                       bool actualTaken);

    /** Commit-time update of the direction tables. */
    void update(ThreadId tid, Addr pc, bool taken,
                std::uint64_t historyAtPredict);

    /**
     * Fraction of direction-table counters trained away from their
     * reset value (bimodal/gshare reset to 1, chooser to 2) — how warm
     * the predictor is. The sampled modes record it at each switch-in
     * so per-sample error can be correlated with transplant warmth.
     */
    double
    tableOccupancy() const
    {
        const size_t total =
            bimodal_.size() + gshare_.size() + chooser_.size();
        return total ? double(trained_) / double(total) : 0;
    }

    stats::Scalar lookups;
    stats::Scalar condMispredicts;
    stats::Scalar rasMispredicts;

  private:
    using Counter = std::uint8_t; ///< 2-bit saturating

    /** Reset values: bimodal and gshare weakly not-taken, the chooser
     *  weakly gshare. */
    static constexpr Counter kDirectionReset = 1;
    static constexpr Counter kChooserReset = 2;

    static bool taken(Counter c) { return c >= 2; }

    /** Step @p c toward @p t, keeping trained_ in step with whether it
     *  is away from its reset value @p reset. */
    void
    train(Counter &c, bool t, Counter reset)
    {
        const bool wasTrained = c != reset;
        if (t && c < 3)
            ++c;
        else if (!t && c > 0)
            --c;
        trained_ = trained_ - wasTrained + (c != reset);
    }

    size_t
    bimodalIndex(Addr pc) const
    {
        return pc & (bimodal_.size() - 1);
    }

    size_t
    gshareIndex(Addr pc, std::uint64_t history) const
    {
        return (pc ^ history) & (gshare_.size() - 1);
    }

    BPredParams params_;
    std::vector<Counter> bimodal_;
    std::vector<Counter> gshare_;
    std::vector<Counter> chooser_;
    /** Counters of the three tables away from their reset value. */
    size_t trained_ = 0;

    struct ThreadState
    {
        std::uint64_t history = 0;
        std::vector<Addr> ras;
        unsigned rasTop = 0; ///< index of next push slot
    };
    std::vector<ThreadState> threads_;
};

} // namespace vca::bpred

#endif // VCA_BPRED_BPRED_HH
