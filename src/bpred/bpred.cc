#include "bpred/bpred.hh"

namespace vca::bpred {

BranchPredictor::BranchPredictor(const BPredParams &params,
                                 unsigned numThreads,
                                 stats::StatGroup *parent)
    : stats::StatGroup("bpred", parent),
      lookups(this, "lookups", "conditional branch predictions"),
      condMispredicts(this, "cond_mispredicts",
                      "mispredicted conditional branches"),
      rasMispredicts(this, "ras_mispredicts", "mispredicted RET targets"),
      params_(params)
{
    bimodal_.assign(size_t(1) << params_.bimodalBits, kDirectionReset);
    gshare_.assign(size_t(1) << params_.gshareBits, kDirectionReset);
    chooser_.assign(size_t(1) << params_.chooserBits, kChooserReset);
    threads_.resize(numThreads);
    for (auto &t : threads_)
        t.ras.assign(params_.rasEntries, 0);
}

bool
BranchPredictor::predict(ThreadId tid, Addr pc, BPredCheckpoint &ckpt)
{
    ++lookups;
    ThreadState &ts = threads_.at(tid);
    ckpt = snapshot(tid);

    const std::uint64_t mask = (std::uint64_t(1) << params_.historyBits) - 1;
    const bool bim = taken(bimodal_[bimodalIndex(pc)]);
    const bool gsh = taken(gshare_[gshareIndex(pc, ts.history & mask)]);
    const bool useGshare = taken(chooser_[bimodalIndex(pc)]);
    const bool pred = useGshare ? gsh : bim;

    ts.history = ((ts.history << 1) | (pred ? 1 : 0)) & mask;
    return pred;
}

void
BranchPredictor::pushRas(ThreadId tid, Addr returnPc, BPredCheckpoint &ckpt)
{
    ThreadState &ts = threads_.at(tid);
    ckpt = snapshot(tid);
    ts.ras[ts.rasTop % params_.rasEntries] = returnPc;
    ts.rasTop = (ts.rasTop + 1) % (2 * params_.rasEntries);
}

Addr
BranchPredictor::popRas(ThreadId tid, BPredCheckpoint &ckpt)
{
    ThreadState &ts = threads_.at(tid);
    ckpt = snapshot(tid);
    ts.rasTop = (ts.rasTop + 2 * params_.rasEntries - 1) %
                (2 * params_.rasEntries);
    return ts.ras[ts.rasTop % params_.rasEntries];
}

BPredCheckpoint
BranchPredictor::snapshot(ThreadId tid) const
{
    const ThreadState &ts = threads_.at(tid);
    BPredCheckpoint ckpt;
    ckpt.history = ts.history;
    ckpt.rasTop = ts.rasTop;
    const unsigned prev = (ts.rasTop + 2 * params_.rasEntries - 1) %
                          (2 * params_.rasEntries);
    ckpt.rasTopValue = ts.ras[prev % params_.rasEntries];
    return ckpt;
}

void
BranchPredictor::restore(ThreadId tid, const BPredCheckpoint &ckpt)
{
    ThreadState &ts = threads_.at(tid);
    ts.history = ckpt.history;
    ts.rasTop = ckpt.rasTop;
    const unsigned prev = (ts.rasTop + 2 * params_.rasEntries - 1) %
                          (2 * params_.rasEntries);
    ts.ras[prev % params_.rasEntries] = ckpt.rasTopValue;
}

void
BranchPredictor::repairHistory(ThreadId tid, const BPredCheckpoint &ckpt,
                               bool actualTaken)
{
    restore(tid, ckpt);
    ThreadState &ts = threads_.at(tid);
    const std::uint64_t mask = (std::uint64_t(1) << params_.historyBits) - 1;
    ts.history = ((ts.history << 1) | (actualTaken ? 1 : 0)) & mask;
}

void
BranchPredictor::update(ThreadId tid, Addr pc, bool actualTaken,
                        std::uint64_t historyAtPredict)
{
    (void)tid;
    const std::uint64_t mask = (std::uint64_t(1) << params_.historyBits) - 1;
    Counter &bim = bimodal_[bimodalIndex(pc)];
    Counter &gsh = gshare_[gshareIndex(pc, historyAtPredict & mask)];
    Counter &cho = chooser_[bimodalIndex(pc)];

    const bool bimCorrect = taken(bim) == actualTaken;
    const bool gshCorrect = taken(gsh) == actualTaken;
    if (bimCorrect != gshCorrect)
        train(cho, gshCorrect, kChooserReset);

    train(bim, actualTaken, kDirectionReset);
    train(gsh, actualTaken, kDirectionReset);
}

} // namespace vca::bpred
