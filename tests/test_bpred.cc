/**
 * @file
 * Unit tests for the hybrid branch predictor and the return-address
 * stack, including speculative-state checkpoint/restore and the
 * table-occupancy count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bpred/bpred.hh"
#include "sim/rng.hh"

namespace {

using namespace vca;
using namespace vca::bpred;

class BPredTest : public ::testing::Test
{
  protected:
    BPredTest() : root_("root"), bp_(BPredParams{}, 2, &root_) {}

    stats::StatGroup root_;
    BranchPredictor bp_;
};

TEST_F(BPredTest, LearnsAlwaysTaken)
{
    const Addr pc = 0x40;
    BPredCheckpoint ckpt;
    for (int i = 0; i < 8; ++i) {
        bool pred = bp_.predict(0, pc, ckpt);
        bp_.update(0, pc, true, ckpt.history);
        (void)pred;
    }
    EXPECT_TRUE(bp_.predict(0, pc, ckpt));
}

TEST_F(BPredTest, LearnsAlternatingViaGshare)
{
    // A strictly alternating branch is mispredicted by bimodal but
    // learnable with global history; the hybrid must converge.
    const Addr pc = 0x80;
    bool taken = false;
    unsigned wrongLate = 0;
    BPredCheckpoint ckpt;
    for (int i = 0; i < 400; ++i) {
        taken = !taken;
        const bool pred = bp_.predict(0, pc, ckpt);
        bp_.update(0, pc, taken, ckpt.history);
        if (pred != taken) {
            // What the pipeline does on a mispredict: squash and
            // repair the speculative history with the real outcome.
            bp_.repairHistory(0, ckpt, taken);
            if (i >= 200)
                ++wrongLate;
        }
    }
    EXPECT_LT(wrongLate, 20u);
}

TEST_F(BPredTest, HistoryRestoreAfterSquash)
{
    const Addr pc = 0x100;
    BPredCheckpoint ckpt1, ckpt2;
    bp_.predict(0, pc, ckpt1);
    bp_.predict(0, pc + 1, ckpt2);
    // Squash the second prediction: restoring ckpt2 must give the same
    // history as immediately after the first prediction.
    bp_.restore(0, ckpt2);
    BPredCheckpoint probe = bp_.snapshot(0);
    EXPECT_EQ(probe.history, ckpt2.history);
}

TEST_F(BPredTest, RasPushPopLifo)
{
    BPredCheckpoint c;
    bp_.pushRas(0, 100, c);
    bp_.pushRas(0, 200, c);
    bp_.pushRas(0, 300, c);
    EXPECT_EQ(bp_.popRas(0, c), 300u);
    EXPECT_EQ(bp_.popRas(0, c), 200u);
    EXPECT_EQ(bp_.popRas(0, c), 100u);
}

TEST_F(BPredTest, RasPerThread)
{
    BPredCheckpoint c;
    bp_.pushRas(0, 111, c);
    bp_.pushRas(1, 222, c);
    EXPECT_EQ(bp_.popRas(0, c), 111u);
    EXPECT_EQ(bp_.popRas(1, c), 222u);
}

TEST_F(BPredTest, RasRestoreUndoesSpeculativePop)
{
    BPredCheckpoint before;
    bp_.pushRas(0, 123, before);
    BPredCheckpoint popCkpt;
    EXPECT_EQ(bp_.popRas(0, popCkpt), 123u);
    // The pop was down a wrong path: restore and pop again.
    bp_.restore(0, popCkpt);
    BPredCheckpoint c;
    EXPECT_EQ(bp_.popRas(0, c), 123u);
}

TEST_F(BPredTest, RasRestoreUndoesSpeculativePush)
{
    BPredCheckpoint c;
    bp_.pushRas(0, 42, c);
    BPredCheckpoint pushCkpt;
    bp_.pushRas(0, 999, pushCkpt); // wrong-path push clobbers nothing yet
    bp_.restore(0, pushCkpt);
    EXPECT_EQ(bp_.popRas(0, c), 42u);
}

TEST_F(BPredTest, RasWrapsWithoutCrashing)
{
    BPredCheckpoint c;
    for (Addr i = 0; i < 100; ++i)
        bp_.pushRas(0, 1000 + i, c);
    // Deepest pushes overwrote oldest; the most recent 16 are intact.
    for (Addr i = 0; i < 16; ++i)
        EXPECT_EQ(bp_.popRas(0, c), 1000 + 99 - i);
}

TEST_F(BPredTest, TableOccupancyMatchesARecount)
{
    // Random branches on both threads, checked against a recount of a
    // reference copy of the three tables kept with the predictor's
    // indexing and training rules. Outcomes are a coin flip, so
    // counters also train back to their reset value.
    const BPredParams params;
    std::vector<std::uint8_t> bim(size_t(1) << params.bimodalBits, 1);
    std::vector<std::uint8_t> gsh(size_t(1) << params.gshareBits, 1);
    std::vector<std::uint8_t> cho(size_t(1) << params.chooserBits, 2);
    const std::uint64_t mask = (std::uint64_t(1) << params.historyBits) - 1;
    const auto train = [](std::uint8_t &c, bool t) {
        if (t && c < 3)
            ++c;
        else if (!t && c > 0)
            --c;
    };
    const auto recount = [&] {
        size_t trained = 0;
        for (std::uint8_t c : bim)
            trained += c != 1;
        for (std::uint8_t c : gsh)
            trained += c != 1;
        for (std::uint8_t c : cho)
            trained += c != 2;
        return double(trained) / double(bim.size() + gsh.size() + cho.size());
    };

    EXPECT_EQ(bp_.tableOccupancy(), 0.0);
    Rng rng(22);
    BPredCheckpoint ckpt;
    for (unsigned i = 1; i <= 20'000; ++i) {
        const ThreadId tid = static_cast<ThreadId>(rng.below(2));
        const Addr pc = rng.below(3000);
        const bool taken = rng.below(2) != 0;
        const bool pred = bp_.predict(tid, pc, ckpt);
        bp_.update(tid, pc, taken, ckpt.history);
        if (pred != taken)
            bp_.repairHistory(tid, ckpt, taken);

        std::uint8_t &b = bim[pc & (bim.size() - 1)];
        std::uint8_t &g = gsh[(pc ^ (ckpt.history & mask)) & (gsh.size() - 1)];
        std::uint8_t &c = cho[pc & (cho.size() - 1)];
        const bool bimCorrect = (b >= 2) == taken;
        const bool gshCorrect = (g >= 2) == taken;
        if (bimCorrect != gshCorrect)
            train(c, gshCorrect);
        train(b, taken);
        train(g, taken);
        if (i % 64 == 0) {
            ASSERT_EQ(bp_.tableOccupancy(), recount()) << "update " << i;
        }
    }
    EXPECT_GT(bp_.tableOccupancy(), 0.0);
}

} // namespace
