/**
 * @file
 * Tests for the sim substrate (options parsing, RNG determinism,
 * logging behaviour) and the commit tracer.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "cpu/ooo_cpu.hh"
#include "cpu/tracer.hh"
#include "sim/logging.hh"
#include "sim/options.hh"
#include "sim/rng.hh"
#include "sim/thread_pool.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

namespace {

using namespace vca;

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

TEST(Options, DefaultsAndOverrides)
{
    Options o;
    o.add("regs", "256", "registers");
    o.add("arch", "vca", "architecture");
    o.add("fast", "false", "a flag");
    const char *argv[] = {"prog", "--regs=128", "--fast", "pos1"};
    ASSERT_TRUE(o.parse(4, argv));
    EXPECT_EQ(o.getU64("regs"), 128u);
    EXPECT_EQ(o.get("arch"), "vca");
    EXPECT_TRUE(o.getBool("fast"));
    ASSERT_EQ(o.positional().size(), 1u);
    EXPECT_EQ(o.positional()[0], "pos1");
}

TEST(Options, SpaceSeparatedValue)
{
    Options o;
    o.add("bench", "crafty", "");
    const char *argv[] = {"prog", "--bench", "mesa"};
    ASSERT_TRUE(o.parse(3, argv));
    EXPECT_EQ(o.get("bench"), "mesa");
}

TEST(Options, NoPrefixDisablesFlag)
{
    Options o;
    o.add("stats", "true", "");
    const char *argv[] = {"prog", "--no-stats"};
    ASSERT_TRUE(o.parse(2, argv));
    EXPECT_FALSE(o.getBool("stats"));
}

TEST(Options, UnknownOptionFails)
{
    Options o;
    o.add("regs", "256", "");
    const char *argv[] = {"prog", "--bogus=1"};
    EXPECT_FALSE(o.parse(2, argv));
    EXPECT_NE(o.error().find("bogus"), std::string::npos);
}

TEST(Options, MissingValueFails)
{
    Options o;
    o.add("bench", "crafty", "");
    const char *argv[] = {"prog", "--bench"};
    EXPECT_FALSE(o.parse(2, argv));
}

TEST(Options, UsageListsEverything)
{
    Options o;
    o.add("alpha", "1", "the alpha knob");
    o.add("beta", "x", "the beta knob");
    const std::string u = o.usage("tool");
    EXPECT_NE(u.find("--alpha"), std::string::npos);
    EXPECT_NE(u.find("the beta knob"), std::string::npos);
}

TEST(Options, GetU64RejectsWhatStrtoullWouldBend)
{
    const char *bad[] = {"abc", "-1", "+5", "", "12x", " 7",
                         "18446744073709551616"};
    for (const char *value : bad) {
        Options o;
        o.add("insts", "1", "");
        const std::string arg = std::string("--insts=") + value;
        const char *argv[] = {"prog", arg.c_str()};
        ASSERT_TRUE(o.parse(2, argv));
        try {
            o.getU64("insts");
            ADD_FAILURE() << "accepted '" << value << "'";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("--insts="),
                      std::string::npos)
                << e.what();
        }
    }
    Options o;
    o.add("insts", "18446744073709551615", "");
    EXPECT_EQ(o.getU64("insts"), UINT64_MAX);
}

TEST(Options, UnregisteredGetPanics)
{
    Options o;
    EXPECT_THROW(o.get("nope"), PanicError);
}

TEST(ParseU64, AcceptsDigitsThatFit)
{
    EXPECT_EQ(parseU64("0"), 0u);
    EXPECT_EQ(parseU64("007"), 7u);
    EXPECT_EQ(parseU64("4294967296"), 4294967296u);
    EXPECT_EQ(parseU64("18446744073709551615"), UINT64_MAX);
}

TEST(ParseU64, RejectsEverythingElse)
{
    for (const char *bad :
         {"", "-1", "+5", " 7", "7 ", "4x", "abc", "0x10", "1e3", "1.0",
          "18446744073709551616", "99999999999999999999"})
        EXPECT_FALSE(parseU64(bad).has_value()) << "'" << bad << "'";
}

/** ThreadPool::defaultThreads() with VCA_JOBS set for the call only.
 *  Never builds a pool: a bad value must not reach one. */
unsigned
defaultThreadsWith(const char *jobs)
{
    const char *prev = std::getenv("VCA_JOBS");
    const std::string saved = prev ? prev : "";
    if (jobs)
        ::setenv("VCA_JOBS", jobs, 1);
    else
        ::unsetenv("VCA_JOBS");
    setQuiet(true);
    const unsigned n = ThreadPool::defaultThreads();
    setQuiet(false);
    if (prev)
        ::setenv("VCA_JOBS", saved.c_str(), 1);
    else
        ::unsetenv("VCA_JOBS");
    return n;
}

TEST(ThreadPoolJobs, MalformedVcaJobsFallsBackToHardware)
{
    const unsigned hw = defaultThreadsWith(nullptr);
    EXPECT_GE(hw, 1u);
    EXPECT_EQ(defaultThreadsWith("3"), 3u);
    EXPECT_EQ(defaultThreadsWith("1024"), 1024u);
    // A sign, trailing junk, zero or an absurd count is warned about
    // and ignored, never read as a worker count.
    for (const char *bad : {"-1", "4x", "0", "", "abc", "1025",
                            "4294967295", "18446744073709551616"})
        EXPECT_EQ(defaultThreadsWith(bad), hw) << "VCA_JOBS=" << bad;
}

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const auto x = a.next();
        EXPECT_EQ(x, b.next());
    }
    // Different seed diverges immediately with overwhelming likelihood.
    Rng a2(42);
    EXPECT_NE(a2.next(), c.next());
}

TEST(Rng, BelowIsUnbiasedEnough)
{
    Rng r(7);
    unsigned counts[10] = {};
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        ++counts[r.below(10)];
    for (unsigned c : counts) {
        EXPECT_GT(c, n / 10 - n / 50);
        EXPECT_LT(c, n / 10 + n / 50);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 10'000; ++i) {
        const auto v = r.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        sawLo = sawLo || v == -3;
        sawHi = sawHi || v == 3;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10'000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, GeometricRespectsCap)
{
    Rng r(13);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LE(r.geometric(0.9, 5), 5u);
}

// ---------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------

TEST(Logging, PanicThrowsWithMessage)
{
    try {
        panic("bad thing %d", 7);
        FAIL() << "panic must throw";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("bad thing 7"),
                  std::string::npos);
    }
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("user error"), FatalError);
}

// ---------------------------------------------------------------------
// Commit tracer
// ---------------------------------------------------------------------

TEST(Tracer, EmitsBoundedReadableLines)
{
    setQuiet(true);
    const isa::Program *prog = wload::cachedProgram(
        wload::profileByName("crafty"), true);
    cpu::CpuParams params =
        cpu::CpuParams::preset(cpu::RenamerKind::Vca, 192);
    cpu::OooCpu cpu(params, {prog});

    std::ostringstream os;
    cpu::TraceOptions topts;
    topts.maxInsts = 25;
    cpu::attachCommitTracer(cpu, os, topts);
    cpu.run(1000, 500'000);

    const std::string text = os.str();
    unsigned lines = 0;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        ++lines;
    EXPECT_EQ(lines, 25u) << "tracing must stop at maxInsts";
    EXPECT_NE(text.find("T0"), std::string::npos);
    EXPECT_NE(text.find("D=0x"), std::string::npos);
}

} // namespace
