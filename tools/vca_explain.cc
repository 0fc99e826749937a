/**
 * @file
 * vca-explain: differential run explainer.
 *
 * Attributes the CPI gap between two runs to the hierarchical cycle
 * taxonomy (README, Observability) and localizes where the gap opens
 * along the committed-instruction axis. Runs come either from
 * vca-sim --stats-json documents or from config specs simulated
 * through the shared sweep cache:
 *
 *   vca-explain --run A.json --run B.json
 *   vca-explain --spec bench=crafty,arch=vca,regs=192 \
 *               --spec bench=crafty,arch=regwindow,regs=192
 *   vca-explain --run base.json --spec bench=crafty,arch=vca,regs=64
 *
 * A second report mode attributes sampled-vs-detailed IPC error: give
 * --sampling one non-detailed spec and the tool simulates both it and
 * the matched detailed configuration through the sweep cache, then
 * reports per-sample deviation, transplant-warmth correlation and the
 * per-SimPoint-phase error rollup:
 *
 *   vca-explain --sampling \
 *               --spec bench=crafty,arch=vca,regs=192,mode=sampled
 *
 * Options:
 *   --markdown   render the report as a markdown document
 *   --sampling   sampled-vs-detailed error attribution (one spec)
 *   --selftest   planted-gap + sampling self tests (CI); no inputs
 *
 * Exit status: 0 report printed / selftest passed, 1 selftest or
 * simulation failure, 2 usage error.
 */

#include <cstdio>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "analysis/explain.hh"
#include "analysis/runner.hh"
#include "sim/logging.hh"
#include "sim/options.hh"

namespace {

using namespace vca;

void
usage(std::FILE *to)
{
    std::fprintf(to,
        "usage: vca-explain (--run FILE | --spec KEY=VAL[,...]) x2\n"
        "                   [--markdown]\n"
        "       vca-explain --sampling --spec KEY=VAL[,...]\n"
        "       vca-explain --selftest\n"
        "\n"
        "Attribute the CPI gap between two runs (A then B) to the\n"
        "cycle-taxonomy leaves and report where the gap opens; or,\n"
        "with --sampling, attribute one non-detailed spec's IPC error\n"
        "against its matched detailed run (per sample, per SimPoint\n"
        "phase, and against transplant warmth).\n"
        "\n"
        "  --run FILE   a vca-sim --stats-json document\n"
        "  --spec ...   simulate a config through the sweep cache:\n"
        "               bench=NAME[+NAME2] arch=baseline|regwindow|\n"
        "               ideal|vca regs=N [insts=N] [warmup=N]\n"
        "               [mode=detailed|sampled|simpoint] [period=N]\n"
        "               [quantum=N] [fwarm=N] [dwarm=N]\n"
        "  --markdown   emit a markdown report instead of plain text\n"
        "  --sampling   sampled-vs-detailed error attribution; takes\n"
        "               exactly one --spec with a non-detailed mode\n"
        "  --selftest   verify planted gaps/errors are attributed\n"
        "               correctly\n");
}

cpu::RenamerKind
parseArch(const std::string &name)
{
    if (name == "baseline")
        return cpu::RenamerKind::Baseline;
    if (name == "regwindow" || name == "conv")
        return cpu::RenamerKind::ConvWindow;
    if (name == "ideal")
        return cpu::RenamerKind::IdealWindow;
    if (name == "vca")
        return cpu::RenamerKind::Vca;
    fatal("vca-explain: unknown arch '%s' (expected baseline, "
               "regwindow, ideal or vca)", name.c_str());
}

/** Parse one --spec into a sweep point + readable config string. */
analysis::SweepPoint
parseSpecPoint(const std::string &spec, std::string &config)
{
    std::string bench = "crafty";
    std::string arch = "vca";
    unsigned regs = 192;
    analysis::RunOptions opts;

    std::string rest = spec;
    while (!rest.empty()) {
        const size_t comma = rest.find(',');
        const std::string field = rest.substr(0, comma);
        rest = comma == std::string::npos ? ""
                                          : rest.substr(comma + 1);
        const size_t eq = field.find('=');
        if (eq == std::string::npos)
            fatal("vca-explain: bad --spec field '%s' "
                       "(expected key=value)", field.c_str());
        const std::string key = field.substr(0, eq);
        const std::string val = field.substr(eq + 1);
        const auto number = [&](std::uint64_t max) {
            const auto n = parseU64(val);
            if (!n || *n > max)
                fatal("vca-explain: bad --spec %s='%s' (want an "
                      "unsigned integer)", key.c_str(), val.c_str());
            return *n;
        };
        if (key == "bench")
            bench = val;
        else if (key == "arch")
            arch = val;
        else if (key == "regs")
            regs = static_cast<unsigned>(
                number(std::numeric_limits<unsigned>::max()));
        else if (key == "insts")
            opts.measureInsts = number(UINT64_MAX);
        else if (key == "warmup")
            opts.warmupInsts = number(UINT64_MAX);
        else if (key == "mode") {
            if (!analysis::parseSimMode(val, opts.mode))
                fatal("vca-explain: unknown mode '%s' "
                           "(detailed|simpoint|sampled)", val.c_str());
        } else if (key == "period")
            opts.samplePeriodInsts = number(UINT64_MAX);
        else if (key == "quantum")
            opts.sampleQuantumInsts = number(UINT64_MAX);
        else if (key == "fwarm")
            opts.sampleFuncWarmInsts = number(UINT64_MAX);
        else if (key == "dwarm")
            opts.sampleDetailWarmInsts = number(UINT64_MAX);
        else
            fatal("vca-explain: unknown --spec key '%s'",
                       key.c_str());
    }

    const cpu::RenamerKind kind = parseArch(arch);
    analysis::SweepPoint point =
        analysis::makePoint(bench, kind, regs, opts);
    // "bench=a+b" runs an SMT workload, one benchmark per thread.
    if (bench.find('+') != std::string::npos) {
        point.benches.clear();
        std::string b = bench;
        while (!b.empty()) {
            const size_t plus = b.find('+');
            point.benches.push_back(b.substr(0, plus));
            b = plus == std::string::npos ? "" : b.substr(plus + 1);
        }
        point.opts.numThreads =
            static_cast<unsigned>(point.benches.size());
    }

    config = "bench=" + bench + " arch=" + arch +
             " regs=" + std::to_string(regs);
    if (opts.mode != analysis::SimMode::Detailed)
        config += std::string(" mode=") +
                  analysis::simModeName(opts.mode);
    return point;
}

/** Simulate one --spec through the shared on-disk sweep cache. */
analysis::ExplainInput
runSpec(const std::string &spec)
{
    std::string config;
    const analysis::SweepPoint point = parseSpecPoint(spec, config);
    const analysis::Measurement m =
        analysis::SweepRunner::global().runPoint(point);
    if (!m.ok)
        fatal("vca-explain: spec '%s' is inoperable: %s",
                   spec.c_str(), m.error.c_str());
    return analysis::explainInputFromMeasurement(spec, config, m);
}

/**
 * --sampling: run the spec in its non-detailed mode and the matched
 * detailed configuration, then attribute the sampled IPC error.
 */
int
runSamplingReport(const std::string &spec, bool markdown)
{
    std::string config;
    analysis::SweepPoint point = parseSpecPoint(spec, config);
    if (point.opts.mode == analysis::SimMode::Detailed)
        fatal("vca-explain: --sampling needs a non-detailed spec "
                   "(add mode=sampled or mode=simpoint)");

    analysis::SweepPoint detailedPoint = point;
    detailedPoint.opts.mode = analysis::SimMode::Detailed;

    const analysis::Measurement sampled =
        analysis::SweepRunner::global().runPoint(point);
    if (!sampled.ok)
        fatal("vca-explain: spec '%s' is inoperable: %s",
                   spec.c_str(), sampled.error.c_str());
    const analysis::Measurement detailed =
        analysis::SweepRunner::global().runPoint(detailedPoint);
    if (!detailed.ok)
        fatal("vca-explain: matched detailed run for '%s' is "
                   "inoperable: %s", spec.c_str(),
                   detailed.error.c_str());

    const analysis::SamplingReport report =
        analysis::explainSampling(config, sampled, detailed);
    std::fputs(analysis::renderSamplingReport(report, markdown)
                   .c_str(),
               stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool markdown = false;
    bool selftest = false;
    bool sampling = false;
    // (kind, value) in order: kind 'r' = --run file, 's' = --spec.
    std::vector<std::pair<char, std::string>> inputs;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "vca-explain: %s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--run")
            inputs.emplace_back('r', value("--run"));
        else if (arg == "--spec")
            inputs.emplace_back('s', value("--spec"));
        else if (arg == "--markdown")
            markdown = true;
        else if (arg == "--sampling")
            sampling = true;
        else if (arg == "--selftest")
            selftest = true;
        else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "vca-explain: unknown option '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
    }

    // A malformed --spec is a usage error: parse every one up front.
    try {
        std::string config;
        for (const auto &[kind, value] : inputs)
            if (kind == 's')
                parseSpecPoint(value, config);
    } catch (const vca::FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    if (selftest) {
        if (!inputs.empty()) {
            std::fprintf(stderr, "vca-explain: --selftest takes no "
                                 "inputs\n");
            return 2;
        }
        const int gap = vca::analysis::explainSelftest();
        const int samp = vca::analysis::samplingSelftest();
        return (gap == 0 && samp == 0) ? 0 : 1;
    }
    if (sampling) {
        if (inputs.size() != 1 || inputs[0].first != 's') {
            std::fprintf(stderr, "vca-explain: --sampling takes "
                                 "exactly one --spec input\n");
            return 2;
        }
        try {
            return runSamplingReport(inputs[0].second, markdown);
        } catch (const vca::FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    }
    if (inputs.size() != 2) {
        std::fprintf(stderr, "vca-explain: need exactly two inputs "
                             "(--run and/or --spec), got %zu\n",
                     inputs.size());
        usage(stderr);
        return 2;
    }

    try {
        std::vector<vca::analysis::ExplainInput> runs;
        for (const auto &[kind, value] : inputs)
            runs.push_back(kind == 'r'
                               ? vca::analysis::loadRunJson(value, "")
                               : runSpec(value));
        const vca::analysis::ExplainReport report =
            vca::analysis::explain(runs[0], runs[1]);
        std::fputs(vca::analysis::renderReport(report, markdown)
                       .c_str(),
                   stdout);
        return 0;
    } catch (const vca::FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
