/**
 * @file
 * vca-sim: the standalone command-line simulator driver.
 *
 * Runs one of the bundled SPEC-like benchmarks (or an SMT mix) on any
 * of the four register-management architectures and dumps the full
 * statistics tree — the sim-outorder-style front door for users who
 * want to poke at configurations without writing C++.
 *
 * Examples:
 *   vca-sim --bench=crafty --arch=vca --regs=128
 *   vca-sim --bench=crafty,mesa,gap,gzip_graphic --arch=vca \
 *           --regs=192 --windows=true --insts=200000
 *   vca-sim --debug-flags=Commit,VcaCache --debug-file=run.log
 *   vca-sim --pipeview out.trace --stats-json stats.json \
 *           --interval 10000
 *   vca-sim --sweep-regs=64,128,192,256 --arch=all --bench=crafty
 *   vca-sim --list-benches
 *
 * --sweep-regs switches to sweep mode: every (arch, size) point runs
 * in parallel on the sweep runner (VCA_JOBS workers) and is memoized
 * under VCA_CACHE_DIR (default .vca-cache/), so repeating a sweep is
 * pure cache hits. See README "Running sweeps in parallel".
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>

#include "analysis/experiment.hh"
#include "analysis/runner.hh"
#include "analysis/sampling.hh"
#include "cpu/ooo_cpu.hh"
#include "cpu/tracer.hh"
#include "sim/options.hh"
#include "stats/host_stats.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/pipeline_trace.hh"
#include "telemetry/reg_cache_analyzer.hh"
#include "trace/debug_flags.hh"
#include "trace/interval_stats.hh"
#include "trace/stats_json.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

using namespace vca;

namespace {

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

cpu::RenamerKind
parseArch(const std::string &name)
{
    if (name == "baseline")
        return cpu::RenamerKind::Baseline;
    if (name == "regwindow" || name == "convwindow")
        return cpu::RenamerKind::ConvWindow;
    if (name == "ideal")
        return cpu::RenamerKind::IdealWindow;
    if (name == "vca")
        return cpu::RenamerKind::Vca;
    fatal("unknown --arch '%s' (baseline|regwindow|ideal|vca)",
          name.c_str());
}

int
simMain(int argc, char **argv)
{
    Options opts;
    opts.add("bench", "crafty",
             "benchmark name, or a comma list for SMT (one per thread)");
    opts.add("arch", "vca", "baseline | regwindow | ideal | vca");
    opts.add("regs", "256", "physical register file size");
    opts.add("windows", "auto",
             "run windowed binaries: true | false | auto (by arch)");
    opts.add("insts", "200000", "instructions to commit per thread");
    opts.add("warmup", "20000", "warm-up instructions per thread");
    opts.add("mode", "detailed",
             "execution mode: detailed | simpoint (fast-forward to the "
             "best BBV region) | sampled (SMARTS-style periodic "
             "sampling)");
    opts.add("sample-period", "50000",
             "sampled mode: per-thread instructions between samples");
    opts.add("sample-quantum", "2000",
             "sampled mode: detailed instructions measured per sample");
    opts.add("sample-func-warm", "0",
             "non-detailed modes: functional warming instructions "
             "(branch predictor + caches) before each switch-in; "
             "0 = warm on every fast-forwarded instruction");
    opts.add("sample-detail-warm", "1000",
             "sampled mode: detailed warm-up instructions per sample");
    opts.add("dcache-ports", "2", "L1D ports");
    opts.add("astq", "4", "ASTQ entries (vca)");
    opts.add("table-assoc", "0",
             "vca rename-table associativity (0 = paper default)");
    opts.add("dead-hints", "false", "enable dead-value hints (vca)");
    opts.add("stats", "true", "dump the statistics tree");
    opts.add("trace", "0",
             "print a commit trace for the first N instructions");
    opts.add("debug-flags", "",
             "comma list of debug flags (prefix '-' disables; see "
             "--debug-help)");
    opts.add("debug-file", "",
             "write the debug trace to this file instead of stderr");
    opts.add("debug-help", "false", "list debug flags and exit");
    opts.add("pipeview", "",
             "write an O3PipeView pipeline trace to this file");
    opts.add("pipeview-insts", "0",
             "cap the pipeline trace at N instructions (0 = all)");
    opts.add("pipeview-instants", "true",
             "interleave telemetry instant records (window traps, "
             "spill/fill windows) into the pipeline trace");
    opts.add("chrome-trace", "",
             "write a Chrome trace-event (Perfetto) timeline to this "
             "file: simulated-time pipeline tracks, or host-time sweep "
             "worker tracks in --sweep-regs mode");
    opts.add("chrome-trace-insts", "20000",
             "cap Chrome-trace instruction slices at N committed "
             "instructions (0 = all)");
    opts.add("reg-telemetry", "false",
             "attach the register-cache analyzer (reg_cache stat "
             "group: compulsory/capacity/conflict fills, occupancy, "
             "burst histograms)");
    opts.add("stats-json", "",
             "write the statistics tree as JSON to this file");
    opts.add("interval", "0",
             "record an IPC/stall interval every N committed insts "
             "(exported via --stats-json)");
    opts.add("sweep-regs", "",
             "sweep mode: comma list of register file sizes, run in "
             "parallel with on-disk memoization (see VCA_JOBS / "
             "VCA_CACHE_DIR)");
    opts.add("isolate", "auto",
             "sweep mode: run each simulated point in a forked worker "
             "process so a crash costs one point, not the batch "
             "(true | false | auto = VCA_ISOLATE)");
    opts.add("point-timeout", "",
             "sweep mode: per-point deadline in seconds, enforced in "
             "isolate mode (empty = VCA_POINT_TIMEOUT)");
    opts.add("retries", "",
             "sweep mode: extra attempts after a worker crash or "
             "timeout (empty = VCA_RETRIES, default 2)");
    opts.add("list-benches", "false", "list bundled benchmarks and exit");
    opts.add("quiet", "true", "suppress warnings");
    opts.add("help", "false", "show this help");

    if (!opts.parse(argc, argv)) {
        std::fprintf(stderr, "error: %s\n%s", opts.error().c_str(),
                     opts.usage("vca-sim").c_str());
        return 1;
    }
    if (opts.getBool("help")) {
        std::fputs(opts.usage("vca-sim").c_str(), stdout);
        return 0;
    }
    setQuiet(opts.getBool("quiet"));

    if (opts.getBool("debug-help")) {
        std::fputs(trace::flagHelp().c_str(), stdout);
        return 0;
    }
    std::ofstream debugFile;
    if (!opts.get("debug-file").empty()) {
        debugFile.open(opts.get("debug-file"));
        if (!debugFile)
            fatal("cannot open --debug-file '%s'",
                  opts.get("debug-file").c_str());
        trace::setTraceStream(&debugFile);
    }
    if (!opts.get("debug-flags").empty())
        trace::setFlagsFromString(opts.get("debug-flags"));

    if (opts.getBool("list-benches")) {
        std::printf("%-16s %6s %10s %10s %8s\n", "name", "fp",
                    "footprint", "target", "windows?");
        for (const auto &p : wload::spec2000Profiles()) {
            std::printf("%-16s %6s %9lluK %9lluK %8s\n", p.name.c_str(),
                        p.isFloat ? "yes" : "no",
                        (unsigned long long)p.footprintBytes / 1024,
                        (unsigned long long)p.targetDynInsts / 1000,
                        p.callHeavy ? "table2" : "");
        }
        return 0;
    }

    const auto benchNames = splitCommas(opts.get("bench"));
    if (benchNames.empty())
        fatal("--bench must name at least one benchmark");
    const std::string windowsOpt = opts.get("windows");

    analysis::SimMode simMode;
    if (!analysis::parseSimMode(opts.get("mode"), simMode))
        fatal("unknown --mode '%s' (detailed|simpoint|sampled)",
              opts.get("mode").c_str());
    if (simMode != analysis::SimMode::Detailed) {
        // Instruction-granular observers (pipeline traces, commit
        // traces, DPRINTF, register telemetry) attach to the one
        // long-lived core a detailed run measures; the sampled modes
        // run many short cores, so combining them would be a silent
        // no-op at best. Error out naming the offending flag.
        // Aggregate observability (--stats, --stats-json, --interval,
        // --chrome-trace) works in every mode: sampled runs export the
        // sampling confidence layer instead of the cpu tree, and
        // chrome traces carry a sample-timeline lane.
        const char *conflict = nullptr;
        if (!opts.get("pipeview").empty())
            conflict = "--pipeview";
        else if (opts.wasSet("pipeview-instants"))
            conflict = "--pipeview-instants";
        else if (opts.getU64("trace") > 0)
            conflict = "--trace";
        else if (opts.getBool("reg-telemetry"))
            conflict = "--reg-telemetry";
        else if (!opts.get("debug-flags").empty())
            conflict = "--debug-flags";
        if (conflict) {
            fatal("%s requires --mode=detailed (it observes a single "
                  "detailed core)", conflict);
        }
    }

    // Sweep mode: the (arch x size) grid goes through the parallel
    // sweep runner, memoized on disk, instead of the single-run path.
    if (!opts.get("sweep-regs").empty()) {
        std::vector<unsigned> sizes;
        for (const std::string &s : splitCommas(opts.get("sweep-regs"))) {
            const auto n = parseU64(s);
            if (!n || *n > std::numeric_limits<unsigned>::max())
                fatal("invalid --sweep-regs entry '%s' (want an unsigned "
                      "integer)", s.c_str());
            sizes.push_back(static_cast<unsigned>(*n));
        }
        std::vector<cpu::RenamerKind> archs;
        if (opts.get("arch") == "all") {
            archs = {cpu::RenamerKind::Baseline,
                     cpu::RenamerKind::ConvWindow,
                     cpu::RenamerKind::IdealWindow,
                     cpu::RenamerKind::Vca};
        } else {
            archs = {parseArch(opts.get("arch"))};
        }

        analysis::RunOptions runOpts;
        runOpts.warmupInsts = opts.getU64("warmup");
        runOpts.measureInsts = opts.getU64("insts");
        runOpts.dcachePorts =
            static_cast<unsigned>(opts.getU64("dcache-ports"));
        runOpts.numThreads = static_cast<unsigned>(benchNames.size());
        runOpts.stopOnFirstThread = benchNames.size() > 1;
        runOpts.overrides.astqEntries =
            static_cast<unsigned>(opts.getU64("astq"));
        runOpts.overrides.vcaTableAssoc =
            static_cast<unsigned>(opts.getU64("table-assoc"));
        runOpts.overrides.vcaDeadValueHints =
            opts.getBool("dead-hints") ? 1 : -1;
        runOpts.regTelemetry = opts.getBool("reg-telemetry");
        runOpts.mode = simMode;
        runOpts.samplePeriodInsts = opts.getU64("sample-period");
        runOpts.sampleQuantumInsts = opts.getU64("sample-quantum");
        runOpts.sampleFuncWarmInsts = opts.getU64("sample-func-warm");
        runOpts.sampleDetailWarmInsts =
            opts.getU64("sample-detail-warm");

        std::vector<analysis::SweepPoint> points;
        for (cpu::RenamerKind arch : archs) {
            for (unsigned regs : sizes) {
                analysis::SweepPoint p;
                p.benches = benchNames;
                p.windowed = windowsOpt == "auto"
                    ? analysis::usesWindowedBinary(arch)
                    : (windowsOpt == "true" || windowsOpt == "1");
                p.kind = arch;
                p.physRegs = regs;
                p.opts = runOpts;
                points.push_back(std::move(p));
            }
        }
        auto &runner = analysis::SweepRunner::global();
        {
            // CLI flags override the environment-seeded defaults.
            analysis::RobustConfig robust = runner.robust();
            const std::string isolate = opts.get("isolate");
            if (isolate != "auto")
                robust.isolate = isolate == "true" || isolate == "1";
            const std::string timeout = opts.get("point-timeout");
            if (!timeout.empty() &&
                !analysis::RobustConfig::parsePointTimeout(
                    timeout.c_str(), robust.pointTimeoutSec)) {
                fatal("invalid --point-timeout='%s' (want seconds >= 0)",
                      timeout.c_str());
            }
            const std::string retries = opts.get("retries");
            if (!retries.empty() &&
                !analysis::RobustConfig::parseRetries(retries.c_str(),
                                                      robust.retries)) {
                fatal("invalid --retries='%s' (want an integer >= 0)",
                      retries.c_str());
            }
            runner.setRobust(robust);
        }
        std::unique_ptr<telemetry::ChromeTraceWriter> chromeWriter;
        if (!opts.get("chrome-trace").empty()) {
            chromeWriter = std::make_unique<telemetry::ChromeTraceWriter>(
                opts.get("chrome-trace"));
            runner.setTraceWriter(chromeWriter.get());
        }
        const auto results = runner.run(points);
        if (chromeWriter) {
            runner.setTraceWriter(nullptr);
            if (chromeWriter->finish()) {
                inform("wrote chrome trace %s (%llu events)",
                       chromeWriter->path().c_str(),
                       (unsigned long long)chromeWriter->eventCount());
            }
        }

        std::printf("== Sweep: %s, %zu thread(s) ==\n",
                    opts.get("bench").c_str(), benchNames.size());
        if (simMode != analysis::SimMode::Detailed) {
            std::printf("mode=%s period=%llu quantum=%llu\n",
                        analysis::simModeName(simMode),
                        (unsigned long long)runOpts.samplePeriodInsts,
                        (unsigned long long)runOpts.sampleQuantumInsts);
        }
        std::printf("%-16s", "arch");
        for (unsigned regs : sizes)
            std::printf(" %9u", regs);
        std::printf("   (IPC)\n");
        size_t idx = 0;
        for (cpu::RenamerKind arch : archs) {
            std::printf("%-16s", cpu::renamerKindName(arch));
            for (size_t s = 0; s < sizes.size(); ++s) {
                const auto &m = results[idx++];
                if (m.ok)
                    std::printf(" %9.4f", m.ipc);
                else
                    std::printf(" %9s", "n/a");
            }
            std::printf("\n");
        }
        std::printf("cache: %.0f hits, %.0f misses (%s)\n",
                    runner.cacheHits.value(),
                    runner.cacheMisses.value(),
                    runner.cache().enabled()
                        ? runner.cache().dir().c_str()
                        : "disabled");
        const auto &host = stats::HostStats::global();
        if (host.simRuns.value() > 0) {
            std::printf("host: seconds=%.3f mips=%.3f "
                        "cycles_per_sec=%.0f runs=%.0f skipped=%.0f\n",
                        host.simSeconds.value(), host.simMips.value(),
                        host.cyclesPerSec.value(), host.simRuns.value(),
                        host.simCyclesSkipped.value());
        }
        // Zero in every detailed sweep, so detailed output is
        // byte-identical to earlier releases.
        if (host.funcRuns.value() > 0) {
            std::printf("func: seconds=%.3f insts=%.0f mips=%.3f\n",
                        host.funcSeconds.value(), host.funcInsts.value(),
                        host.funcMips.value());
        }
        // Points that exhausted their retry budget: the table above
        // shows them as n/a; spell out why on stderr and exit nonzero
        // so scripts notice a degraded sweep.
        const auto failures = runner.lastFailures();
        if (!failures.empty()) {
            std::fprintf(stderr,
                         "sweep: %zu point(s) failed after retries:\n",
                         failures.size());
            for (const auto &f : failures) {
                std::fprintf(stderr, "  %s: %s (%u attempt%s)\n",
                             f.label.c_str(), f.error.c_str(),
                             f.attempts, f.attempts == 1 ? "" : "s");
            }
            return 3;
        }
        return 0;
    }

    const cpu::RenamerKind kind = parseArch(opts.get("arch"));
    const bool windowed = windowsOpt == "auto"
        ? analysis::usesWindowedBinary(kind)
        : (windowsOpt == "true" || windowsOpt == "1");

    std::vector<const isa::Program *> programs;
    for (const std::string &name : benchNames) {
        programs.push_back(wload::cachedProgram(
            wload::profileByName(name), windowed));
    }

    // Single-run non-detailed modes go through the experiment harness
    // (which owns the functional/detailed interleaving) and print a
    // compact summary with the func/host throughput split the
    // accuracy gate parses.
    if (simMode != analysis::SimMode::Detailed) {
        analysis::RunOptions runOpts;
        runOpts.warmupInsts = opts.getU64("warmup");
        runOpts.measureInsts = opts.getU64("insts");
        runOpts.dcachePorts =
            static_cast<unsigned>(opts.getU64("dcache-ports"));
        runOpts.numThreads = static_cast<unsigned>(programs.size());
        runOpts.stopOnFirstThread = programs.size() > 1;
        runOpts.overrides.astqEntries =
            static_cast<unsigned>(opts.getU64("astq"));
        runOpts.overrides.vcaTableAssoc =
            static_cast<unsigned>(opts.getU64("table-assoc"));
        runOpts.overrides.vcaDeadValueHints =
            opts.getBool("dead-hints") ? 1 : -1;
        runOpts.mode = simMode;
        runOpts.samplePeriodInsts = opts.getU64("sample-period");
        runOpts.sampleQuantumInsts = opts.getU64("sample-quantum");
        runOpts.sampleFuncWarmInsts = opts.getU64("sample-func-warm");
        runOpts.sampleDetailWarmInsts =
            opts.getU64("sample-detail-warm");

        // Sample-timeline lane: fast-forward spans, warm-up/measure
        // quanta and transplant instants (host timebase).
        std::unique_ptr<telemetry::ChromeTraceWriter> chromeWriter;
        if (!opts.get("chrome-trace").empty()) {
            chromeWriter = std::make_unique<telemetry::ChromeTraceWriter>(
                opts.get("chrome-trace"));
            runOpts.traceWriter = chromeWriter.get();
        }

        const auto &host = stats::HostStats::global();
        const double sec0 = host.simSeconds.value();
        const double insts0 = host.simInsts.value();
        const double cycles0 = host.simCycles.value();
        const double skipped0 = host.simCyclesSkipped.value();
        const double fsec0 = host.funcSeconds.value();
        const double finsts0 = host.funcInsts.value();
        const auto m = analysis::runTiming(
            programs, kind, static_cast<unsigned>(opts.getU64("regs")),
            runOpts);
        if (chromeWriter) {
            if (chromeWriter->finish()) {
                inform("wrote chrome trace %s (%llu events)",
                       chromeWriter->path().c_str(),
                       (unsigned long long)chromeWriter->eventCount());
            }
        }
        if (!m.ok) {
            std::fprintf(stderr, "configuration cannot operate: %s\n",
                         m.error.c_str());
            return 2;
        }
        std::printf("arch=%s regs=%llu threads=%zu windowed=%d "
                    "mode=%s\n",
                    cpu::renamerKindName(kind),
                    (unsigned long long)opts.getU64("regs"),
                    programs.size(), windowed ? 1 : 0,
                    analysis::simModeName(simMode));
        std::printf("cycles=%llu insts=%llu ipc=%.4f cpi=%.4f\n",
                    (unsigned long long)m.cycles,
                    (unsigned long long)m.insts, m.ipc, m.cpi);
        for (size_t t = 0; t < m.threadInsts.size(); ++t) {
            std::printf("thread %zu (%s): insts=%llu\n", t,
                        benchNames[t].c_str(),
                        (unsigned long long)m.threadInsts[t]);
        }
        std::printf("cycle accounting:");
        for (const auto &[name, frac] : m.cycleBreakdown)
            std::printf(" %s=%.1f%%", name.c_str(), 100 * frac);
        std::printf("\n");
        // The confidence line the accuracy gate parses: a sampled
        // estimate without its uncertainty is not a result.
        int worst = -1;
        double worstDev = -1;
        for (size_t i = 0; i < m.sampleRecords.size(); ++i) {
            const double dev =
                std::abs(m.sampleRecords[i].cpi - m.sampling.meanCpi);
            if (dev > worstDev) {
                worstDev = dev;
                worst = static_cast<int>(i);
            }
        }
        std::printf("sampling: samples=%u mean_cpi=%.6f "
                    "cpi_var=%.6f ci95_cpi=[%.6f,%.6f] "
                    "ipc_ci95=[%.6f,%.6f] ci_unbounded=%d "
                    "worst_sample=%d\n",
                    m.sampling.samples, m.sampling.meanCpi,
                    m.sampling.cpiVariance, m.sampling.ciLoCpi,
                    m.sampling.ciHiCpi, m.sampling.ipcCiLo(),
                    m.sampling.ipcCiHi(),
                    m.sampling.ciUnbounded ? 1 : 0, worst);
        std::printf("transplant: tag_valid=%.4f "
                    "bpred_occupancy=%.4f\n",
                    m.sampling.meanTagValidFraction,
                    m.sampling.meanBpredTableOccupancy);
        const double fsec = host.funcSeconds.value() - fsec0;
        const double finsts = host.funcInsts.value() - finsts0;
        const double dsec = host.simSeconds.value() - sec0;
        const double dinsts = host.simInsts.value() - insts0;
        const double dcycles = host.simCycles.value() - cycles0;
        const double dskipped = host.simCyclesSkipped.value() - skipped0;
        std::printf("func: seconds=%.3f insts=%.0f mips=%.3f\n", fsec,
                    finsts, fsec > 0 ? finsts / fsec / 1e6 : 0.0);
        std::printf("host: seconds=%.3f mips=%.3f "
                    "cycles_per_sec=%.0f skipped=%.0f\n",
                    dsec, dsec > 0 ? dinsts / dsec / 1e6 : 0.0,
                    dsec > 0 ? dcycles / dsec : 0.0, dskipped);
        analysis::SamplingStats samplingStats;
        samplingStats.populate(m);
        if (opts.getBool("stats")) {
            std::printf("\n-- statistics --\n");
            std::ostringstream os;
            samplingStats.dump(os);
            stats::HostStats::global().dump(os);
            std::fputs(os.str().c_str(), stdout);
        }
        if (!opts.get("stats-json").empty()) {
            std::ofstream jsonFile(opts.get("stats-json"));
            if (!jsonFile)
                fatal("cannot open --stats-json '%s'",
                      opts.get("stats-json").c_str());
            trace::JsonWriter w(jsonFile);
            w.beginObject();
            w.key("schemaVersion")
                .number(std::uint64_t(trace::kStatsJsonSchemaVersion));
            w.key("config").beginObject();
            w.key("arch").string(cpu::renamerKindName(kind));
            w.key("regs").number(opts.getU64("regs"));
            w.key("threads").number(std::uint64_t(programs.size()));
            w.key("windowed").boolean(windowed);
            w.key("insts").number(std::uint64_t(runOpts.measureInsts));
            w.key("mode").string(analysis::simModeName(simMode));
            w.key("sample_period")
                .number(std::uint64_t(runOpts.samplePeriodInsts));
            w.key("sample_quantum")
                .number(std::uint64_t(runOpts.sampleQuantumInsts));
            w.key("sample_detail_warm")
                .number(std::uint64_t(runOpts.sampleDetailWarmInsts));
            w.endObject();
            w.key("summary").beginObject();
            w.key("cycles").number(std::uint64_t(m.cycles));
            w.key("insts").number(std::uint64_t(m.insts));
            w.key("ipc").number(m.ipc);
            w.key("cpi").number(m.cpi);
            w.endObject();
            w.key("sampling").beginObject();
            w.key("samples")
                .number(std::uint64_t(m.sampling.samples));
            w.key("mean_cpi").number(m.sampling.meanCpi);
            w.key("cpi_variance").number(m.sampling.cpiVariance);
            w.key("ci_lo_cpi").number(m.sampling.ciLoCpi);
            w.key("ci_hi_cpi").number(m.sampling.ciHiCpi);
            w.key("ci_unbounded").boolean(m.sampling.ciUnbounded);
            w.key("ipc_ci_lo").number(m.sampling.ipcCiLo());
            w.key("ipc_ci_hi").number(m.sampling.ipcCiHi());
            w.key("mean_tag_valid_fraction")
                .number(m.sampling.meanTagValidFraction);
            w.key("mean_bpred_table_occupancy")
                .number(m.sampling.meanBpredTableOccupancy);
            w.key("records").beginArray();
            for (const analysis::SampleRecord &r : m.sampleRecords) {
                w.beginObject();
                w.key("start_inst")
                    .number(std::uint64_t(r.startInst));
                w.key("warm_cycles")
                    .number(std::uint64_t(r.warmCycles));
                w.key("warm_insts")
                    .number(std::uint64_t(r.warmInsts));
                w.key("cycles").number(std::uint64_t(r.cycles));
                w.key("insts").number(std::uint64_t(r.insts));
                w.key("cpi").number(r.cpi);
                w.key("tag_valid_fraction")
                    .number(r.tagValidFraction);
                w.key("bpred_table_occupancy")
                    .number(r.bpredTableOccupancy);
                w.key("phase").number(double(r.phase));
                w.key("weight").number(r.weight);
                w.endObject();
            }
            w.endArray();
            w.endObject();
            trace::writeJsonGroup(stats::HostStats::global(), w);
            w.endObject();
            jsonFile << '\n';
        }
        return 0;
    }

    cpu::CpuParams params = cpu::CpuParams::preset(
        kind, static_cast<unsigned>(opts.getU64("regs")),
        static_cast<unsigned>(programs.size()));
    params.dcachePorts =
        static_cast<unsigned>(opts.getU64("dcache-ports"));
    params.astqEntries = static_cast<unsigned>(opts.getU64("astq"));
    if (opts.getU64("table-assoc") > 0) {
        params.vcaTableAssoc =
            static_cast<unsigned>(opts.getU64("table-assoc"));
    }
    params.vcaDeadValueHints = opts.getBool("dead-hints");
    // Read every count before simulating, so a malformed one exits
    // with its flag named instead of as a configuration failure.
    const InstCount warmup = opts.getU64("warmup");
    const InstCount insts = opts.getU64("insts");
    const std::uint64_t traceInsts = opts.getU64("trace");
    const std::uint64_t pipeviewInsts = opts.getU64("pipeview-insts");
    const std::uint64_t chromeInsts = opts.getU64("chrome-trace-insts");
    const std::uint64_t intervalInsts = opts.getU64("interval");

    try {
        const auto hostStart = std::chrono::steady_clock::now();
        cpu::OooCpu cpu(params, programs);
        if (traceInsts > 0) {
            cpu::TraceOptions traceOpts;
            traceOpts.maxInsts = traceInsts;
            cpu::attachCommitTracer(cpu, std::cout, traceOpts);
        }
        std::ofstream pipeFile;
        if (!opts.get("pipeview").empty()) {
            pipeFile.open(opts.get("pipeview"));
            if (!pipeFile)
                fatal("cannot open --pipeview '%s'",
                      opts.get("pipeview").c_str());
            cpu::attachPipeTracer(cpu, pipeFile,
                                  pipeviewInsts,
                                  opts.getBool("pipeview-instants"));
        }
        std::unique_ptr<telemetry::ChromeTraceWriter> chromeWriter;
        if (!opts.get("chrome-trace").empty()) {
            chromeWriter = std::make_unique<telemetry::ChromeTraceWriter>(
                opts.get("chrome-trace"));
            telemetry::ChromeSimTraceOptions simTraceOpts;
            simTraceOpts.maxInsts = chromeInsts;
            telemetry::attachChromeSimTracer(cpu, *chromeWriter,
                                             simTraceOpts);
        }
        std::unique_ptr<telemetry::RegCacheAnalyzer> regAnalyzer;
        if (opts.getBool("reg-telemetry")) {
            regAnalyzer = telemetry::attachRegCacheAnalyzer(cpu);
            if (!regAnalyzer)
                warn("--reg-telemetry: architecture '%s' has no "
                     "register cache to analyze",
                     cpu::renamerKindName(kind));
        }
        double warmupCommitted = 0;
        if (warmup) {
            cpu.run(warmup, cpu::cycleBudget(warmup),
                    programs.size() > 1);
            warmupCommitted = cpu.committedTotal.value();
            cpu.resetStats();
        }
        // The interval recorder attaches after warm-up so interval 0
        // starts at the measured region's first commit.
        std::unique_ptr<trace::IntervalRecorder> intervals;
        if (intervalInsts > 0) {
            intervals = std::make_unique<trace::IntervalRecorder>(
                intervalInsts);
            intervals->addProbe("dcache_accesses", [&cpu] {
                return cpu.memSystem().dcache().accesses.value();
            });
            intervals->addProbe("mem_stall_cycles", [&cpu] {
                return cpu.cycleAccounting.memStall.value();
            });
            intervals->addProbe("rename_stall_cycles", [&cpu] {
                return cpu.renameStallCycles.value();
            });
            // One probe per machine-level taxonomy leaf, so interval
            // records double as aligned stall time series for
            // vca-explain.
            using Buckets = cpu::TaxonomyBuckets;
            for (unsigned l = 0; l < Buckets::numLeaves; ++l) {
                const auto leaf = static_cast<Buckets::Leaf>(l);
                intervals->addProbe(
                    std::string("tax.") + Buckets::leafName(leaf),
                    [&cpu, leaf] {
                        return cpu.cycleAccounting.taxonomy
                            .leafValue(leaf);
                    });
            }
            cpu.addCommitListener([&cpu, &intervals](
                                      const cpu::DynInst &) {
                intervals->onCommit(cpu.currentCycle());
            });
        }
        const auto res = cpu.run(insts, cpu::cycleBudget(insts),
                                 programs.size() > 1);
        const std::chrono::duration<double> hostElapsed =
            std::chrono::steady_clock::now() - hostStart;
        if (intervals)
            intervals->finish(cpu.currentCycle());

        // Host throughput for this invocation (warmup included: that
        // is the wall cost of the simulation).
        stats::HostStats hostStats;
        hostStats.record(hostElapsed.count(),
                         warmupCommitted + cpu.committedTotal.value(),
                         static_cast<double>(cpu.currentCycle()),
                         static_cast<double>(cpu.skippedCycles()));

        if (chromeWriter) {
            // One host-time lane so the simulated tracks have a
            // wall-clock anchor alongside them.
            chromeWriter->setProcessName(100, "host time");
            chromeWriter->setThreadName(100, 0, "vca-sim");
            chromeWriter->slice(100, 0, "simulate", 0,
                                hostElapsed.count() * 1e6);
            if (chromeWriter->finish()) {
                inform("wrote chrome trace %s (%llu events)",
                       chromeWriter->path().c_str(),
                       (unsigned long long)chromeWriter->eventCount());
            }
        }

        std::printf("arch=%s regs=%u threads=%zu windowed=%d\n",
                    cpu::renamerKindName(kind), params.physRegs,
                    programs.size(), windowed ? 1 : 0);
        std::printf("cycles=%llu insts=%llu ipc=%.4f cpi=%.4f\n",
                    (unsigned long long)res.cycles,
                    (unsigned long long)res.totalInsts, res.ipc,
                    res.ipc > 0 ? 1.0 / res.ipc : 0.0);
        for (size_t t = 0; t < programs.size(); ++t) {
            std::printf("thread %zu (%s): insts=%llu\n", t,
                        benchNames[t].c_str(),
                        (unsigned long long)res.threadInsts[t]);
        }
        {
            const double cyc = std::max(1.0, double(res.cycles));
            const auto &ca = cpu.cycleAccounting;
            std::printf("cycle accounting: commit=%.1f%% mem=%.1f%% "
                        "exec=%.1f%% rename=%.1f%% window=%.1f%% "
                        "frontend=%.1f%%\n",
                        100 * ca.commitActive.value() / cyc,
                        100 * ca.memStall.value() / cyc,
                        100 * ca.execStall.value() / cyc,
                        100 * ca.renameFreeList.value() / cyc,
                        100 * ca.windowShift.value() / cyc,
                        100 * ca.frontendStall.value() / cyc);
        }
        std::printf("host: seconds=%.3f mips=%.3f cycles_per_sec=%.0f "
                    "skipped=%.0f\n",
                    hostStats.simSeconds.value(),
                    hostStats.simMips.value(),
                    hostStats.cyclesPerSec.value(),
                    hostStats.simCyclesSkipped.value());
        if (opts.getBool("stats")) {
            std::printf("\n-- statistics --\n");
            std::ostringstream os;
            cpu.dump(os);
            hostStats.dump(os);
            std::fputs(os.str().c_str(), stdout);
        }
        if (!opts.get("stats-json").empty()) {
            std::ofstream jsonFile(opts.get("stats-json"));
            if (!jsonFile)
                fatal("cannot open --stats-json '%s'",
                      opts.get("stats-json").c_str());
            trace::JsonWriter w(jsonFile);
            w.beginObject();
            w.key("schemaVersion")
                .number(std::uint64_t(trace::kStatsJsonSchemaVersion));
            w.key("config").beginObject();
            w.key("arch").string(cpu::renamerKindName(kind));
            w.key("regs").number(std::uint64_t(params.physRegs));
            w.key("threads").number(std::uint64_t(programs.size()));
            w.key("windowed").boolean(windowed);
            w.key("insts").number(std::uint64_t(insts));
            w.key("mode").string("detailed");
            w.endObject();
            w.key("summary").beginObject();
            w.key("cycles").number(std::uint64_t(res.cycles));
            w.key("insts").number(std::uint64_t(res.totalInsts));
            w.key("ipc").number(res.ipc);
            w.endObject();
            trace::writeJsonGroup(cpu, w);
            trace::writeJsonGroup(hostStats, w);
            if (intervals)
                intervals->writeJson(w);
            w.endObject();
            jsonFile << '\n';
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr,
                     "configuration cannot operate: %s\n", e.what());
        return 2;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Argument/setup errors raise FatalError too; exit cleanly rather
    // than std::terminate so shell scripts can distinguish bad usage.
    try {
        return simMain(argc, argv);
    } catch (const vca::FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
