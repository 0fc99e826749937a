#include "bench_common.hh"

#include <algorithm>
#include <cctype>
#include <fstream>

#include "trace/json.hh"
#include "wload/profile.hh"

namespace vca::bench {

using analysis::Measurement;
using analysis::SweepPoint;
using cpu::RenamerKind;

FigureSeries
sweepSeries(const std::vector<SeriesSpec> &specs,
            const std::vector<unsigned> &physRegs,
            const analysis::RunOptions &opts,
            const WorkloadMetric &metric)
{
    // One flat batch over the whole grid: the runner parallelizes and
    // memoizes; duplicate points across curves simulate once.
    std::vector<SweepPoint> points;
    for (const SeriesSpec &spec : specs) {
        analysis::RunOptions specOpts = opts;
        specOpts.stopOnFirstThread = spec.stopOnFirstThread;
        for (unsigned p : physRegs) {
            for (const auto &w : spec.workloads) {
                SweepPoint point;
                point.benches = w;
                point.windowed = spec.windowed;
                point.kind = spec.kind;
                point.physRegs = p;
                point.opts = specOpts;
                points.push_back(std::move(point));
            }
        }
    }
    const std::vector<Measurement> results =
        analysis::SweepRunner::global().run(points);

    FigureSeries series;
    series.mode = opts.mode;
    size_t idx = 0;
    for (const SeriesSpec &spec : specs) {
        std::vector<double> row;
        for (size_t s = 0; s < physRegs.size(); ++s) {
            std::vector<double> values;
            bool operable = true;
            for (const auto &w : spec.workloads) {
                const Measurement &m = results[idx++];
                if (m.ok && m.sampling.samples > 0) {
                    SampledPoint e;
                    e.label = spec.label;
                    for (const std::string &b : w)
                        e.workload +=
                            (e.workload.empty() ? "" : "+") + b;
                    e.physRegs = physRegs[s];
                    e.ipc = m.sampling.meanCpi > 0
                        ? 1.0 / m.sampling.meanCpi : 0.0;
                    e.summary = m.sampling;
                    series.sampling.push_back(std::move(e));
                }
                const double v = m.ok ? metric(spec, w, m) : -1.0;
                if (v < 0) {
                    operable = false;
                    continue;
                }
                values.push_back(v);
            }
            row.push_back(operable ? analysis::mean(values) : -1.0);
        }
        series.values[spec.label] = std::move(row);
    }
    return series;
}

FigureSeries
regWindowSweep(const std::vector<unsigned> &physRegs,
               const analysis::RunOptions &opts, bool metricIsDcache,
               unsigned normalizePorts)
{
    const auto benches = wload::regWindowProfiles();

    // Reference: dual-port baseline with 256 physical registers.
    std::map<std::string, double> reference;
    {
        analysis::RunOptions refOpts = opts;
        refOpts.dcachePorts = normalizePorts;
        std::vector<SweepPoint> refPoints;
        for (const auto &prof : benches) {
            refPoints.push_back(analysis::makePoint(
                prof.name, RenamerKind::Baseline, 256, refOpts));
        }
        const auto refResults =
            analysis::SweepRunner::global().run(refPoints);
        for (size_t i = 0; i < benches.size(); ++i) {
            const auto &prof = benches[i];
            const Measurement &m = refResults[i];
            if (!m.ok) {
                // An infrastructure failure (worker crash, deadline)
                // degrades this benchmark's cells to
                // n/a — finishBench() reports it and exits nonzero.
                // A deterministic simulator failure stays fatal: the
                // baseline reference configuration must always run.
                if (m.infra)
                    continue;
                fatal("reference run failed for %s", prof.name.c_str());
            }
            reference[prof.name] = metricIsDcache
                ? analysis::totalDcacheAccesses(prof,
                                                RenamerKind::Baseline, m)
                : analysis::executionTime(prof, RenamerKind::Baseline, m);
        }
    }

    std::vector<SeriesSpec> specs;
    for (RenamerKind kind : regWindowArchs()) {
        SeriesSpec spec;
        spec.label = archLabel(kind);
        spec.kind = kind;
        spec.windowed = analysis::usesWindowedBinary(kind);
        spec.stopOnFirstThread = false;
        for (const auto &prof : benches)
            spec.workloads.push_back({prof.name});
        specs.push_back(std::move(spec));
    }
    return sweepSeries(
        specs, physRegs, opts,
        [&](const SeriesSpec &spec,
            const std::vector<std::string> &benchNames,
            const Measurement &m) {
            const auto &prof = wload::profileByName(benchNames.front());
            const auto ref = reference.find(prof.name);
            if (ref == reference.end())
                return -1.0; // reference infra-failed: cell is n/a
            const double value = metricIsDcache
                ? analysis::totalDcacheAccesses(prof, spec.kind, m)
                : analysis::executionTime(prof, spec.kind, m);
            return value / ref->second;
        });
}

namespace {

/** The `IPC ± CI` table of a sampled sweep (see printSeries). */
void
printCiTable(const std::vector<unsigned> &physRegs,
             const std::vector<SampledPoint> &sampling)
{
    if (sampling.empty())
        return;
    std::printf("sampled IPC ± 95%% CI:\n");
    std::vector<std::string> labels;
    for (const SampledPoint &e : sampling)
        if (std::find(labels.begin(), labels.end(), e.label) ==
            labels.end())
            labels.push_back(e.label);
    for (const std::string &label : labels) {
        std::printf("%-12s", label.c_str());
        for (unsigned regs : physRegs) {
            // An interval with no upper IPC bound makes the mean
            // half-width infinite: the cell prints "±inf".
            double ipc = 0, hw = 0;
            unsigned n = 0;
            bool unbounded = false;
            for (const SampledPoint &e : sampling) {
                if (e.label != label || e.physRegs != regs)
                    continue;
                ipc += e.ipc;
                hw += (e.summary.ipcCiHi() -
                       e.summary.ipcCiLo()) / 2;
                unbounded = unbounded || e.summary.ciUnbounded;
                ++n;
            }
            if (!n) {
                std::printf(" %15s", "n/a");
                continue;
            }
            char cell[32];
            std::snprintf(cell, sizeof(cell), "%.3f±%s%.3f",
                          ipc / n, unbounded ? "inf:" : "",
                          hw / n);
            std::printf(" %15s", cell);
        }
        std::printf("\n");
    }
}

/** Write the figure document $VCA_FIGURE_DIR/<slug>.json (see
 *  printSeries). */
void
writeFigure(const std::string &slug,
            const std::vector<unsigned> &physRegs,
            const FigureSeries &series)
{
    const char *dir = std::getenv("VCA_FIGURE_DIR");
    if (!dir || !*dir)
        return;
    const std::string path = std::string(dir) + "/" + slug + ".json";
    std::ofstream os(path);
    if (!os) {
        warn("cannot write figure document to %s", path.c_str());
        return;
    }
    trace::JsonWriter w(os);
    w.beginObject();
    w.key("bench").string(slug);
    w.key("mode").string(analysis::simModeName(series.mode));
    w.key("phys_regs").beginArray();
    for (unsigned p : physRegs)
        w.number(std::uint64_t(p));
    w.endArray();
    w.key("series").beginObject();
    for (const auto &[name, values] : series.values) {
        w.key(name).beginArray();
        for (double v : values) {
            if (v < 0)
                w.null(); // configuration cannot operate
            else
                w.number(v);
        }
        w.endArray();
    }
    w.endObject();
    // ipc_ci_hi is null (unbounded) when the CPI lower bound is 0.
    w.key("sampling").beginArray();
    for (const SampledPoint &e : series.sampling) {
        w.beginObject();
        w.key("label").string(e.label);
        w.key("workload").string(e.workload);
        w.key("phys_regs").number(std::uint64_t(e.physRegs));
        w.key("samples").number(std::uint64_t(e.summary.samples));
        w.key("ipc").number(e.ipc);
        w.key("ipc_ci_lo").number(e.summary.ipcCiLo());
        w.key("ipc_ci_hi").number(e.summary.ipcCiHi());
        w.key("ci_unbounded").boolean(e.summary.ciUnbounded);
        w.key("mean_cpi").number(e.summary.meanCpi);
        w.key("cpi_variance").number(e.summary.cpiVariance);
        w.key("mean_tag_valid_fraction")
            .number(e.summary.meanTagValidFraction);
        w.key("mean_bpred_table_occupancy")
            .number(e.summary.meanBpredTableOccupancy);
        w.endObject();
    }
    w.endArray();
    // Points lost to infrastructure failures: the cells they feed
    // read null.
    w.key("failures").beginArray();
    for (const auto &f : analysis::SweepRunner::global().allFailures()) {
        w.beginObject();
        w.key("label").string(f.label);
        w.key("error").string(f.error);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    inform("wrote %s", path.c_str());
}

} // namespace

void
printSeries(const char *title, const char *valueName,
            const std::vector<unsigned> &physRegs,
            const FigureSeries &series)
{
    std::printf("\n== %s ==\n", title);
    std::printf("%-12s", "arch");
    for (unsigned p : physRegs)
        std::printf(" %9u", p);
    std::printf("   (%s)\n", valueName);
    for (const auto &[name, values] : series.values) {
        std::printf("%-12s", name.c_str());
        for (double v : values) {
            if (v < 0)
                std::printf(" %9s", "n/a");
            else
                std::printf(" %9.3f", v);
        }
        std::printf("\n");
    }
    printCiTable(physRegs, series.sampling);

    std::string slug;
    for (const char *c = title; *c && *c != ':'; ++c)
        slug += (*c == ' ') ? '_' : static_cast<char>(
            std::tolower(static_cast<unsigned char>(*c)));
    writeFigure(slug, physRegs, series);
}

int
finishBench()
{
    const auto failures = analysis::SweepRunner::global().allFailures();
    if (failures.empty())
        return 0;
    std::fprintf(stderr,
                 "bench: %zu sweep point(s) failed; the affected cells "
                 "read n/a:\n",
                 failures.size());
    for (const auto &f : failures) {
        std::fprintf(stderr,
                     "  %s: %s (reproduce in-process: rerun with "
                     "VCA_ISOLATE=0)\n",
                     f.label.c_str(), f.error.c_str());
    }
    return 3;
}

void
printCycleAccounting(const std::vector<cpu::RenamerKind> &archs,
                     unsigned physRegs,
                     const analysis::RunOptions &opts,
                     const std::string &benchName)
{
    std::printf("\n== Cycle accounting: %s @ %u phys regs ==\n",
                benchName.c_str(), physRegs);
    std::vector<SweepPoint> points;
    for (RenamerKind kind : archs)
        points.push_back(
            analysis::makePoint(benchName, kind, physRegs, opts));
    const auto results = analysis::SweepRunner::global().run(points);
    bool header = false;
    for (size_t i = 0; i < archs.size(); ++i) {
        const Measurement &m = results[i];
        if (!header && m.ok) {
            std::printf("%-12s", "arch");
            for (const auto &[name, frac] : m.cycleBreakdown)
                std::printf(" %10s", name.c_str());
            std::printf("   (%% of cycles)\n");
            header = true;
        }
        std::printf("%-12s", archLabel(archs[i]));
        if (!m.ok) {
            std::printf(" %9s\n", "n/a");
            continue;
        }
        for (const auto &[name, frac] : m.cycleBreakdown)
            std::printf("     %5.1f%%", 100 * frac);
        std::printf("\n");
    }
}

analysis::WorkloadSelection
benchWorkloads()
{
    analysis::SelectionOptions sel;
    sel.numTwoThread =
        static_cast<unsigned>(envU64("VCA_WORKLOADS_2T", 8));
    sel.numFourThread =
        static_cast<unsigned>(envU64("VCA_WORKLOADS_4T", 6));
    sel.statInsts = envU64("VCA_SELECT_INSTS", 25'000);
    return analysis::selectWorkloads(sel);
}

const std::map<std::string, double> &
singleThreadReference(const analysis::RunOptions &opts)
{
    static std::map<std::string, double> refs;
    if (refs.empty()) {
        analysis::RunOptions refOpts = opts;
        refOpts.stopOnFirstThread = false;
        refOpts.numThreads = 1;
        const auto &profiles = wload::spec2000Profiles();
        std::vector<SweepPoint> points;
        for (const auto &prof : profiles) {
            points.push_back(analysis::makePoint(
                prof.name, cpu::RenamerKind::Baseline, 256, refOpts));
        }
        const auto results = analysis::SweepRunner::global().run(points);
        for (size_t i = 0; i < profiles.size(); ++i) {
            const auto &prof = profiles[i];
            if (!results[i].ok) {
                // Same degradation policy as regWindowSweep: infra
                // failures drop the benchmark (its workloads read
                // n/a), deterministic failures stay fatal.
                if (results[i].infra)
                    continue;
                fatal("single-thread reference failed for %s",
                      prof.name.c_str());
            }
            refs[prof.name] = analysis::executionTime(
                prof, cpu::RenamerKind::Baseline, results[i]);
        }
    }
    return refs;
}

analysis::SweepPoint
smtPoint(const std::vector<std::string> &benches, RenamerKind kind,
         unsigned physRegs, bool windowedBinaries,
         const analysis::RunOptions &baseOpts)
{
    SweepPoint point;
    point.benches = benches;
    point.windowed = windowedBinaries;
    point.kind = kind;
    point.physRegs = physRegs;
    point.opts = baseOpts;
    point.opts.stopOnFirstThread = true;
    return point;
}

double
weightedSpeedupFrom(const std::vector<std::string> &benches,
                    bool windowedBinaries, const Measurement &m,
                    const analysis::RunOptions &baseOpts)
{
    if (!m.ok)
        return -1.0;
    const auto &refs = singleThreadReference(baseOpts);

    double speedup = 0;
    for (size_t t = 0; t < benches.size(); ++t) {
        const auto &prof = wload::profileByName(benches[t]);
        const double smtExec = m.threadCpi[t] *
            static_cast<double>(
                analysis::pathLength(prof, windowedBinaries));
        if (smtExec <= 0)
            return -1.0;
        const auto ref = refs.find(benches[t]);
        if (ref == refs.end())
            return -1.0; // reference infra-failed: workload is n/a
        speedup += ref->second / smtExec;
    }
    return speedup;
}

double
weightedSpeedup(const std::vector<std::string> &benches,
                RenamerKind kind, unsigned physRegs,
                bool windowedBinaries,
                const analysis::RunOptions &baseOpts)
{
    const Measurement m = analysis::SweepRunner::global().runPoint(
        smtPoint(benches, kind, physRegs, windowedBinaries, baseOpts));
    return weightedSpeedupFrom(benches, windowedBinaries, m, baseOpts);
}

double
cacheAccessMetricFrom(const std::vector<std::string> &benches,
                      bool windowedBinaries, const Measurement &m)
{
    if (!m.ok)
        return -1.0;
    double work = 0;
    for (size_t t = 0; t < benches.size(); ++t) {
        const auto &prof = wload::profileByName(benches[t]);
        work += static_cast<double>(m.threadInsts[t]) /
                static_cast<double>(
                    analysis::pathLength(prof, windowedBinaries));
    }
    return work > 0 ? m.dcacheAccesses / work : -1.0;
}

double
cacheAccessMetric(const std::vector<std::string> &benches,
                  RenamerKind kind, unsigned physRegs,
                  bool windowedBinaries,
                  const analysis::RunOptions &baseOpts)
{
    const Measurement m = analysis::SweepRunner::global().runPoint(
        smtPoint(benches, kind, physRegs, windowedBinaries, baseOpts));
    return cacheAccessMetricFrom(benches, windowedBinaries, m);
}

} // namespace vca::bench
