#include "analysis/explain.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "analysis/sampling.hh"
#include "sim/logging.hh"
#include "trace/json.hh"

namespace vca::analysis {

namespace {

double
numberAt(const trace::JsonValue &obj, const char *key,
         const std::string &path)
{
    const trace::JsonValue *v = obj.find(key);
    if (!v || !v->isNumber())
        fatal("stats-json %s: missing number '%s'", path.c_str(),
                   key);
    return v->asNumber();
}

/** Collect every scalar under a taxonomy group as dotted leaf names,
 *  skipping the per-thread subtrees (the machine-level partition is
 *  what attribution uses). */
void
collectLeaves(const trace::JsonValue &group, const std::string &prefix,
              std::vector<std::pair<std::string, double>> &out)
{
    for (const auto &[name, value] : group.members()) {
        if (name.rfind("thread", 0) == 0)
            continue;
        const std::string dotted =
            prefix.empty() ? name : prefix + "." + name;
        if (value.isNumber())
            out.emplace_back(dotted, value.asNumber());
        else if (value.isObject())
            collectLeaves(value, dotted, out);
    }
}

/** Linear interpolation of a cumulative series at instruction n. */
double
interpCum(const std::vector<double> &inst,
          const std::vector<double> &cum, double n)
{
    if (inst.empty())
        return 0;
    if (n <= inst.front())
        return cum.front();
    if (n >= inst.back())
        return cum.back();
    size_t hi = 1;
    while (hi < inst.size() && inst[hi] < n)
        ++hi;
    const double x0 = inst[hi - 1], x1 = inst[hi];
    const double y0 = cum[hi - 1], y1 = cum[hi];
    if (x1 <= x0)
        return y1;
    return y0 + (y1 - y0) * (n - x0) / (x1 - x0);
}

/** Cumulative view of one run's interval series (instruction axis). */
struct CumSeries
{
    std::vector<double> inst;   ///< committed insts at record ends
    std::vector<double> cycles; ///< cumulative cycles
    std::map<std::string, std::vector<double>> leaf; ///< per leaf

    explicit CumSeries(const ExplainInput &in)
    {
        inst.push_back(0);
        cycles.push_back(0);
        const std::vector<std::string> &names = in.intervalLeafNames;
        std::map<std::string, double> run;
        for (const std::string &name : names)
            run.emplace(name, 0);
        for (const auto &[name, total] : run)
            leaf[name].push_back(0);
        double cyc = 0;
        for (const ExplainInterval &rec : in.intervals) {
            cyc += rec.cycles;
            inst.push_back(rec.committedCum);
            cycles.push_back(cyc);
            for (size_t i = 0; i < names.size() &&
                     i < rec.leafCycles.size(); ++i)
                run[names[i]] += rec.leafCycles[i];
            for (auto &[name, series] : leaf)
                series.push_back(run[name]);
        }
    }

    double cyclesAt(double n) const { return interpCum(inst, cycles, n); }

    double
    leafAt(const std::string &name, double n) const
    {
        auto it = leaf.find(name);
        return it == leaf.end() ? 0 : interpCum(inst, it->second, n);
    }
};

std::vector<IntervalHotspot>
alignIntervals(const ExplainInput &a, const ExplainInput &b)
{
    std::vector<IntervalHotspot> hotspots;
    if (a.intervals.size() < 2 || b.intervals.size() < 2)
        return hotspots;

    const CumSeries ca(a), cb(b);
    const double lastA = ca.inst.back(), lastB = cb.inst.back();
    const double n = std::min(lastA, lastB);
    if (n <= 0)
        return hotspots;

    const size_t bins = std::min<size_t>(
        10, std::min(a.intervals.size(), b.intervals.size()));
    std::set<std::string> leafNames;
    for (const auto &[name, series] : ca.leaf)
        leafNames.insert(name);
    for (const auto &[name, series] : cb.leaf)
        leafNames.insert(name);

    double totalGap = 0;
    std::vector<IntervalHotspot> all;
    for (size_t k = 0; k < bins; ++k) {
        const double n0 = n * static_cast<double>(k) / bins;
        const double n1 = n * static_cast<double>(k + 1) / bins;
        IntervalHotspot h;
        h.instLo = n0;
        h.instHi = n1;
        const double cycA = ca.cyclesAt(n1) - ca.cyclesAt(n0);
        const double cycB = cb.cyclesAt(n1) - cb.cyclesAt(n0);
        const double dn = n1 - n0;
        h.cpiA = dn > 0 ? cycA / dn : 0;
        h.cpiB = dn > 0 ? cycB / dn : 0;
        h.gapCycles = cycB - cycA;
        totalGap += h.gapCycles;
        double best = -1;
        for (const std::string &name : leafNames) {
            const double dl =
                (cb.leafAt(name, n1) - cb.leafAt(name, n0)) -
                (ca.leafAt(name, n1) - ca.leafAt(name, n0));
            if (std::fabs(dl) > best) {
                best = std::fabs(dl);
                h.topLeaf = name;
            }
        }
        all.push_back(std::move(h));
    }
    for (IntervalHotspot &h : all)
        h.gapShare = totalGap != 0 ? h.gapCycles / totalGap : 0;
    std::stable_sort(all.begin(), all.end(),
                     [](const IntervalHotspot &x,
                        const IntervalHotspot &y) {
                         return x.gapCycles > y.gapCycles;
                     });
    if (all.size() > 3)
        all.resize(3);
    return all;
}

std::string
formatDouble(const char *fmt, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

} // namespace

ExplainInput
loadRunJson(const std::string &path, const std::string &label)
{
    std::ifstream is(path);
    if (!is)
        fatal("vca-explain: cannot open '%s'", path.c_str());
    std::stringstream ss;
    ss << is.rdbuf();
    const trace::JsonValue doc = trace::JsonValue::parse(ss.str());
    if (!doc.isObject())
        fatal("stats-json %s: not an object", path.c_str());

    ExplainInput in;
    in.label = label.empty() ? path : label;

    if (const trace::JsonValue *cfg = doc.find("config")) {
        std::ostringstream os;
        bool first = true;
        for (const auto &[name, value] : cfg->members()) {
            if (!first)
                os << " ";
            first = false;
            os << name << "=";
            if (value.isNumber())
                os << trace::jsonNumber(value.asNumber());
            else if (value.kind() == trace::JsonValue::Kind::String)
                os << value.asString();
            else if (value.kind() == trace::JsonValue::Kind::Bool)
                os << (value.asBool() ? "true" : "false");
        }
        in.config = os.str();
    }

    const trace::JsonValue *summary = doc.find("summary");
    if (!summary || !summary->isObject())
        fatal("stats-json %s: missing summary", path.c_str());
    in.cycles = numberAt(*summary, "cycles", path);
    in.insts = numberAt(*summary, "insts", path);

    // The machine-level taxonomy is the only partition attribution
    // uses; a document without one (or whose leaves do not sum to its
    // cycles) cannot be explained, so say so rather than report 0%.
    const trace::JsonValue *tax =
        doc.findPath("cpu.cycle_accounting.taxonomy");
    if (!tax || !tax->isObject()) {
        const trace::JsonValue *mode = doc.findPath("config.mode");
        if (mode && mode->kind() == trace::JsonValue::Kind::String &&
            mode->asString() != "detailed") {
            const std::string m = mode->asString();
            fatal("stats-json %s: a %s-mode document has no cycle "
                  "taxonomy to attribute; use --sampling --spec "
                  "...,mode=%s for its sampling error, or --spec "
                  "...,mode=%s to attribute it against another run",
                  path.c_str(), m.c_str(), m.c_str(), m.c_str());
        }
        fatal("stats-json %s: missing cpu.cycle_accounting.taxonomy",
              path.c_str());
    }
    collectLeaves(*tax, "", in.leaves);
    double taxSum = 0;
    for (const auto &[name, cycles] : in.leaves)
        taxSum += cycles;
    if (taxSum != in.cycles)
        fatal("stats-json %s: taxonomy leaves sum to %s, not "
              "summary.cycles %s", path.c_str(),
              trace::jsonNumber(taxSum).c_str(),
              trace::jsonNumber(in.cycles).c_str());

    if (const trace::JsonValue *intervals = doc.find("intervals")) {
        if (intervals->isArray() && intervals->size() > 0) {
            for (const auto &[name, value] :
                     intervals->at(0).members())
                if (name.rfind("tax.", 0) == 0)
                    in.intervalLeafNames.push_back(name.substr(4));
            for (size_t i = 0; i < intervals->size(); ++i) {
                const trace::JsonValue &rec = intervals->at(i);
                ExplainInterval iv;
                iv.committedCum =
                    numberAt(rec, "committed_cum", path);
                iv.cycles = numberAt(rec, "end_cycle", path) -
                            numberAt(rec, "start_cycle", path);
                if (const trace::JsonValue *p = rec.find("partial"))
                    iv.partial = p->asBool();
                for (const std::string &leaf : in.intervalLeafNames) {
                    const trace::JsonValue *v =
                        rec.find("tax." + leaf);
                    iv.leafCycles.push_back(
                        v && v->isNumber() ? v->asNumber() : 0);
                }
                in.intervals.push_back(std::move(iv));
            }
        }
    }
    return in;
}

ExplainInput
explainInputFromMeasurement(const std::string &label,
                            const std::string &config,
                            const Measurement &m)
{
    ExplainInput in;
    in.label = label;
    in.config = config;
    if (!m.ok) {
        in.config += " (inoperable: " + m.error + ")";
        return in;
    }
    in.cycles = static_cast<double>(m.cycles);
    in.insts = static_cast<double>(m.insts);
    in.leaves = m.taxonomy;
    return in;
}

ExplainReport
explain(const ExplainInput &a, const ExplainInput &b)
{
    ExplainReport r;
    r.labelA = a.label;
    r.labelB = b.label;
    r.configA = a.config;
    r.configB = b.config;
    r.cyclesA = a.cycles;
    r.cyclesB = b.cycles;
    r.instsA = a.insts;
    r.instsB = b.insts;
    r.cpiA = a.cpi();
    r.cpiB = b.cpi();
    r.gap = r.cpiB - r.cpiA;

    std::map<std::string, double> cycA, cycB;
    for (const auto &[name, cycles] : a.leaves)
        cycA[name] += cycles;
    for (const auto &[name, cycles] : b.leaves)
        cycB[name] += cycles;
    std::set<std::string> names;
    for (const auto &[name, cycles] : cycA)
        names.insert(name);
    for (const auto &[name, cycles] : cycB)
        names.insert(name);

    double attributed = 0;
    for (const std::string &name : names) {
        Attribution att;
        att.leaf = name;
        att.cpiA = a.insts > 0 ? cycA[name] / a.insts : 0;
        att.cpiB = b.insts > 0 ? cycB[name] / b.insts : 0;
        att.delta = att.cpiB - att.cpiA;
        att.share = r.gap != 0 ? att.delta / r.gap : 0;
        attributed += att.delta;
        r.attributions.push_back(std::move(att));
    }
    std::stable_sort(r.attributions.begin(), r.attributions.end(),
                     [](const Attribution &x, const Attribution &y) {
                         const double ax = std::fabs(x.delta);
                         const double ay = std::fabs(y.delta);
                         if (ax != ay)
                             return ax > ay;
                         return x.leaf < y.leaf;
                     });
    r.attributedFraction =
        r.gap != 0 ? attributed / r.gap
                   : (r.attributions.empty() ? 0 : 1.0);

    r.hotspots = alignIntervals(a, b);
    return r;
}

std::string
renderReport(const ExplainReport &r, bool markdown)
{
    std::ostringstream os;
    const char *hl = markdown ? "**" : "";

    if (markdown)
        os << "# vca-explain: " << r.labelA << " vs " << r.labelB
           << "\n\n";
    else
        os << "vca-explain: " << r.labelA << " vs " << r.labelB
           << "\n";

    auto runLine = [&](const char *tag, const std::string &label,
                       const std::string &config, double cpi,
                       double cycles, double insts) {
        if (markdown)
            os << "- " << hl << tag << hl << " " << label;
        else
            os << "  " << tag << ": " << label;
        if (!config.empty())
            os << " [" << config << "]";
        os << "  cpi=" << formatDouble("%.4f", cpi)
           << " (cycles=" << trace::jsonNumber(cycles)
           << ", insts=" << trace::jsonNumber(insts) << ")\n";
    };
    runLine("A", r.labelA, r.configA, r.cpiA, r.cyclesA, r.instsA);
    runLine("B", r.labelB, r.configB, r.cpiB, r.cyclesB, r.instsB);

    os << (markdown ? "\n" : "  ") << hl << "CPI gap: "
       << formatDouble("%+.4f", r.gap);
    if (r.cpiA > 0)
        os << " (" << formatDouble("%+.1f", 100 * r.gap / r.cpiA)
           << "% vs A)";
    os << hl << "  attributed: "
       << formatDouble("%.1f", 100 * r.attributedFraction) << "%\n\n";

    if (markdown) {
        os << "| rank | leaf | cpi A | cpi B | delta | share |\n";
        os << "|-----:|------|------:|------:|------:|------:|\n";
        int rank = 1;
        for (const Attribution &att : r.attributions)
            os << "| " << rank++ << " | `" << att.leaf << "` | "
               << formatDouble("%.4f", att.cpiA) << " | "
               << formatDouble("%.4f", att.cpiB) << " | "
               << formatDouble("%+.4f", att.delta) << " | "
               << formatDouble("%.1f", 100 * att.share) << "% |\n";
    } else {
        os << "  rank  leaf                              "
           << "cpi A     cpi B      delta   share\n";
        int rank = 1;
        for (const Attribution &att : r.attributions) {
            char line[160];
            std::snprintf(line, sizeof(line),
                          "  %4d  %-32s %8.4f  %8.4f  %+9.4f  %5.1f%%\n",
                          rank++, att.leaf.c_str(), att.cpiA,
                          att.cpiB, att.delta, 100 * att.share);
            os << line;
        }
    }

    if (!r.hotspots.empty()) {
        os << (markdown
                   ? "\n## Where the gap opens\n\n"
                   : "\n  where the gap opens "
                     "(committed-instruction windows):\n");
        int rank = 1;
        for (const IntervalHotspot &h : r.hotspots) {
            if (markdown) {
                os << rank++ << ". insts ["
                   << trace::jsonNumber(h.instLo) << ", "
                   << trace::jsonNumber(h.instHi) << "): cpi "
                   << formatDouble("%.3f", h.cpiA) << " -> "
                   << formatDouble("%.3f", h.cpiB) << ", "
                   << formatDouble("%.1f", 100 * h.gapShare)
                   << "% of gap, top leaf `" << h.topLeaf << "`\n";
            } else {
                char line[200];
                std::snprintf(
                    line, sizeof(line),
                    "  %4d  insts [%.0f, %.0f)  cpi %.3f -> %.3f"
                    "  %5.1f%% of gap  top leaf: %s\n",
                    rank++, h.instLo, h.instHi, h.cpiA, h.cpiB,
                    100 * h.gapShare, h.topLeaf.c_str());
                os << line;
            }
        }
    }
    return os.str();
}

int
explainSelftest()
{
    // Two synthetic runs over 100k committed instructions. B plants a
    // 40k-cycle spill-stall gap confined to the second half of the
    // run; everything else is identical.
    ExplainInput a;
    a.label = "base";
    a.config = "synthetic";
    a.insts = 100'000;
    a.cycles = 150'000;
    a.leaves = {
        {"retiring", 100'000},
        {"backend_core.exec", 30'000},
        {"backend_memory.dcache", 20'000},
        {"backend_memory.spill_stall", 0},
    };
    a.intervalLeafNames = {"retiring", "backend_core.exec",
                           "backend_memory.dcache",
                           "backend_memory.spill_stall"};
    ExplainInput b = a;
    b.label = "spilly";
    b.cycles = 190'000;
    b.leaves.back().second = 40'000; // the planted spill-stall gap

    for (int i = 0; i < 10; ++i) {
        ExplainInterval iv;
        iv.committedCum = (i + 1) * 10'000.0;
        iv.cycles = 15'000;
        iv.leafCycles = {10'000, 3'000, 2'000, 0};
        a.intervals.push_back(iv);
        if (i >= 5) {
            iv.cycles = 23'000;
            iv.leafCycles = {10'000, 3'000, 2'000, 8'000};
        }
        b.intervals.push_back(iv);
    }

    const ExplainReport r = explain(a, b);
    int failures = 0;
    auto check = [&](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr,
                         "vca-explain selftest FAILED: %s\n", what);
            ++failures;
        }
    };

    check(std::fabs(r.gap - 0.4) < 1e-9, "CPI gap is the planted 0.4");
    check(std::fabs(r.attributedFraction - 1.0) < 1e-9,
          "full partitions attribute 100% of the gap");
    check(!r.attributions.empty() &&
              r.attributions[0].leaf == "backend_memory.spill_stall",
          "top attribution is the planted spill-stall leaf");
    check(!r.attributions.empty() &&
              std::fabs(r.attributions[0].delta - 0.4) < 1e-9,
          "planted leaf carries the whole delta");
    check(!r.hotspots.empty() && r.hotspots[0].instLo >= 50'000 - 1,
          "top hotspot lies in the planted second half");
    check(!r.hotspots.empty() &&
              r.hotspots[0].topLeaf == "backend_memory.spill_stall",
          "top hotspot blames the planted leaf");

    const std::string text = renderReport(r, false);
    const std::string md = renderReport(r, true);
    check(text.find("backend_memory.spill_stall") != std::string::npos,
          "terminal report names the planted leaf");
    check(md.find("| 1 | `backend_memory.spill_stall`") !=
              std::string::npos,
          "markdown report ranks the planted leaf first");

    if (failures == 0)
        std::fprintf(stderr, "vca-explain selftest: all checks "
                             "passed\n");
    return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// Sampling error attribution
// ---------------------------------------------------------------------

namespace {

/** Pearson r; 0 when either axis is (near-)constant or n < 2. */
double
pearson(const std::vector<double> &xs, const std::vector<double> &ys)
{
    const size_t n = xs.size();
    if (n < 2 || ys.size() != n)
        return 0;
    double mx = 0, my = 0;
    for (size_t i = 0; i < n; ++i) {
        mx += xs[i];
        my += ys[i];
    }
    mx /= static_cast<double>(n);
    my /= static_cast<double>(n);
    double sxy = 0, sxx = 0, syy = 0;
    for (size_t i = 0; i < n; ++i) {
        sxy += (xs[i] - mx) * (ys[i] - my);
        sxx += (xs[i] - mx) * (xs[i] - mx);
        syy += (ys[i] - my) * (ys[i] - my);
    }
    if (sxx <= 1e-12 || syy <= 1e-12)
        return 0;
    return sxy / std::sqrt(sxx * syy);
}

} // namespace

SamplingReport
explainSampling(const std::string &config, const Measurement &sampled,
                const Measurement &detailed)
{
    SamplingReport r;
    r.config = config;
    r.summary = sampled.sampling;
    r.sampledIpc =
        r.summary.meanCpi > 0 ? 1.0 / r.summary.meanCpi : 0;
    r.detailedCpi = detailed.insts > 0
        ? static_cast<double>(detailed.cycles) /
          static_cast<double>(detailed.insts)
        : 0;
    r.detailedIpc = r.detailedCpi > 0 ? 1.0 / r.detailedCpi : 0;
    if (r.detailedIpc > 0)
        r.ipcErrorPct =
            100.0 * (r.sampledIpc - r.detailedIpc) / r.detailedIpc;
    r.detailedIpcInCi = r.summary.samples > 0 &&
        (r.summary.ciUnbounded ||
         (r.detailedIpc >= r.summary.ipcCiLo() &&
          r.detailedIpc <= r.summary.ipcCiHi()));

    std::vector<double> absErr, tagValid, bpredOcc;
    std::map<int, PhaseDeviation> phases;
    double worstAbs = -1;
    int idx = 0;
    for (const SampleRecord &rec : sampled.sampleRecords) {
        SampleDeviation d;
        d.index = idx++;
        d.rec = rec;
        d.cpiError = rec.cpi - r.detailedCpi;
        if (std::fabs(d.cpiError) > worstAbs) {
            worstAbs = std::fabs(d.cpiError);
            r.worstSample = d.index;
        }
        absErr.push_back(std::fabs(d.cpiError));
        tagValid.push_back(rec.tagValidFraction);
        bpredOcc.push_back(rec.bpredTableOccupancy);
        if (rec.phase >= 0) {
            PhaseDeviation &p = phases[rec.phase];
            p.phase = rec.phase;
            p.weight = rec.weight;
            ++p.samples;
            p.meanCpi += rec.cpi;
            p.meanAbsError += std::fabs(d.cpiError);
        }
        r.samples.push_back(std::move(d));
    }
    r.corrTagValid = pearson(tagValid, absErr);
    r.corrBpredOcc = pearson(bpredOcc, absErr);
    for (auto &[phase, p] : phases) {
        p.meanCpi /= p.samples;
        p.meanAbsError /= p.samples;
        r.phases.push_back(p);
    }
    return r;
}

std::string
renderSamplingReport(const SamplingReport &r, bool markdown)
{
    std::ostringstream os;
    const char *hl = markdown ? "**" : "";

    if (markdown)
        os << "# vca-explain --sampling: " << r.config << "\n\n";
    else
        os << "vca-explain --sampling: " << r.config << "\n";

    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s  sampled:  IPC %.4f (CPI %.4f), 95%% CI "
                  "[%.4f, %.4f] over %u sample%s%s\n",
                  markdown ? "-" : "", r.sampledIpc, r.summary.meanCpi,
                  r.summary.ipcCiLo(), r.summary.ipcCiHi(),
                  r.summary.samples, r.summary.samples == 1 ? "" : "s",
                  r.summary.ciUnbounded ? " (CI unbounded: n=1)" : "");
    os << line;
    std::snprintf(line, sizeof(line),
                  "%s  detailed: IPC %.4f (CPI %.4f)\n",
                  markdown ? "-" : "", r.detailedIpc, r.detailedCpi);
    os << line;
    std::snprintf(line, sizeof(line),
                  "%s  %sIPC error %+.2f%%%s; detailed IPC %s the "
                  "95%% CI\n",
                  markdown ? "-" : "", hl, r.ipcErrorPct, hl,
                  r.detailedIpcInCi ? "inside" : "OUTSIDE");
    os << line;

    if (!r.samples.empty()) {
        os << (markdown
                   ? "\n## Per-sample deviation\n\n"
                     "| idx | start inst | cpi | error | tag valid |"
                     " bpred occ | phase |\n"
                     "|----:|-----------:|----:|------:|----------:|"
                     "----------:|------:|\n"
                   : "\n  per-sample deviation (cpi - detailed cpi; "
                     "worst marked *):\n"
                     "   idx  start_inst       cpi     error  "
                     "tag_valid  bpred_occ  phase\n");
        for (const SampleDeviation &d : r.samples) {
            if (markdown) {
                std::snprintf(line, sizeof(line),
                              "| %d | %llu | %.4f | %+.4f | %.4f |"
                              " %.4f | %s |\n",
                              d.index,
                              static_cast<unsigned long long>(
                                  d.rec.startInst),
                              d.rec.cpi, d.cpiError,
                              d.rec.tagValidFraction,
                              d.rec.bpredTableOccupancy,
                              d.rec.phase < 0
                                  ? "-"
                                  : std::to_string(d.rec.phase)
                                        .c_str());
            } else {
                std::snprintf(line, sizeof(line),
                              "  %c%3d  %10llu  %8.4f  %+8.4f     "
                              "%.4f     %.4f  %5s\n",
                              d.index == r.worstSample ? '*' : ' ',
                              d.index,
                              static_cast<unsigned long long>(
                                  d.rec.startInst),
                              d.rec.cpi, d.cpiError,
                              d.rec.tagValidFraction,
                              d.rec.bpredTableOccupancy,
                              d.rec.phase < 0
                                  ? "-"
                                  : std::to_string(d.rec.phase)
                                        .c_str());
            }
            os << line;
        }

        os << (markdown
                   ? "\n## Warmth correlation\n\n"
                   : "\n  warmth correlation (Pearson r of |error| "
                     "vs transplant warmth):\n");
        std::snprintf(line, sizeof(line),
                      "%s  cache-tag valid fraction: %+.2f\n"
                      "%s  bpred table occupancy:    %+.2f\n",
                      markdown ? "-" : "", r.corrTagValid,
                      markdown ? "-" : "", r.corrBpredOcc);
        os << line
           << (markdown ? "" : "  ")
           << "  (negative r: colder transplants deviate more)\n";
    }

    if (!r.phases.empty()) {
        os << (markdown
                   ? "\n## Per-phase (SimPoint)\n\n"
                     "| phase | weight | samples | mean cpi |"
                     " mean abs error |\n"
                     "|------:|-------:|--------:|---------:|"
                     "---------------:|\n"
                   : "\n  per-phase (SimPoint):\n"
                     "  phase  weight  samples  mean_cpi  "
                     "mean|error|\n");
        for (const PhaseDeviation &p : r.phases) {
            if (markdown)
                std::snprintf(line, sizeof(line),
                              "| %d | %.4f | %u | %.4f | %.4f |\n",
                              p.phase, p.weight, p.samples, p.meanCpi,
                              p.meanAbsError);
            else
                std::snprintf(line, sizeof(line),
                              "  %5d  %6.4f  %7u  %8.4f     %8.4f\n",
                              p.phase, p.weight, p.samples, p.meanCpi,
                              p.meanAbsError);
            os << line;
        }
    }
    return os.str();
}

int
samplingSelftest()
{
    // A synthetic sampled run against a detailed CPI of 1.0: sample 2
    // is planted cold (low warmth) with a large deviation, so the
    // worst-sample pick and the warmth correlation sign are known.
    Measurement detailed;
    detailed.ok = true;
    detailed.cycles = 100'000;
    detailed.insts = 100'000;

    Measurement sampled;
    sampled.ok = true;
    auto mkRec = [](InstCount start, double cpi, double tag,
                    double bp, int phase, double weight) {
        SampleRecord rec;
        rec.startInst = start;
        rec.cycles = static_cast<Cycle>(cpi * 1000);
        rec.insts = 1000;
        rec.cpi = cpi;
        rec.tagValidFraction = tag;
        rec.bpredTableOccupancy = bp;
        rec.phase = phase;
        rec.weight = weight;
        return rec;
    };
    sampled.sampleRecords = {
        mkRec(10'000, 1.02, 0.90, 0.80, 0, 0.5),
        mkRec(30'000, 0.98, 0.85, 0.75, 0, 0.5),
        mkRec(50'000, 1.40, 0.10, 0.05, 1, 0.3),
        mkRec(70'000, 1.05, 0.70, 0.60, 2, 0.2),
    };
    sampled.sampling = computeSamplingSummary(sampled.sampleRecords);

    const SamplingReport r =
        explainSampling("synthetic", sampled, detailed);

    int failures = 0;
    auto check = [&](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr,
                         "vca-explain sampling selftest FAILED: %s\n",
                         what);
            ++failures;
        }
    };

    check(std::fabs(r.detailedCpi - 1.0) < 1e-12,
          "detailed CPI is the planted 1.0");
    check(r.worstSample == 2, "worst sample is the planted cold one");
    check(r.samples.size() == 4 &&
              std::fabs(r.samples[2].cpiError - 0.40) < 1e-9,
          "planted deviation is recovered per sample");
    check(r.corrTagValid < -0.5,
          "error anti-correlates with cache-tag warmth");
    check(r.corrBpredOcc < -0.5,
          "error anti-correlates with bpred warmth");
    check(r.phases.size() == 3, "three SimPoint phases aggregate");
    check(!r.phases.empty() && r.phases[0].samples == 2,
          "phase 0 rolls up both of its samples");
    bool phase1Worst = false;
    for (const PhaseDeviation &p : r.phases)
        if (p.phase == 1)
            phase1Worst = p.meanAbsError > 0.35;
    check(phase1Worst, "phase 1 carries the planted error");

    // Degenerate: a single sample must flag an unbounded CI and the
    // containment check must not reject it.
    Measurement one;
    one.ok = true;
    one.sampleRecords = {mkRec(10'000, 1.20, 0.5, 0.5, -1, 1.0)};
    one.sampling = computeSamplingSummary(one.sampleRecords);
    const SamplingReport r1 =
        explainSampling("synthetic-n1", one, detailed);
    check(r1.summary.ciUnbounded, "n=1 flags an unbounded CI");
    check(r1.detailedIpcInCi,
          "unbounded CI contains the detailed IPC by definition");

    const std::string text = renderSamplingReport(r, false);
    const std::string md = renderSamplingReport(r, true);
    check(text.find("per-phase (SimPoint)") != std::string::npos,
          "terminal report includes the per-phase table");
    check(text.find("warmth correlation") != std::string::npos,
          "terminal report includes the warmth correlation");
    check(md.find("## Per-sample deviation") != std::string::npos,
          "markdown report includes the per-sample table");

    if (failures == 0)
        std::fprintf(stderr, "vca-explain sampling selftest: all "
                             "checks passed\n");
    return failures == 0 ? 0 : 1;
}

} // namespace vca::analysis
