#include "analysis/sampling.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>

#include "analysis/simpoint.hh"
#include "func/func_sim.hh"
#include "sim/logging.hh"
#include "stats/host_stats.hh"
#include "telemetry/chrome_trace.hh"

namespace vca::analysis {

namespace {

/**
 * Sample-timeline lane for --chrome-trace in the non-detailed modes:
 * fast-forward spans, per-sample warm-up/measure quanta and transplant
 * instants, in host time (the fast-forward/detail split is a host-cost
 * story; simulated time is discontinuous across samples anyway). Lives
 * on its own pid so Perfetto renders it as a separate process group
 * from the sweep-runner host lanes (pid 100).
 */
constexpr int kSampleTracePid = 1;

class SampleTracer
{
  public:
    explicit SampleTracer(telemetry::ChromeTraceWriter *w) : w_(w)
    {
        if (!w_)
            return;
        w_->setProcessName(kSampleTracePid, "sample timeline");
        w_->setThreadName(kSampleTracePid, 0, "samples");
    }

    /** RAII span; no-op without a writer. */
    class Span
    {
      public:
        Span(SampleTracer &tr, std::string name, std::string args = "")
            : tr_(tr)
        {
            if (tr_.w_)
                tr_.w_->begin(kSampleTracePid, 0, name,
                              tr_.w_->hostNowUs(), std::move(args));
        }
        ~Span()
        {
            if (tr_.w_)
                tr_.w_->end(kSampleTracePid, 0, tr_.w_->hostNowUs());
        }

      private:
        SampleTracer &tr_;
    };

    void
    transplant(const SampleRecord &rec)
    {
        if (!w_)
            return;
        std::ostringstream args;
        args << "{\"start_inst\":" << rec.startInst
             << ",\"tag_valid\":" << rec.tagValidFraction
             << ",\"bpred_occupancy\":" << rec.bpredTableOccupancy
             << "}";
        w_->instant(kSampleTracePid, 0, "transplant", w_->hostNowUs(),
                    args.str());
    }

  private:
    telemetry::ChromeTraceWriter *w_;
};

/** Accumulate wall-clock seconds into a bucket while in scope. */
class ScopedSeconds
{
  public:
    explicit ScopedSeconds(double &acc)
        : acc_(acc), start_(std::chrono::steady_clock::now())
    {
    }

    ~ScopedSeconds()
    {
        const std::chrono::duration<double> d =
            std::chrono::steady_clock::now() - start_;
        acc_ += d.count();
    }

  private:
    double &acc_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Warming runs on its own clock: stepping it by more than the worst
 * miss chain per instruction guarantees in-flight fills always retire
 * before the next access, so the MSHRs can never saturate and reject
 * warming traffic. The clock never leaks into a measured run: the
 * caches drain (drop in-flight fills and the MRU line) at both
 * hand-offs, and their LRU order uses an internal access counter.
 */
constexpr Cycle kWarmCyclesPerInst = 300;

/**
 * Functional warming of the sampled core's own long-lived state.
 * Microarchitectural history (cache tags, LRU order, predictor tables,
 * per-thread history and RAS) lives in the core's MemSystem and
 * BranchPredictor for the whole run; every fast-forwarded instruction
 * updates it here and each sample continues from it — the SMARTS
 * requirement that long-lived state is continuously warmed, never
 * restarted per sample. The warm model itself keeps only its clock
 * and the trace buffer.
 */
struct WarmModel
{
    mem::MemSystem &mem;
    bpred::BranchPredictor &bpred;
    /** Relocates register-space data addresses to each thread's
     *  region, as the core's own accesses are. */
    const cpu::Renamer &renamer;
    Cycle now = 0;
    /** One chunk of the functional trace being applied. */
    std::vector<func::TraceRecord> trace;

    explicit WarmModel(cpu::OooCpu &cpu)
        : mem(cpu.memSystem()), bpred(cpu.branchPredictor()),
          renamer(cpu.renamer()), trace(func::kTraceChunkInsts)
    {
    }

    /**
     * Feed one executed instruction to the branch predictor and caches,
     * mirroring what the pipeline itself does per instruction (icache
     * access per fetch, dcache access per memory op; predict /
     * commit-update / redirect-repair; RAS push on call, pop on ret).
     * Always inlined: it runs once per warmed instruction, and the
     * warming loop is inlined at every fast-forward call site.
     */
    [[gnu::always_inline]] void
    apply(const func::TraceRecord &rec, const isa::StaticInst &si,
          ThreadId tid)
    {
        mem.instAccess(
            mem::MemSystem::threadTag(tid, isa::layout::pcToAddr(rec.pc)),
            now);
        if (rec.isMem) {
            const Addr a = renamer.relocateRegSpace(tid, rec.effAddr);
            mem.dataAccess(mem::MemSystem::threadTag(tid, a), si.isStore,
                           now);
        }

        if (si.isBranch) {
            bpred::BPredCheckpoint ckpt;
            const bool taken = rec.npc != rec.pc + 1;
            const bool pred = bpred.predict(tid, rec.pc, ckpt);
            bpred.update(tid, rec.pc, taken, ckpt.history);
            if (pred != taken)
                bpred.repairHistory(tid, ckpt, taken);
        } else if (si.isCall) {
            bpred::BPredCheckpoint ckpt;
            bpred.pushRas(tid, rec.pc + 1, ckpt);
        } else if (si.isRet) {
            bpred::BPredCheckpoint ckpt;
            bpred.popRas(tid, ckpt);
        }
        now += kWarmCyclesPerInst;
    }
};

/**
 * Advance one functional master by @p len instructions. With
 * sampleFuncWarmInsts == 0 (the default) every instruction feeds the
 * warm model — continuous functional warming; otherwise only the last
 * sampleFuncWarmInsts do, and the rest run through FuncSim::run
 * (cheaper fast-forward, less accumulated warmth). Warmed instructions
 * are traced a chunk at a time and then applied in program order; the
 * warm model never feeds back into the functional run, so this is the
 * same sequence of updates as warming after each instruction.
 */
void
advance(WarmModel &warm, func::FuncSim &sim, const isa::Program &prog,
        ThreadId tid, InstCount len, InstCount warmTail)
{
    const InstCount tail =
        warmTail == 0 ? len : std::min(warmTail, len);
    sim.run(len - tail);
    for (InstCount left = tail; left && !sim.halted();) {
        const InstCount n = sim.trace(
            std::min(left, func::kTraceChunkInsts), warm.trace.data());
        for (InstCount i = 0; i < n; ++i) {
            const func::TraceRecord &rec = warm.trace[i];
            warm.apply(rec, prog.inst(rec.pc), tid);
        }
        left -= n;
    }
}

/** Host accounting shared by both modes. */
struct HostSplit
{
    double funcSeconds = 0;
    double simSeconds = 0;
    double simInsts = 0;
    double simCycles = 0;
    double simCyclesSkipped = 0;

    void
    publish(double funcInsts) const
    {
        if (simSeconds > 0 || simInsts > 0)
            stats::HostStats::global().record(simSeconds, simInsts,
                                              simCycles,
                                              simCyclesSkipped);
        if (funcSeconds > 0 || funcInsts > 0)
            stats::HostStats::global().recordFunctional(funcSeconds,
                                                        funcInsts);
    }
};

/** One thread's functional golden model, on its own memory image
 *  (the detailed core's memory is rebuilt from it at every
 *  switch-in). */
struct Master
{
    mem::SparseMemory mem;
    func::FuncSim sim;

    explicit Master(const isa::Program &prog) : sim(prog, mem) {}
};

std::vector<std::unique_ptr<Master>>
makeMasters(const std::vector<const isa::Program *> &programs)
{
    std::vector<std::unique_ptr<Master>> masters;
    for (const isa::Program *prog : programs)
        masters.push_back(std::make_unique<Master>(*prog));
    return masters;
}

/**
 * What one sampled run keeps across its samples: the functional
 * masters, the run's one detailed core (whose caches and predictor are
 * the warm model), and the sum of the measured quanta. The SMARTS and
 * SimPoint drivers keep only their schedule and call sample() for
 * each sample.
 */
struct SampledRun
{
    const std::vector<const isa::Program *> &programs;
    const RunOptions &opts;
    HostSplit &host;
    SampleTracer &tracer;
    std::vector<std::unique_ptr<Master>> masters;
    cpu::OooCpu cpu;
    /** Per-thread instructions the last sample committed (detailed
     *  warm-up and quantum). */
    std::vector<InstCount> committed;
    WarmModel warm;
    IntervalSum sum; ///< the measured quanta so far

    SampledRun(const std::vector<const isa::Program *> &progs,
               const cpu::CpuParams &params, const RunOptions &o,
               HostSplit &h, SampleTracer &tr)
        : programs(progs), opts(o), host(h), tracer(tr),
          masters(makeMasters(progs)), cpu(params, progs),
          committed(progs.size(), 0), warm(cpu)
    {
        cpu.addCommitListener([this](const cpu::DynInst &inst) {
            ++committed[inst.tid];
        });
    }

    // The core's commit listener holds this.
    SampledRun(const SampledRun &) = delete;
    SampledRun &operator=(const SampledRun &) = delete;

    bool
    anyHalted() const
    {
        for (const auto &master : masters)
            if (master->sim.halted())
                return true;
        return false;
    }

    /** Fast-forward thread @p t by @p len instructions, warming the
     *  core's caches and predictor (see advance()). */
    void
    fastForward(ThreadId t, InstCount len)
    {
        advance(warm, masters[t]->sim, *programs[t], t, len,
                opts.sampleFuncWarmInsts);
    }

    /**
     * Take one sample at the masters' current position: switch every
     * thread into the drained core, run @p warmInsts of detailed
     * warm-up, measure a @p quantumInsts quantum into `sum`, then
     * resync each master by what its thread committed. Returns the
     * sample's record (insts == 0: the quantum committed nothing and
     * the record carries no CPI).
     */
    SampleRecord
    sample(InstCount warmInsts, InstCount quantumInsts)
    {
        // Warm model -> core: the drain also resets the statistics
        // warming added to.
        cpu.drain();
        std::fill(committed.begin(), committed.end(), 0);
        for (size_t t = 0; t < masters.size(); ++t)
            cpu.switchIn(ThreadId(t), masters[t]->sim.captureState(),
                         masters[t]->mem);

        SampleRecord rec;
        for (const auto &master : masters)
            rec.startInst += master->sim.stats().insts;
        rec.tagValidFraction = cpu.memSystem().tagValidFraction();
        rec.bpredTableOccupancy = cpu.branchPredictor().tableOccupancy();
        tracer.transplant(rec);

        {
            ScopedSeconds tm(host.simSeconds);
            {
                SampleTracer::Span span(tracer, "detail warm-up");
                const auto warmRes =
                    cpu.run(warmInsts, cpu::cycleBudget(warmInsts),
                            opts.stopOnFirstThread);
                rec.warmCycles = warmRes.cycles;
                rec.warmInsts = warmRes.totalInsts;
            }
            cpu.resetStats();
            SampleTracer::Span span(tracer, "measure");
            const auto res =
                cpu.run(quantumInsts, cpu::cycleBudget(quantumInsts),
                        opts.stopOnFirstThread);
            sum.add(cpu, res);
            rec.cycles = res.cycles;
            rec.insts = res.totalInsts;
            if (res.totalInsts)
                rec.cpi = double(res.cycles) / double(res.totalInsts);
            host.simCycles += double(cpu.currentCycle());
            host.simCyclesSkipped += double(cpu.skippedCycles());
        }
        for (InstCount c : committed)
            host.simInsts += double(c);

        // Core -> warm model: the sample's tags and tables stay where
        // they are, so nothing it touched is forgotten; only its
        // in-flight fills go. Then re-advance the functional masters
        // by exactly what the core committed. Those instructions'
        // microarchitectural effects are already in the caches and
        // predictor, so the resync is a pure fast-forward.
        cpu.memSystem().drain();
        {
            ScopedSeconds tm(host.funcSeconds);
            for (size_t t = 0; t < masters.size(); ++t)
                masters[t]->sim.run(committed[t]);
        }
        return rec;
    }

    /** Instructions the functional masters have executed. */
    double
    funcInsts() const
    {
        double insts = 0;
        for (const auto &master : masters)
            insts += double(master->sim.stats().insts);
        return insts;
    }
};

void
runSmarts(const std::vector<const isa::Program *> &programs,
          const cpu::CpuParams &params, const RunOptions &opts,
          Measurement &m)
{
    if (!opts.samplePeriodInsts || !opts.sampleQuantumInsts)
        fatal("sampled mode requires a nonzero sample period and "
              "quantum");
    if (opts.samplePeriodInsts <=
        opts.sampleDetailWarmInsts + opts.sampleQuantumInsts)
        fatal("sample period (%llu insts) must exceed detail warm-up "
              "plus quantum (%llu insts)",
              (unsigned long long)opts.samplePeriodInsts,
              (unsigned long long)(opts.sampleDetailWarmInsts +
                                   opts.sampleQuantumInsts));

    HostSplit host;
    SampleTracer tracer(opts.traceWriter);
    SampledRun run(programs, params, opts, host, tracer);
    const unsigned n = static_cast<unsigned>(programs.size());

    // Pre-sampling warm-up: fast-forward warmupInsts (functionally
    // warmed, unmeasured) before the first period, so sampling can be
    // aimed past a program's cold-start transient — functional
    // warming sees no wrong-path accesses, so the transient is the
    // one region it cannot reproduce faithfully.
    if (opts.warmupInsts) {
        SampleTracer::Span span(tracer, "fast-forward (warm-up)");
        ScopedSeconds tm(host.funcSeconds);
        for (unsigned t = 0; t < n; ++t)
            run.fastForward(ThreadId(t), opts.warmupInsts);
    }

    // Instructions each thread has already covered inside the current
    // period (detail warm-up + quantum of the previous sample), so
    // consecutive samples start exactly samplePeriodInsts apart.
    std::vector<InstCount> coveredInPeriod(n, 0);
    while (run.sum.insts < opts.measureInsts && !run.anyHalted()) {
        {
            SampleTracer::Span span(tracer, "fast-forward");
            ScopedSeconds tm(host.funcSeconds);
            for (unsigned t = 0; t < n; ++t) {
                const InstCount gap =
                    opts.samplePeriodInsts > coveredInPeriod[t]
                        ? opts.samplePeriodInsts - coveredInPeriod[t]
                        : 0;
                run.fastForward(ThreadId(t), gap);
            }
        }
        if (run.anyHalted())
            break;

        const SampleRecord rec = run.sample(opts.sampleDetailWarmInsts,
                                            opts.sampleQuantumInsts);
        if (rec.insts)
            m.sampleRecords.push_back(rec);
        coveredInPeriod = run.committed;
    }

    if (!run.sum.intervals)
        fatal("sampled mode took no samples: program ends within one "
              "sample period (%llu insts)",
              (unsigned long long)opts.samplePeriodInsts);

    run.sum.fill(m);
    host.publish(run.funcInsts());
}

void
runSimPoint(const std::vector<const isa::Program *> &programs,
            const cpu::CpuParams &params, const RunOptions &opts,
            Measurement &m)
{
    if (programs.size() != 1)
        fatal("simpoint mode supports exactly one thread "
              "(use --mode=sampled for SMT)");
    if (!opts.measureInsts)
        fatal("simpoint mode requires a nonzero measured interval");

    HostSplit host;
    SampleTracer tracer(opts.traceWriter);
    // The interval length is the measured interval, so each phase's
    // representative interval is exactly what gets simulated in
    // detail. BBV collection executes the program functionally once
    // (bounded by pickSimPoint's maxIntervals); charge it to the
    // functional side.
    SimPointResult sp;
    {
        SampleTracer::Span span(tracer, "bbv collection");
        ScopedSeconds tm(host.funcSeconds);
        sp = pickSimPoint(*programs[0], opts.measureInsts);
    }
    const double bbvInsts =
        double(sp.phaseOf.size()) * double(opts.measureInsts);

    SampledRun run(programs, params, opts, host, tracer);
    // One representative interval per phase (nearest its centroid),
    // weighted by the fraction of intervals the phase covers. The
    // whole-program estimate blends the representatives' CPI — equal
    // instruction intervals make program IPC the harmonic mean of
    // interval IPCs, so time (CPI), not rate, is what weights add
    // over. A single dominant interval would misrepresent any
    // phase-changing program.
    double weightedCpi = 0;
    double weightUsed = 0;
    InstCount pos = 0; ///< master's position in dynamic insts
    for (size_t r = 0; r < sp.phaseRep.size(); ++r) {
        const InstCount target =
            InstCount(sp.phaseRep[r]) * opts.measureInsts;
        // Switch in warmupInsts before the interval so the detailed
        // warm-up runs through the instructions preceding it and the
        // measured region is the representative interval itself.
        const InstCount switchAt =
            target > opts.warmupInsts ? target - opts.warmupInsts : 0;

        {
            SampleTracer::Span span(tracer, "fast-forward");
            ScopedSeconds tm(host.funcSeconds);
            run.fastForward(0, switchAt > pos ? switchAt - pos : 0);
            pos = std::max(pos, switchAt);
        }
        if (run.masters[0]->sim.halted())
            fatal("simpoint mode: program halted during "
                  "fast-forward");

        SampleRecord rec =
            run.sample(opts.warmupInsts, opts.measureInsts);
        pos += run.committed[0];
        if (rec.insts) {
            // weight * cycles / insts, not weight * rec.cpi: the two
            // round differently.
            weightedCpi += sp.phaseWeight[r] * double(rec.cycles) /
                           double(rec.insts);
            weightUsed += sp.phaseWeight[r];
            rec.phase = static_cast<int>(r);
            rec.weight = sp.phaseWeight[r];
            m.sampleRecords.push_back(rec);
        }
    }

    run.sum.fill(m);
    // The headline IPC/CPI is the weighted whole-program estimate;
    // cycles/insts stay raw sums over the representatives (so
    // m.ipc != m.insts/m.cycles in general, unlike detailed mode).
    if (weightUsed > 0) {
        m.cpi = weightedCpi / weightUsed;
        m.ipc = m.cpi > 0 ? 1.0 / m.cpi : 0.0;
    }
    host.publish(bbvInsts + run.funcInsts());
}

} // namespace

Measurement
runSampledTiming(const std::vector<const isa::Program *> &programs,
                 const RunOptions &opts, const cpu::CpuParams &params)
{
    Measurement m;
    try {
        if (opts.regTelemetry)
            fatal("register telemetry requires --mode=detailed");
        if (opts.mode == SimMode::SimPoint)
            runSimPoint(programs, params, opts, m);
        else
            runSmarts(programs, params, opts, m);
        m.sampling = computeSamplingSummary(m.sampleRecords);
    } catch (const FatalError &e) {
        m.ok = false;
        m.error = e.what();
        m.sampleRecords.clear();
        m.sampling = SamplingSummary{};
    }
    return m;
}

// ---------------------------------------------------------------------
// Confidence-interval estimator
// ---------------------------------------------------------------------

double
weightedMean(const std::vector<double> &xs,
             const std::vector<double> &w)
{
    double sw = 0, sx = 0;
    for (size_t i = 0; i < xs.size(); ++i) {
        sw += w[i];
        sx += w[i] * xs[i];
    }
    return sw > 0 ? sx / sw : 0.0;
}

double
weightedVariance(const std::vector<double> &xs,
                 const std::vector<double> &w)
{
    double sw = 0, sw2 = 0;
    for (double wi : w) {
        sw += wi;
        sw2 += wi * wi;
    }
    // The reliability-weight denominator (sw - sw2/sw) is zero for a
    // single (or single effective) sample: no variance estimate.
    if (sw <= 0 || sw * sw <= sw2)
        return 0.0;
    const double mean = weightedMean(xs, w);
    double ss = 0;
    for (size_t i = 0; i < xs.size(); ++i)
        ss += w[i] * (xs[i] - mean) * (xs[i] - mean);
    return ss / (sw - sw2 / sw);
}

double
effectiveSampleCount(const std::vector<double> &w)
{
    double sw = 0, sw2 = 0;
    for (double wi : w) {
        sw += wi;
        sw2 += wi * wi;
    }
    return sw2 > 0 ? (sw * sw) / sw2 : 0.0;
}

double
tCritical95(double dof)
{
    // Two-sided 95% critical values of Student's t, dof 1..30.
    static constexpr double kTable[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (dof < 1)
        return kTable[0];
    if (dof <= 30) {
        // Floor fractional dof (Kish effective sizes): the smaller
        // dof has the larger critical value, so this is conservative.
        return kTable[static_cast<size_t>(dof) - 1];
    }
    // Cornish-Fisher-style tail correction t ~ z + (z^3 + z)/(4 dof);
    // continuous with the table at dof 30 and -> 1.96 as dof -> inf.
    constexpr double z = 1.959964;
    return z + (z * z * z + z) / (4.0 * dof);
}

SamplingSummary
computeSamplingSummary(const std::vector<SampleRecord> &records)
{
    SamplingSummary s;
    if (records.empty())
        return s;
    std::vector<double> cpis, weights;
    for (const SampleRecord &r : records) {
        cpis.push_back(r.cpi);
        weights.push_back(r.weight > 0 ? r.weight : 1.0);
        s.meanTagValidFraction += r.tagValidFraction;
        s.meanBpredTableOccupancy += r.bpredTableOccupancy;
    }
    s.samples = static_cast<unsigned>(records.size());
    s.meanTagValidFraction /= double(records.size());
    s.meanBpredTableOccupancy /= double(records.size());
    s.meanCpi = weightedMean(cpis, weights);
    if (records.size() < 2) {
        // One sample: the variance of the estimator is unknowable, so
        // the 95% interval is unbounded. Flag it and collapse the
        // bounds to the point estimate instead of serializing
        // infinities (JSON has none).
        s.ciUnbounded = true;
        s.ciLoCpi = s.ciHiCpi = s.meanCpi;
        return s;
    }
    s.cpiVariance = weightedVariance(cpis, weights);
    const double nEff = effectiveSampleCount(weights);
    const double halfWidth =
        tCritical95(nEff - 1.0) * std::sqrt(s.cpiVariance / nEff);
    s.ciLoCpi = std::max(0.0, s.meanCpi - halfWidth);
    s.ciHiCpi = s.meanCpi + halfWidth;
    return s;
}

// ---------------------------------------------------------------------
// sampling.* statistics group
// ---------------------------------------------------------------------

SamplingStats::SamplingStats(stats::StatGroup *parent)
    : stats::StatGroup("sampling", parent),
      samples(this, "samples", "detailed samples measured"),
      meanCpi(this, "mean_cpi", "weighted mean of per-sample CPIs"),
      cpiVariance(this, "cpi_variance",
                  "unbiased variance of per-sample CPIs"),
      ciLoCpi(this, "ci_lo_cpi", "95% confidence interval low (CPI)"),
      ciHiCpi(this, "ci_hi_cpi", "95% confidence interval high (CPI)"),
      ciUnbounded(this, "ci_unbounded",
                  "1 when the interval is unbounded (single sample)"),
      ipcCiLo(this, "ipc_ci_lo", "95% confidence interval low (IPC)"),
      ipcCiHi(this, "ipc_ci_hi", "95% confidence interval high (IPC)"),
      meanTagValidFraction(this, "mean_tag_valid_fraction",
                           "mean cache-tag valid fraction at "
                           "switch-in"),
      meanBpredTableOccupancy(this, "mean_bpred_table_occupancy",
                              "mean predictor-table occupancy at "
                              "switch-in")
{
}

void
SamplingStats::populate(const Measurement &m)
{
    samples = m.sampling.samples;
    meanCpi = m.sampling.meanCpi;
    cpiVariance = m.sampling.cpiVariance;
    ciLoCpi = m.sampling.ciLoCpi;
    ciHiCpi = m.sampling.ciHiCpi;
    ciUnbounded = m.sampling.ciUnbounded ? 1 : 0;
    ipcCiLo = m.sampling.ipcCiLo();
    ipcCiHi = m.sampling.ipcCiHi();
    meanTagValidFraction = m.sampling.meanTagValidFraction;
    meanBpredTableOccupancy = m.sampling.meanBpredTableOccupancy;
}

const char *
simModeName(SimMode mode)
{
    switch (mode) {
      case SimMode::Detailed: return "detailed";
      case SimMode::SimPoint: return "simpoint";
      case SimMode::Sampled:  return "sampled";
    }
    return "unknown";
}

bool
parseSimMode(const std::string &text, SimMode &mode)
{
    if (text == "detailed") {
        mode = SimMode::Detailed;
        return true;
    }
    if (text == "simpoint") {
        mode = SimMode::SimPoint;
        return true;
    }
    if (text == "sampled") {
        mode = SimMode::Sampled;
        return true;
    }
    return false;
}

} // namespace vca::analysis
