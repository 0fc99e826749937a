#include "analysis/simpoint.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "func/func_sim.hh"
#include "mem/sparse_memory.hh"
#include "sim/logging.hh"

namespace vca::analysis {

std::vector<Bbv>
collectBbvs(const isa::Program &prog, InstCount intervalInsts,
            unsigned maxIntervals)
{
    if (intervalInsts == 0)
        fatal("collectBbvs: interval length must be positive");

    mem::SparseMemory memory;
    func::FuncSim sim(prog, memory);

    std::vector<Bbv> bbvs;
    Bbv current;
    InstCount inInterval = 0;
    Addr blockLeader = prog.entry;
    InstCount blockLen = 0;

    // A chunk may run past the last interval kept; the engine is
    // local, so those instructions are simply dropped.
    std::vector<func::TraceRecord> trace(func::kTraceChunkInsts);
    while (const InstCount n =
               sim.trace(func::kTraceChunkInsts, trace.data())) {
        for (InstCount i = 0; i < n; ++i) {
            const func::TraceRecord &rec = trace[i];
            ++blockLen;
            ++inInterval;
            const bool endsBlock = prog.inst(rec.pc).isControl() ||
                                   rec.npc != rec.pc + 1;
            if (endsBlock) {
                current[blockLeader] += blockLen;
                blockLeader = rec.npc;
                blockLen = 0;
            }
            if (inInterval >= intervalInsts) {
                if (blockLen) {
                    current[blockLeader] += blockLen;
                    blockLen = 0;
                    blockLeader = rec.npc;
                }
                bbvs.push_back(std::move(current));
                current.clear();
                inInterval = 0;
                if (maxIntervals && bbvs.size() >= maxIntervals)
                    return bbvs;
            }
        }
    }
    if (blockLen)
        current[blockLeader] += blockLen;
    if (!current.empty())
        bbvs.push_back(std::move(current));
    return bbvs;
}

Matrix
bbvsToMatrix(const std::vector<Bbv> &bbvs)
{
    std::set<Addr> leaders;
    for (const Bbv &b : bbvs) {
        for (const auto &[pc, count] : b)
            leaders.insert(pc);
    }
    std::vector<Addr> order(leaders.begin(), leaders.end());

    Matrix m(bbvs.size(), std::vector<double>(order.size(), 0.0));
    for (size_t i = 0; i < bbvs.size(); ++i) {
        double total = 0;
        for (const auto &[pc, count] : bbvs[i])
            total += static_cast<double>(count);
        if (total <= 0)
            continue;
        for (size_t j = 0; j < order.size(); ++j) {
            auto it = bbvs[i].find(order[j]);
            if (it != bbvs[i].end())
                m[i][j] = static_cast<double>(it->second) / total;
        }
    }
    return m;
}

namespace {

double
sqDist(const std::vector<double> &a, const std::vector<double> &b)
{
    double d = 0;
    for (size_t i = 0; i < a.size(); ++i)
        d += (a[i] - b[i]) * (a[i] - b[i]);
    return d;
}

} // namespace

KMeansResult
kmeans(const Matrix &points, unsigned k, unsigned iterations)
{
    KMeansResult res;
    const size_t n = points.size();
    if (n == 0)
        return res;
    k = std::max(1u, std::min<unsigned>(k, n));

    // Deterministic farthest-point initialization.
    std::vector<size_t> seeds = {0};
    while (seeds.size() < k) {
        size_t best = 0;
        double bestDist = -1;
        for (size_t i = 0; i < n; ++i) {
            double nearest = std::numeric_limits<double>::max();
            for (size_t s : seeds)
                nearest = std::min(nearest, sqDist(points[i], points[s]));
            if (nearest > bestDist) {
                bestDist = nearest;
                best = i;
            }
        }
        seeds.push_back(best);
    }
    res.centroids.clear();
    for (size_t s : seeds)
        res.centroids.push_back(points[s]);

    res.assign.assign(n, 0);
    for (unsigned iter = 0; iter < iterations; ++iter) {
        bool changed = false;
        for (size_t i = 0; i < n; ++i) {
            unsigned best = 0;
            double bestDist = std::numeric_limits<double>::max();
            for (unsigned c = 0; c < k; ++c) {
                const double d = sqDist(points[i], res.centroids[c]);
                if (d < bestDist) {
                    bestDist = d;
                    best = c;
                }
            }
            if (res.assign[i] != best) {
                res.assign[i] = best;
                changed = true;
            }
        }
        // Recompute centroids.
        const size_t dims = points[0].size();
        Matrix sums(k, std::vector<double>(dims, 0.0));
        std::vector<unsigned> counts(k, 0);
        for (size_t i = 0; i < n; ++i) {
            for (size_t d = 0; d < dims; ++d)
                sums[res.assign[i]][d] += points[i][d];
            ++counts[res.assign[i]];
        }
        for (unsigned c = 0; c < k; ++c) {
            if (counts[c] == 0)
                continue; // keep the old centroid for empty clusters
            for (size_t d = 0; d < dims; ++d)
                sums[c][d] /= counts[c];
            res.centroids[c] = sums[c];
        }
        if (!changed)
            break;
    }

    res.distortion = 0;
    for (size_t i = 0; i < n; ++i)
        res.distortion += sqDist(points[i], res.centroids[res.assign[i]]);
    return res;
}

SimPointResult
pickSimPoint(const isa::Program &prog, InstCount intervalInsts,
             unsigned maxK, unsigned maxIntervals)
{
    const auto bbvs = collectBbvs(prog, intervalInsts, maxIntervals);
    SimPointResult result;
    if (bbvs.empty())
        return result;
    if (bbvs.size() == 1) {
        result.phaseOf = {0};
        result.phaseRep = {0};
        result.phaseWeight = {1.0};
        return result;
    }

    // Project (SimPoint uses random projection; centered PCA serves
    // the same dimensionality purpose deterministically without
    // amplifying noise blocks the way z-scoring would).
    const Matrix projected = pcaProjectCentered(bbvsToMatrix(bbvs),
                                                0.95);
    const size_t n = projected.size();

    // Score k by a BIC-like penalized distortion.
    double bestScore = std::numeric_limits<double>::max();
    KMeansResult best;
    unsigned bestK = 1;
    const double dims = static_cast<double>(projected[0].size());
    for (unsigned k = 1; k <= std::min<unsigned>(maxK, n); ++k) {
        KMeansResult r = kmeans(projected, k);
        const double penalty =
            0.5 * k * dims * std::log(static_cast<double>(n));
        const double score =
            static_cast<double>(n) *
                std::log(r.distortion / n + 1e-12) + penalty;
        if (score < bestScore) {
            bestScore = score;
            best = std::move(r);
            bestK = k;
        }
    }

    // Largest cluster, member nearest its centroid.
    std::vector<unsigned> sizes(bestK, 0);
    for (unsigned a : best.assign)
        ++sizes[a];
    const unsigned largest = static_cast<unsigned>(
        std::max_element(sizes.begin(), sizes.end()) - sizes.begin());

    size_t pick = 0;
    double pickDist = std::numeric_limits<double>::max();
    for (size_t i = 0; i < n; ++i) {
        if (best.assign[i] != largest)
            continue;
        const double d = sqDist(projected[i], best.centroids[largest]);
        if (d < pickDist) {
            pickDist = d;
            pick = i;
        }
    }

    result.intervalIndex = pick;
    result.numPhases = bestK;
    result.phaseOf = best.assign;
    result.largestPhaseWeight =
        static_cast<double>(sizes[largest]) / static_cast<double>(n);

    // Per-phase representatives, ordered by interval so a caller can
    // visit them in one forward pass. Candidates are restricted to the
    // later half of each phase's occurrences: BBVs cannot see warm-up
    // state, so a phase's earliest occurrences look identical to its
    // steady ones while measuring under far less accumulated
    // microarchitectural history. Among the later half we still take
    // the member nearest the centroid.
    for (unsigned c = 0; c < bestK; ++c) {
        if (sizes[c] == 0)
            continue;
        std::vector<size_t> members;
        for (size_t i = 0; i < n; ++i) {
            if (best.assign[i] == c)
                members.push_back(i);
        }
        size_t rep = members.back();
        double repDist = std::numeric_limits<double>::max();
        for (size_t m = members.size() / 2; m < members.size(); ++m) {
            const size_t i = members[m];
            const double d = sqDist(projected[i], best.centroids[c]);
            if (d < repDist) {
                repDist = d;
                rep = i;
            }
        }
        result.phaseRep.push_back(rep);
        result.phaseWeight.push_back(static_cast<double>(sizes[c]) /
                                     static_cast<double>(n));
    }
    std::vector<size_t> order(result.phaseRep.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return result.phaseRep[a] < result.phaseRep[b];
    });
    std::vector<size_t> reps;
    std::vector<double> weights;
    for (size_t i : order) {
        reps.push_back(result.phaseRep[i]);
        weights.push_back(result.phaseWeight[i]);
    }
    result.phaseRep = std::move(reps);
    result.phaseWeight = std::move(weights);
    return result;
}

} // namespace vca::analysis
