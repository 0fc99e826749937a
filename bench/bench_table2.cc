/**
 * @file
 * Table 2 reproduction: path-length ratio (register-window binary to
 * baseline binary) for the call-heavy benchmark set, measured by
 * running both binaries to completion on the functional simulator,
 * exactly as Section 3.1 describes. Paper average: 0.92.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace vca;

int
main()
{
    setQuiet(true);
    std::printf("== Table 2: Path length ratio "
                "(register window to baseline) ==\n");
    std::printf("%-16s %12s %12s %8s %10s\n", "Benchmark", "baseline",
                "windowed", "Ratio", "insts/call");

    std::vector<double> ratios;
    for (const auto &prof : wload::regWindowProfiles()) {
        const InstCount nw = analysis::pathLength(prof, false);
        const InstCount w = analysis::pathLength(prof, true);
        const double ratio = double(w) / double(nw);
        ratios.push_back(ratio);

        // Call frequency (paper admits only benchmarks calling at
        // least once every 500 instructions).
        const InstCount calls = analysis::callCount(prof, false);
        const double instsPerCall = calls ? double(nw) / calls : -1;

        std::printf("%-16s %12llu %12llu %8.2f %10.0f\n",
                    prof.name.c_str(), (unsigned long long)nw,
                    (unsigned long long)w, ratio, instsPerCall);
    }
    std::printf("%-16s %12s %12s %8.2f   (paper: 0.92)\n", "Average", "",
                "", analysis::mean(ratios));
    bench::printCycleAccounting(bench::regWindowArchs(), 192,
                                bench::defaultOptions());
    return bench::finishBench();
}
