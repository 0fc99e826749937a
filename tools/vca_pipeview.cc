/**
 * @file
 * vca-pipeview: ASCII renderer for O3PipeView pipeline traces.
 *
 * Reads a trace produced by vca-sim --pipeview (or any gem5 O3PipeView
 * trace) and draws one timeline per instruction, one character per
 * cycle (scaled when an instruction's lifetime exceeds the terminal
 * width):
 *
 *   f = fetch   d = decode    n = rename   p = dispatch
 *   i = issue   c = complete  r = retire   . = in flight
 *
 *   [f..dn.p..i...c..r]  1204 T0 0x0040a8 lw   r4, 8(r2)
 *
 * Examples:
 *   vca-pipeview out.trace
 *   vca-sim --pipeview /dev/stdout --stats=false | vca-pipeview -
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/options.hh"
#include "trace/pipe_trace.hh"

using namespace vca;

namespace {

/** Place a stage marker, later stages winning ties on shared cells. */
void
mark(std::string &lane, Cycle start, Cycle cyclesPerChar, Cycle when,
     char c)
{
    const size_t col =
        static_cast<size_t>((when - start) / cyclesPerChar);
    if (col < lane.size())
        lane[col] = c;
}

std::string
renderLane(const trace::PipeRecord &rec, unsigned width)
{
    const Cycle span = rec.commit - rec.fetch + 1;
    const Cycle cyclesPerChar = (span + width - 1) / width;
    const size_t cols =
        static_cast<size_t>((span + cyclesPerChar - 1) / cyclesPerChar);
    std::string lane(cols, '.');
    mark(lane, rec.fetch, cyclesPerChar, rec.fetch, 'f');
    mark(lane, rec.fetch, cyclesPerChar, rec.decode, 'd');
    mark(lane, rec.fetch, cyclesPerChar, rec.rename, 'n');
    mark(lane, rec.fetch, cyclesPerChar, rec.dispatch, 'p');
    mark(lane, rec.fetch, cyclesPerChar, rec.issue, 'i');
    mark(lane, rec.fetch, cyclesPerChar, rec.complete, 'c');
    mark(lane, rec.fetch, cyclesPerChar, rec.commit, 'r');
    return lane;
}

int
pipeviewMain(int argc, char **argv)
{
    Options opts;
    opts.add("width", "48",
             "maximum timeline width in characters (1 cycle per "
             "character until an instruction exceeds it)");
    opts.add("tid", "-1", "show only this thread (-1 = all)");
    opts.add("insts", "0", "render at most N instructions (0 = all)");
    opts.add("ticks-per-cycle", "1000",
             "tick scale of the input trace (gem5 default: 1000)");
    opts.add("help", "false", "show this help");

    if (!opts.parse(argc, argv)) {
        std::fprintf(stderr, "error: %s\n%s", opts.error().c_str(),
                     opts.usage("vca-pipeview [trace file|-]").c_str());
        return 1;
    }
    if (opts.getBool("help")) {
        std::fputs(opts.usage("vca-pipeview [trace file|-]").c_str(),
                   stdout);
        return 0;
    }

    const std::string path =
        opts.positional().empty() ? "-" : opts.positional().front();
    std::ifstream file;
    std::istream *in = &std::cin;
    if (path != "-") {
        file.open(path);
        if (!file) {
            std::fprintf(stderr, "error: cannot open '%s'\n",
                         path.c_str());
            return 1;
        }
        in = &file;
    }

    std::vector<trace::PipeRecord> records;
    std::string error;
    std::uint64_t unknownRecords = 0;
    if (!trace::parsePipeTrace(*in, records, &error,
                               opts.getU64("ticks-per-cycle"),
                               &unknownRecords)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    if (unknownRecords) {
        std::fprintf(stderr,
                     "warning: skipped %llu unknown O3PipeView record "
                     "line(s) (e.g. telemetry instants)\n",
                     (unsigned long long)unknownRecords);
    }
    if (records.empty()) {
        std::fprintf(stderr, "no O3PipeView records in input\n");
        return 1;
    }

    const unsigned width =
        std::max(1u, static_cast<unsigned>(opts.getU64("width")));
    const std::string tidOpt = opts.get("tid");
    const long long tidFilter =
        (tidOpt.empty() || tidOpt == "-1") ? -1 : std::stoll(tidOpt);
    const std::uint64_t maxInsts = opts.getU64("insts");

    std::printf("f=fetch d=decode n=rename p=dispatch i=issue "
                "c=complete r=retire (.=in flight)\n");
    std::uint64_t shown = 0;
    for (const auto &rec : records) {
        if (tidFilter >= 0 &&
            rec.tid != static_cast<unsigned>(tidFilter))
            continue;
        if (maxInsts && shown >= maxInsts)
            break;
        ++shown;
        const std::string lane = renderLane(rec, width);
        std::printf("[%-*s] %8llu T%u 0x%06llx %s%s\n", int(width),
                    lane.c_str(), (unsigned long long)rec.fetch,
                    rec.tid, (unsigned long long)rec.pc,
                    rec.disasm.c_str(),
                    rec.monotonic() ? "" : "  [NON-MONOTONIC]");
    }
    std::printf("%llu instructions rendered\n",
                (unsigned long long)shown);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A malformed integer flag raises FatalError: exit 2 naming it.
    try {
        return pipeviewMain(argc, argv);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
