/**
 * @file
 * Fig. 11: one-way network latency breakdown for packets of various
 * sizes on dNIC (left), iNIC (middle) and NetDIMM (right). Prints
 * the same stacked components the paper plots (txCopy, txFlush,
 * I/O reg acc, txDMA, wire, rxDMA, rxInvalidate, rxCopy) plus the
 * headline reductions the text quotes (64B / 256B / 1024B vs dNIC,
 * average vs dNIC and iNIC).
 */

#include <cstdio>
#include <vector>

#include "harness/SweepRunner.hh"
#include "sim/SystemConfig.hh"
#include "workload/LatencyHarness.hh"

using namespace netdimm;

namespace
{

const std::vector<std::uint32_t> kSizes = {10,  60,   200,  500,
                                           1000, 2000, 4000, 8000};

void
printBreakdown(const char *title, const std::vector<PingResult> &rows)
{
    std::printf("\n-- %s --\n", title);
    std::printf("%-7s", "bytes");
    for (std::size_t c = 0; c < numLatComps; ++c)
        std::printf(" %12s", latCompName(static_cast<LatComp>(c)));
    std::printf(" %12s\n", "total(us)");
    for (const auto &r : rows) {
        std::printf("%-7u", r.bytes);
        for (std::size_t c = 0; c < numLatComps; ++c)
            std::printf(" %12.3f", r.compUs[c]);
        std::printf(" %12.3f\n", r.totalUs);
    }
}

double
at(const std::vector<PingResult> &rows, std::uint32_t bytes)
{
    for (const auto &r : rows)
        if (r.bytes == bytes)
            return r.totalUs;
    return 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    requireNoArgs(argc, argv);
    setQuiet(true);
    SystemConfig base;

    std::vector<PingResult> dnic, inic, nd;
    for (std::uint32_t b : kSizes) {
        dnic.push_back(LatencyHarness(base, NicKind::Discrete).run(b));
        inic.push_back(
            LatencyHarness(base, NicKind::Integrated).run(b));
        nd.push_back(LatencyHarness(base, NicKind::NetDimm).run(b));
    }

    std::printf("=== Fig. 11: one-way latency breakdown ===\n");
    printBreakdown("PCIe NIC (dNIC)", dnic);
    printBreakdown("integrated NIC (iNIC)", inic);
    printBreakdown("NetDIMM", nd);

    // Headline numbers quoted in Sec. 5.2.
    std::vector<std::uint32_t> headline = {64, 256, 1024};
    std::printf("\n-- headline reductions vs dNIC "
                "(paper: 46.1%% / 52.3%% / 49.6%%) --\n");
    for (std::uint32_t b : headline) {
        PingResult d = LatencyHarness(base, NicKind::Discrete).run(b);
        PingResult n = LatencyHarness(base, NicKind::NetDimm).run(b);
        std::printf("  %4uB: %5.1f%%  (dNIC %.3fus -> NetDIMM %.3fus, "
                    "-%.2fus)\n",
                    b, 100.0 * (1.0 - n.totalUs / d.totalUs), d.totalUs,
                    n.totalUs, d.totalUs - n.totalUs);
    }

    double avg_d = 0.0, avg_i = 0.0;
    for (std::uint32_t b : kSizes) {
        avg_d += 1.0 - at(nd, b) / at(dnic, b);
        avg_i += 1.0 - at(nd, b) / at(inic, b);
    }
    avg_d = 100.0 * avg_d / double(kSizes.size());
    avg_i = 100.0 * avg_i / double(kSizes.size());
    std::printf("\naverage reduction vs dNIC: %5.1f%%  (paper: 49.9%%)\n",
                avg_d);
    std::printf("average reduction vs iNIC: %5.1f%%  (paper: 26.0%%)\n",
                avg_i);

    // Flush/invalidate overhead share (paper: 9.7~15.8%).
    std::printf("\n-- txFlush+rxInvalidate share of NetDIMM total "
                "(paper: 9.7~15.8%%) --\n");
    for (const auto &r : nd) {
        double share =
            (r.compUs[std::size_t(LatComp::TxFlush)] +
             r.compUs[std::size_t(LatComp::RxInvalidate)]) /
            r.totalUs * 100.0;
        std::printf("  %4uB: %4.1f%%\n", r.bytes, share);
    }

    // Percentile tail per architecture (shared LatencyHistogram): at
    // zero load the ping train is nearly deterministic, so p99 should
    // hug the mean -- a spread here flags queueing in the model.
    std::printf("\n-- one-way latency percentiles (zero load) --\n");
    std::printf("%-7s %21s %21s %21s\n", "bytes", "dNIC p50/p99(us)",
                "iNIC p50/p99(us)", "NetDIMM p50/p99(us)");
    for (std::size_t i = 0; i < kSizes.size(); ++i) {
        auto p = [](const PingResult &r, double q) {
            return r.latency.percentile(q) / double(tickPerUs);
        };
        std::printf("%-7u %10.3f/%-10.3f %10.3f/%-10.3f "
                    "%10.3f/%-10.3f\n",
                    kSizes[i], p(dnic[i], 0.5), p(dnic[i], 0.99),
                    p(inic[i], 0.5), p(inic[i], 0.99), p(nd[i], 0.5),
                    p(nd[i], 0.99));
    }
    return 0;
}
