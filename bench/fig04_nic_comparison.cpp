/**
 * @file
 * Fig. 4: one-way latency of dNIC, dNIC.zcpy, iNIC and iNIC.zcpy for
 * packets of various sizes over a 40GbE link, plus the PCIe share of
 * the discrete configurations (pcie.overh). Also prints the numbers
 * the paper's Sec. 3 quotes: iNIC's 21.3~38.6% gain over dNIC, zero
 * copy's 28.8% (10B) and 52.3% (2000B) gains over iNIC, and the
 * 40.9% / 34.3% PCIe shares of dNIC.zcpy.
 */

#include <cstdio>
#include <vector>

#include "harness/SweepRunner.hh"
#include "sim/SystemConfig.hh"
#include "workload/LatencyHarness.hh"

using namespace netdimm;

int
main(int argc, char **argv)
{
    requireNoArgs(argc, argv);
    setQuiet(true);
    SystemConfig base;
    const std::vector<std::uint32_t> sizes = {10,   60,   200, 500,
                                              1000, 2000, 4000, 8000};
    const std::vector<NicKind> kinds = {
        NicKind::Discrete, NicKind::DiscreteZeroCopy,
        NicKind::Integrated, NicKind::IntegratedZeroCopy};

    std::printf("=== Fig. 4: one-way latency, conventional NIC "
                "configurations (40GbE) ===\n\n");
    std::printf("%-7s", "bytes");
    for (NicKind k : kinds)
        std::printf(" %12s", nicKindName(k));
    std::printf(" %14s %14s\n", "pcie.ovh dNIC", "pcie.ovh zcpy");

    std::vector<std::vector<PingResult>> res(kinds.size());
    for (std::uint32_t b : sizes) {
        std::printf("%-7u", b);
        PingResult dzc, d;
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            PingResult r = LatencyHarness(base, kinds[k]).run(b);
            res[k].push_back(r);
            if (kinds[k] == NicKind::Discrete)
                d = r;
            if (kinds[k] == NicKind::DiscreteZeroCopy)
                dzc = r;
            std::printf(" %9.3fus", r.totalUs);
        }
        std::printf(" %13.1f%% %13.1f%%\n", 100.0 * d.pcieFraction(),
                    100.0 * dzc.pcieFraction());
    }

    std::printf("\n-- iNIC gain over dNIC (paper: 21.3~38.6%%, larger "
                "for small packets) --\n");
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        double gain =
            100.0 * (1.0 - res[2][i].totalUs / res[0][i].totalUs);
        std::printf("  %5uB: %5.1f%%\n", sizes[i], gain);
    }

    std::printf("\n-- zero-copy gain over iNIC "
                "(paper: 28.8%% @10B, 52.3%% @2000B) --\n");
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        double gain =
            100.0 * (1.0 - res[3][i].totalUs / res[2][i].totalUs);
        std::printf("  %5uB: %5.1f%%\n", sizes[i], gain);
    }

    std::printf("\n-- PCIe share of dNIC.zcpy "
                "(paper: 40.9%% @10B, 34.3%% @2000B) --\n");
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::printf("  %5uB: %5.1f%%\n", sizes[i],
                    100.0 * res[1][i].pcieFraction());
    }
    return 0;
}
