/**
 * @file
 * Fig. 7: spatial and temporal locality of NIC DMA memory accesses
 * as seen by the host memory controller, while receiving six 1514B
 * packets. The paper observes bursts of 24 cachelines (1536B)
 * arriving within a short interval (~143ns for its third packet);
 * this bench reproduces the (relative time, relative address) scatter
 * and the per-burst statistics.
 *
 * DDIO is disabled here so the DMA writes reach the DRAM controllers
 * where the trace hook observes them (the paper's measurement point).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "harness/SweepRunner.hh"
#include "kernel/Node.hh"
#include "net/Link.hh"

using namespace netdimm;

int
main(int argc, char **argv)
{
    requireNoArgs(argc, argv);
    setQuiet(true);
    SystemConfig cfg;
    cfg.nic = NicKind::Discrete;
    cfg.llc.ddioEnabled = false; // observe DMA at the controllers

    EventQueue eq;
    Node rx(eq, "rx", cfg, 0);
    Node tx(eq, "tx", cfg, 1);
    EthLink link(eq, "link", cfg.eth);
    link.connect(tx.endpoint(), rx.endpoint());
    tx.connectTo(link);
    rx.connectTo(link);

    struct Sample
    {
        Tick t;
        Addr a;
    };
    std::vector<Sample> samples;
    auto hook = [&](Tick t, Addr a, bool write, MemSource src) {
        if (write && src == MemSource::HostDma)
            samples.push_back({t, a});
    };
    for (std::uint32_t c = 0; c < rx.mem().numChannels(); ++c)
        rx.mem().channel(c).setTraceHook(hook);

    rx.setReceiveHandler([](const PacketPtr &, Tick) {});

    // Six 1514B packets, 10us apart (line-idle arrivals).
    for (int i = 0; i < 6; ++i) {
        eq.schedule(usToTicks(10) * Tick(i + 1), [&tx, &rx] {
            tx.sendPacket(tx.makeTxPacket(1514, rx.id(), 5));
        });
    }
    eq.run();

    if (samples.empty()) {
        std::printf("no DMA samples captured\n");
        return 1;
    }

    std::sort(samples.begin(), samples.end(),
              [](const Sample &x, const Sample &y) { return x.t < y.t; });
    Tick t0 = samples.front().t;
    Addr a0 = samples.front().a;

    std::printf("=== Fig. 7: DMA write accesses at the host memory "
                "controller ===\n");
    std::printf("(six 1514B packets; relative ns vs relative line "
                "address)\n\n");
    std::printf("%12s %14s\n", "rel time(ns)", "rel addr(B)");
    for (const Sample &s : samples) {
        std::printf("%12.1f %14lld\n", ticksToNs(s.t - t0),
                    (long long)(s.a - a0));
    }

    // Burst statistics: group samples separated by > 1us gaps.
    std::printf("\n-- per-packet burst statistics "
                "(paper: 24 lines / burst, ~143ns span) --\n");
    std::size_t start = 0;
    int burst = 0;
    for (std::size_t i = 1; i <= samples.size(); ++i) {
        bool boundary = i == samples.size() ||
                        samples[i].t - samples[i - 1].t > usToTicks(1);
        if (!boundary)
            continue;
        ++burst;
        std::size_t n = i - start;
        double span = ticksToNs(samples[i - 1].t - samples[start].t);
        Addr lo = samples[start].a, hi = lo;
        for (std::size_t j = start; j < i; ++j) {
            lo = std::min(lo, samples[j].a);
            hi = std::max(hi, samples[j].a);
        }
        std::printf("  burst %d: %3zu lines, span %7.1f ns, footprint "
                    "%llu B\n",
                    burst, n, span,
                    (unsigned long long)(hi - lo + 64));
        start = i;
    }
    return 0;
}
