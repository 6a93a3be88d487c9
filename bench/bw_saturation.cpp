/**
 * @file
 * Sec. 5.2 bandwidth claim: "NetDIMM delivers 40Gbps bandwidth just
 * like our PCIe and integrated NIC models" -- one memory channel
 * (12.8 GB/s = 102.4 Gbps nominal for DDR4) comfortably carries a
 * 40GbE stream. This bench runs a windowed bulk flow on each NIC
 * architecture and reports the achieved goodput.
 */

#include <cstdio>
#include <vector>

#include "harness/SweepRunner.hh"
#include "net/Link.hh"
#include "workload/IperfFlow.hh"

using namespace netdimm;

int
main(int argc, char **argv)
{
    requireNoArgs(argc, argv);
    setQuiet(true);
    const Tick sim_time = usToTicks(400);

    std::printf("=== Bandwidth saturation (1460B segments, window 64) "
                "===\n\n");
    std::printf("%-12s %14s %16s\n", "NIC", "goodput(Gbps)",
                "line-rate share");

    for (NicKind kind : {NicKind::Discrete, NicKind::Integrated,
                         NicKind::NetDimm}) {
        SystemConfig cfg;
        cfg.nic = kind;
        EventQueue eq;
        Node tx(eq, "tx", cfg, 0);
        Node rx(eq, "rx", cfg, 1);
        EthLink link(eq, "link", cfg.eth);
        link.connect(tx.endpoint(), rx.endpoint());
        tx.connectTo(link);
        rx.connectTo(link);

        IperfFlow flow(eq, "flow", tx, rx, 1460, 64, 4);
        flow.start();
        eq.run(sim_time);

        // Frame overhead alone caps goodput at ~96% of 40G.
        double line = 40.0 * 1460.0 / (1460.0 + 24.0);
        std::printf("%-12s %14.2f %15.1f%%\n", nicKindName(kind),
                    flow.goodputGbps(),
                    100.0 * flow.goodputGbps() / line);
    }
    std::printf("\n(paper: all three architectures sustain 40Gbps)\n");
    return 0;
}
