/**
 * @file
 * Datacenter trace replay example: replay one of the three cluster
 * traffic mixes between two servers across a clos fabric and print
 * the per-packet latency distribution -- a compact version of the
 * Fig. 12(a) methodology exposed as a command-line tool.
 *
 *   $ ./examples/trace_datacenter [database|webserver|hadoop] \
 *         [dnic|inic|netdimm] [switch_ns] [--stats] [--trace FILE]
 *
 * With --trace FILE the packet stream is read from a trace file
 * (format: "<arrival_ns> <bytes> <locality>", see TraceFile.hh)
 * instead of the synthetic cluster generator -- e.g. a parse of the
 * public Facebook dataset.
 */

#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <iostream>
#include <map>

#include "harness/LatencyHistogram.hh"
#include "net/Switch.hh"
#include "kernel/Node.hh"
#include "workload/TraceFile.hh"
#include "workload/TraceGen.hh"

using namespace netdimm;

int
main(int argc, char **argv)
{
    setQuiet(true);
    ClusterType cluster = ClusterType::Webserver;
    if (argc > 1) {
        if (std::strcmp(argv[1], "database") == 0)
            cluster = ClusterType::Database;
        else if (std::strcmp(argv[1], "hadoop") == 0)
            cluster = ClusterType::Hadoop;
    }
    NicKind kind = NicKind::NetDimm;
    if (argc > 2) {
        if (std::strcmp(argv[2], "dnic") == 0)
            kind = NicKind::Discrete;
        else if (std::strcmp(argv[2], "inic") == 0)
            kind = NicKind::Integrated;
    }
    double switch_ns = argc > 3 ? std::atof(argv[3]) : 100.0;
    const int npackets = 1200;

    SystemConfig cfg;
    cfg.nic = kind;
    cfg.eth.switchLatency = nsToTicks(switch_ns);

    EventQueue eq;
    Node tx(eq, "tx", cfg, 0);
    Node rx(eq, "rx", cfg, 1);
    ClosFabric fabric(eq, "fabric", cfg.eth);
    fabric.attach(0, tx.endpoint());
    fabric.attach(1, rx.endpoint());

    std::map<std::uint64_t, TrafficLocality> locality;
    tx.setWire([&](const PacketPtr &pkt) {
        auto it = locality.find(pkt->id);
        TrafficLocality loc = it == locality.end()
                                  ? TrafficLocality::IntraCluster
                                  : it->second;
        fabric.forward(pkt, loc);
    });
    rx.setWire(
        [&](const PacketPtr &pkt) { fabric.deliver(pkt); });

    LatencyHistogram lat; ///< ticks
    rx.setReceiveHandler([&](const PacketPtr &pkt, Tick) {
        lat.sample(pkt->oneWayLatency());
    });

    // Packet stream: a trace file if given, else synthesized from
    // the cluster's published distributions.
    std::vector<TraceRecord> records;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0)
            records = TraceFile::load(argv[i + 1]);
    }
    if (records.empty()) {
        TraceGen gen(cluster, 5.0, 2026);
        records = TraceFile::synthesize(gen, npackets);
    }

    Tick t = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &rec = records[i];
        t += rec.interArrival;
        eq.schedule(t, [&, rec, i] {
            PacketPtr pkt =
                tx.makeTxPacket(rec.bytes, rx.id(), 1 + (i % 8));
            locality[pkt->id] = rec.locality;
            tx.sendPacket(pkt);
        });
    }
    eq.run();

    std::printf("cluster=%s nic=%s switch=%.0fns packets=%llu\n\n",
                clusterName(cluster), nicKindName(kind), switch_ns,
                (unsigned long long)lat.count());
    const double us = double(tickPerUs);
    std::printf("one-way latency  mean %7.3f us\n", lat.mean() / us);
    std::printf("                 p50  %7.3f us\n",
                lat.percentile(0.5) / us);
    std::printf("                 p90  %7.3f us\n",
                lat.percentile(0.9) / us);
    std::printf("                 p99  %7.3f us\n",
                lat.percentile(0.99) / us);
    std::printf("                 max  %7.3f us\n",
                ticksToUs(lat.maxValue()));

    if (argc > 4 && std::strcmp(argv[4], "--stats") == 0) {
        std::printf("\n");
        rx.printStats(std::cout);
    }
    return 0;
}
