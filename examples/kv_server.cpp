/**
 * @file
 * In-memory key-value store example (the "ultra-low latency
 * application" class the paper's introduction motivates: in-memory
 * caching, financial trading).
 *
 * A client node issues GET requests (64B) to a server node that
 * answers with the value (configurable size, default 256B). The
 * round-trip time is the metric such services live and die by; the
 * example reports mean and tail RTT for dNIC, iNIC and NetDIMM
 * servers, plus the request rate a closed-loop client achieves.
 *
 *   $ ./examples/kv_server [value_bytes]
 */

#include <cstdio>
#include <cstdlib>

#include "harness/LatencyHistogram.hh"
#include "net/Link.hh"
#include "kernel/Node.hh"

using namespace netdimm;

namespace
{

struct KvResult
{
    double meanUs;
    double p99Us;
    double kops;
};

KvResult
runKv(NicKind kind, std::uint32_t value_bytes, int requests)
{
    SystemConfig cfg;
    cfg.nic = kind;

    EventQueue eq;
    Node client(eq, "client", cfg, 0);
    Node server(eq, "server", cfg, 1);
    EthLink link(eq, "link", cfg.eth);
    link.connect(client.endpoint(), server.endpoint());
    client.connectTo(link);
    server.connectTo(link);

    LatencyHistogram rtt; ///< ticks
    int done = 0;
    Tick issue_at = 0;
    Tick last_response = 0;
    const int warmup = 8;

    // Server: every GET is answered with the value.
    server.setReceiveHandler([&](const PacketPtr &req, Tick) {
        PacketPtr resp = server.makeTxPacket(value_bytes,
                                             client.id(), req->flowId);
        server.sendPacket(resp);
    });

    // Closed-loop client: next GET when the response lands.
    std::function<void()> issue = [&] {
        if (done >= requests + warmup)
            return;
        issue_at = eq.curTick();
        client.sendPacket(client.makeTxPacket(64, server.id(), 5));
    };
    client.setReceiveHandler([&](const PacketPtr &, Tick t) {
        if (done++ >= warmup)
            rtt.sample(t - issue_at);
        last_response = t;
        issue();
    });

    Tick start = eq.curTick();
    issue();
    eq.run();

    KvResult r;
    r.meanUs = rtt.mean() / double(tickPerUs);
    r.p99Us = rtt.percentile(0.99) / double(tickPerUs);
    double secs = ticksToSec(last_response - start);
    r.kops = double(requests + warmup) / secs / 1e3;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::uint32_t value_bytes =
        argc > 1 ? std::uint32_t(std::atoi(argv[1])) : 256;
    const int requests = 300;

    std::printf("Key-value store: closed-loop GETs (64B request, %uB "
                "value)\n\n",
                value_bytes);
    std::printf("%-10s %12s %12s %14s\n", "server", "mean RTT(us)",
                "p99 RTT(us)", "rate (kops/s)");
    for (NicKind kind : {NicKind::Discrete, NicKind::Integrated,
                         NicKind::NetDimm}) {
        KvResult r = runKv(kind, value_bytes, requests);
        std::printf("%-10s %12.3f %12.3f %14.1f\n", nicKindName(kind),
                    r.meanUs, r.p99Us, r.kops);
    }
    std::printf("\nA NetDIMM-equipped server answers a GET in roughly "
                "half the time of a\nPCIe-NIC server -- the "
                "microsecond scale the paper's intro targets.\n");
    return 0;
}
