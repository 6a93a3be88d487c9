/**
 * @file
 * Incast congestion study for the reliable transport subsystem.
 *
 * N sender nodes each run a chain of reliable flows into one receiver
 * behind a single output-queued switch, so the shared downlink is
 * oversubscribed N:1. The switch has a finite egress queue with ECN
 * marking; a FaultInjector on the downlink adds random loss on top of
 * the congestion drops. Sweeps fan-in degree x loss rate and reports
 * goodput, retransmissions, ECN marks, queue/fault drops and p50/p99
 * flow-completion time.
 *
 * Not a paper figure: this exercises the transport layer (go-back-N +
 * DCQCN-style rate control) the NetDIMM paper assumes from its
 * datacenter environment rather than evaluates.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/LatencyHistogram.hh"
#include "harness/SweepRunner.hh"
#include "net/Switch.hh"
#include "transport/FaultInjector.hh"
#include "transport/TransportHost.hh"

using namespace netdimm;

namespace
{

constexpr std::uint64_t kFlowBytes = 64 * 1024;
constexpr int kFlowsPerSender = 8;

struct IncastStats
{
    double goodputGbps = 0.0;
    std::uint64_t retx = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t ecnEchoes = 0;
    std::uint64_t ecnMarks = 0;
    std::uint64_t queueDrops = 0;
    std::uint64_t faultDrops = 0;
    std::uint32_t maxDepth = 0;
    std::uint64_t aborted = 0;
    double p50FctUs = 0.0;
    double p99FctUs = 0.0;
};

/**
 * One sender's workload: kFlowsPerSender flows of kFlowBytes, run
 * back-to-back -- each completion starts the next flow so the
 * configured fan-in stays constant while yielding many FCT samples.
 */
struct FlowChain
{
    EventQueue &eq;
    TransportHost &tx;
    TransportHost &rx;
    const TransportConfig &cfg;
    std::uint64_t nextFlowId;
    int remaining = kFlowsPerSender;
    std::unique_ptr<TransportFlow> current;
    std::vector<std::unique_ptr<TransportFlow>> done;
    LatencyHistogram &fct; ///< flow-completion times, ticks
    IncastStats &agg;

    FlowChain(EventQueue &e, TransportHost &t, TransportHost &r,
              const TransportConfig &c, std::uint64_t first_id,
              LatencyHistogram &q, IncastStats &a)
        : eq(e), tx(t), rx(r), cfg(c), nextFlowId(first_id), fct(q),
          agg(a)
    {
        startNext();
    }

    void
    startNext()
    {
        current = std::make_unique<TransportFlow>(
            eq, "flow" + std::to_string(nextFlowId), cfg,
            nextFlowId);
        ++nextFlowId;
        connectFlow(*current, tx, rx);
        current->setCompletionHandler(
            [this](TransportFlow &f) { onDone(f); });
        current->send(kFlowBytes);
        current->close();
    }

    void
    onDone(TransportFlow &f)
    {
        agg.retx += f.retransmissions();
        agg.timeouts += f.timeouts();
        agg.ecnEchoes += f.ecnEchoes();
        if (f.aborted()) {
            ++agg.aborted;
        } else {
            fct.sample(f.fct());
        }
        done.push_back(std::move(current));
        if (--remaining > 0)
            startNext();
    }
};

IncastStats
runIncast(int fanin, double loss_rate, std::uint64_t seed)
{
    SystemConfig sys;
    const TransportConfig &tcfg = sys.transport;

    EventQueue eq;
    Switch sw(eq, "sw", sys.eth);
    Node rxNode(eq, "rx", sys, 0);
    EthLink down(eq, "down", sys.eth);
    down.connect(&sw, rxNode.endpoint());
    rxNode.connectTo(down);
    sw.addRoute(0, &down);

    FaultDomain wire("link", seed);
    FaultInjector inj(wire, loss_rate, 0.0);
    if (loss_rate > 0.0)
        down.setFaultHook(&inj);

    TransportHost rxHost(eq, "rxhost", rxNode);

    IncastStats r;
    LatencyHistogram fct;
    std::uint64_t delivered = 0;
    rxHost.setRawHandler([](const PacketPtr &, Tick) {});

    std::vector<std::unique_ptr<Node>> nodes;
    std::vector<std::unique_ptr<EthLink>> links;
    std::vector<std::unique_ptr<TransportHost>> hosts;
    std::vector<std::unique_ptr<FlowChain>> chains;
    for (int s = 0; s < fanin; ++s) {
        auto node = std::make_unique<Node>(
            eq, "tx" + std::to_string(s), sys, 1 + s);
        auto link = std::make_unique<EthLink>(
            eq, "up" + std::to_string(s), sys.eth);
        link->connect(&sw, node->endpoint());
        node->connectTo(*link);
        sw.addRoute(1 + s, link.get());
        auto host = std::make_unique<TransportHost>(
            eq, "host" + std::to_string(s), *node);
        chains.push_back(std::make_unique<FlowChain>(
            eq, *host, rxHost, tcfg,
            /*first_id=*/1 + std::uint64_t(s) * kFlowsPerSender, fct,
            r));
        nodes.push_back(std::move(node));
        links.push_back(std::move(link));
        hosts.push_back(std::move(host));
    }

    eq.run();

    for (auto &c : chains)
        for (auto &f : c->done)
            delivered += f->deliveredBytes();
    r.goodputGbps = eq.curTick()
                        ? double(delivered) * 8.0 /
                              ticksToSec(eq.curTick()) / 1e9
                        : 0.0;
    r.ecnMarks = sw.ecnMarks();
    r.queueDrops = sw.dropsQueue();
    r.faultDrops = down.framesDropped();
    r.maxDepth = sw.maxQueueDepth();
    r.p50FctUs = fct.percentile(0.50) / double(tickPerUs);
    r.p99FctUs = fct.percentile(0.99) / double(tickPerUs);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    requireNoArgs(argc, argv);
    setQuiet(true);
    const std::vector<int> fanins = {2, 4, 8};
    const std::vector<double> losses = {0.0, 0.001, 0.01};

    std::printf("=== Incast congestion: reliable transport over one "
                "switch, %d flows x %llu KiB per sender ===\n",
                kFlowsPerSender,
                static_cast<unsigned long long>(kFlowBytes / 1024));
    std::printf("switch queue %u frames, ECN threshold %u frames, "
                "line rate %.0f Gbps\n\n",
                SystemConfig{}.eth.switchQueueFrames,
                SystemConfig{}.eth.ecnThresholdFrames,
                SystemConfig{}.transport.lineRateGbps);

    std::printf("%6s %8s %10s %7s %9s %9s %9s %8s %10s %10s\n",
                "fanin", "loss", "goodput", "retx", "timeouts",
                "ecnMarks", "qDrops", "lDrops", "p50FCT(us)",
                "p99FCT(us)");
    for (int fanin : fanins) {
        for (double loss : losses) {
            IncastStats r = runIncast(fanin, loss, /*seed=*/1 + fanin);
            std::printf("%6d %7.2f%% %8.2fGb %7llu %9llu %9llu %9llu "
                        "%8llu %10.1f %10.1f\n",
                        fanin, loss * 100.0, r.goodputGbps,
                        static_cast<unsigned long long>(r.retx),
                        static_cast<unsigned long long>(r.timeouts),
                        static_cast<unsigned long long>(r.ecnMarks),
                        static_cast<unsigned long long>(r.queueDrops),
                        static_cast<unsigned long long>(r.faultDrops),
                        r.p50FctUs, r.p99FctUs);
            if (r.aborted)
                std::printf("        (%llu flows aborted)\n",
                            static_cast<unsigned long long>(
                                r.aborted));
        }
    }
    return 0;
}
