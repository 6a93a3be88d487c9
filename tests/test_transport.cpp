/**
 * @file
 * Tests for the reliable transport subsystem: link fault injection,
 * go-back-N retransmission, RTO expiry with bounded retries, raw vs
 * reliable delivery over a lossy link, and run-to-run determinism.
 */

#include <gtest/gtest.h>

#include "kernel/Node.hh"
#include "net/Switch.hh"
#include "transport/FaultInjector.hh"
#include "transport/TransportHost.hh"

using namespace netdimm;

namespace
{

/** A raw endpoint feeding one side of a TransportFlow, with the
 *  receiving MAC's FCS filter (corrupted frames vanish). */
struct FlowEndpoint : NetEndpoint
{
    TransportFlow *flow = nullptr;
    bool senderSide = false;

    void
    deliver(const PacketPtr &pkt) override
    {
        if (pkt->corrupted)
            return;
        if (senderSide)
            flow->onSenderReceive(pkt);
        else
            flow->onReceiverReceive(pkt);
    }
};

/** Drops the first data frame carrying @p seq, exactly once. */
struct DropSeqOnce : LinkFaultHook
{
    std::uint64_t seq;
    bool done = false;

    explicit DropSeqOnce(std::uint64_t s) : seq(s) {}

    Verdict
    judge(const PacketPtr &pkt) override
    {
        if (!done && !pkt->isAck && pkt->seq == seq) {
            done = true;
            return Verdict::Drop;
        }
        return Verdict::Deliver;
    }
};

/** Drops every data frame; ACK frames pass. */
struct DropAllData : LinkFaultHook
{
    Verdict
    judge(const PacketPtr &pkt) override
    {
        return pkt->isAck ? Verdict::Deliver : Verdict::Drop;
    }
};

/**
 * A flow between two raw endpoints over one EthLink: no Node / NIC
 * models, so the tests below see exactly the transport behaviour.
 */
struct RawFlowFixture
{
    EventQueue eq;
    EthConfig eth;
    TransportConfig cfg;
    EthLink link;
    FlowEndpoint sendEp, recvEp;
    std::unique_ptr<TransportFlow> flow;
    std::vector<std::uint64_t> deliveredSeqs;

    RawFlowFixture() : link(eq, "link", eth)
    {
        cfg.segmentBytes = 1000;
        cfg.window = 8;
        cfg.minRto = usToTicks(20);
        cfg.maxRto = usToTicks(320);
        flow = std::make_unique<TransportFlow>(eq, "flow", cfg, 7);
        sendEp.flow = flow.get();
        sendEp.senderSide = true;
        recvEp.flow = flow.get();
        link.connect(&sendEp, &recvEp);

        flow->bindSender(
            [this](std::uint32_t bytes, std::uint64_t fid) {
                PacketPtr p = makePacket(bytes, 0, 1);
                p->flowId = fid;
                return p;
            },
            [this](const PacketPtr &p) { link.send(&sendEp, p); });
        flow->bindReceiver(
            [this](std::uint32_t bytes, std::uint64_t fid) {
                PacketPtr p = makePacket(bytes, 1, 0);
                p->flowId = fid;
                return p;
            },
            [this](const PacketPtr &p) { link.send(&recvEp, p); });
        flow->setDeliveryHandler(
            [this](const PacketPtr &p, Tick) {
                deliveredSeqs.push_back(p->seq);
            });
    }
};

} // namespace

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

TEST(FaultInjector, DeterministicForSeed)
{
    FaultDomain da("link", 42), db("link", 42);
    FaultInjector a(da, 0.1, 0.05), b(db, 0.1, 0.05);
    for (int i = 0; i < 2000; ++i) {
        PacketPtr p = makePacket(64);
        EXPECT_EQ(int(a.judge(p)), int(b.judge(p)));
    }
    EXPECT_EQ(a.framesDropped(), b.framesDropped());
    EXPECT_EQ(a.framesCorrupted(), b.framesCorrupted());
    EXPECT_GT(a.framesDropped(), 0u);
    EXPECT_GT(a.framesCorrupted(), 0u);
}

TEST(FaultInjector, RatesMatchConfiguredProbabilities)
{
    FaultDomain d("link", 7);
    FaultInjector inj(d, 0.02, 0.0);
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        inj.judge(makePacket(64));
    EXPECT_NEAR(double(inj.framesDropped()) / n, 0.02, 0.005);
    EXPECT_EQ(inj.framesCorrupted(), 0u);
}

TEST(FaultInjector, LinkDropAndCorruptStats)
{
    EventQueue eq;
    EthConfig eth;
    EthLink link(eq, "l", eth);
    struct Sink : NetEndpoint
    {
        int intact = 0, corrupted = 0;
        void
        deliver(const PacketPtr &p) override
        {
            (p->corrupted ? corrupted : intact)++;
        }
    } a, b;
    link.connect(&a, &b);

    FaultDomain d("link", 3);
    FaultInjector inj(d, 0.2, 0.2);
    link.setFaultHook(&inj);

    const int n = 1000;
    for (int i = 0; i < n; ++i)
        link.send(&a, makePacket(200, 0, 1));
    eq.run();

    EXPECT_EQ(link.framesDropped(), inj.framesDropped());
    EXPECT_EQ(link.framesCorrupted(), inj.framesCorrupted());
    EXPECT_GT(link.framesDropped(), 0u);
    EXPECT_GT(link.framesCorrupted(), 0u);
    EXPECT_EQ(b.intact + b.corrupted,
              n - int(link.framesDropped()));
    EXPECT_EQ(b.corrupted, int(link.framesCorrupted()));
}

// ---------------------------------------------------------------------
// Go-back-N over a raw link
// ---------------------------------------------------------------------

TEST(TransportFlow, DeliversAllBytesInOrderLossless)
{
    RawFlowFixture f;
    f.flow->send(10 * 1000);
    f.flow->close();
    f.eq.run();

    EXPECT_TRUE(f.flow->complete());
    EXPECT_FALSE(f.flow->aborted());
    EXPECT_EQ(f.flow->deliveredBytes(), 10000u);
    EXPECT_EQ(f.flow->retransmissions(), 0u);
    ASSERT_EQ(f.deliveredSeqs.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(f.deliveredSeqs[i], i);
}

TEST(TransportFlow, GoBackNRecoversAnInjectedDrop)
{
    RawFlowFixture f;
    DropSeqOnce hook(/*seq=*/2);
    f.link.setFaultHook(&hook);

    f.flow->send(10 * 1000);
    f.flow->close();
    f.eq.run();

    EXPECT_TRUE(hook.done);
    EXPECT_TRUE(f.flow->complete());
    // The drop forced at least seq 2 to be resent; with a window of 8
    // go-back-N also resends its successors that were in flight.
    EXPECT_GT(f.flow->retransmissions(), 0u);
    EXPECT_GT(f.flow->fastRetransmits() + f.flow->timeouts(), 0u);
    EXPECT_GT(f.flow->outOfOrderDrops(), 0u);
    // Despite the loss, everything arrives exactly once, in order.
    EXPECT_EQ(f.flow->deliveredBytes(), 10000u);
    ASSERT_EQ(f.deliveredSeqs.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(f.deliveredSeqs[i], i);
}

TEST(TransportFlow, CorruptedFrameIsRecoveredToo)
{
    RawFlowFixture f;
    struct CorruptSeqOnce : LinkFaultHook
    {
        bool done = false;
        Verdict
        judge(const PacketPtr &pkt) override
        {
            if (!done && !pkt->isAck && pkt->seq == 1) {
                done = true;
                return Verdict::Corrupt;
            }
            return Verdict::Deliver;
        }
    } hook;
    f.link.setFaultHook(&hook);

    f.flow->send(6 * 1000);
    f.flow->close();
    f.eq.run();

    EXPECT_TRUE(f.flow->complete());
    EXPECT_EQ(f.flow->deliveredBytes(), 6000u);
    EXPECT_GT(f.flow->retransmissions(), 0u);
    EXPECT_EQ(f.link.framesCorrupted(), 1u);
}

TEST(TransportFlow, RtoExpiryAbortsAfterBoundedRetries)
{
    RawFlowFixture f;
    DropAllData hook;
    f.link.setFaultHook(&hook);

    f.flow->send(3 * 1000);
    f.flow->close();
    Tick start = f.eq.curTick();
    f.eq.run();

    EXPECT_FALSE(f.flow->complete());
    EXPECT_TRUE(f.flow->aborted());
    // One expiry per retry plus the final one that gives up.
    EXPECT_EQ(f.flow->timeouts(),
              std::uint64_t(f.cfg.maxRetries) + 1);
    EXPECT_EQ(f.flow->deliveredBytes(), 0u);
    // Exponential backoff: the abort happens well after maxRetries
    // minimum-RTO periods.
    EXPECT_GT(f.eq.curTick() - start,
              Tick(f.cfg.maxRetries) * f.cfg.minRto);
    // The event queue drained: no timer leaked after the abort.
    EXPECT_TRUE(f.eq.empty());
}

TEST(TransportFlow, EcnEchoCutsSenderRate)
{
    RawFlowFixture f;
    double line = f.cfg.lineRateGbps;
    // Deliver data frames pre-marked as if a congested switch stood
    // between the endpoints.
    struct MarkAll : LinkFaultHook
    {
        Verdict
        judge(const PacketPtr &pkt) override
        {
            if (!pkt->isAck)
                pkt->ecnMarked = true;
            return Verdict::Deliver;
        }
    } hook;
    f.link.setFaultHook(&hook);

    f.flow->send(20 * 1000);
    f.flow->close();
    f.eq.run();

    EXPECT_TRUE(f.flow->complete());
    EXPECT_GT(f.flow->ecnEchoes(), 0u);
    EXPECT_GT(f.flow->rateCuts(), 0u);
    EXPECT_LT(f.flow->currentRateGbps(), line);
}

// ---------------------------------------------------------------------
// Node-level: raw mode loses frames, reliable mode does not
// ---------------------------------------------------------------------

namespace
{

struct NodePairFixture
{
    SystemConfig sys;
    EventQueue eq;
    std::unique_ptr<Node> tx, rx;
    std::unique_ptr<EthLink> link;
    FaultDomain wire{"link", 99};
    FaultInjector inj;

    explicit NodePairFixture(double drop_prob)
        : inj(wire, drop_prob, 0.0)
    {
        tx = std::make_unique<Node>(eq, "tx", sys, 0);
        rx = std::make_unique<Node>(eq, "rx", sys, 1);
        link = std::make_unique<EthLink>(eq, "link", sys.eth);
        link->connect(tx->endpoint(), rx->endpoint());
        tx->connectTo(*link);
        rx->connectTo(*link);
        link->setFaultHook(&inj);
    }
};

} // namespace

TEST(ReliableVsRaw, RawModeLosesFramesAtOnePercentLoss)
{
    NodePairFixture f(0.01);
    const int n = 1500;
    int received = 0;
    f.rx->setReceiveHandler(
        [&](const PacketPtr &, Tick) { ++received; });

    Tick t = 0;
    for (int i = 0; i < n; ++i) {
        t += nsToTicks(500);
        f.eq.schedule(t, [&f, i] {
            PacketPtr pkt =
                f.tx->makeTxPacket(1460, f.rx->id(), 1 + (i % 8));
            f.tx->sendPacket(pkt);
        });
    }
    f.eq.run();

    EXPECT_GT(f.link->framesDropped(), 0u);
    EXPECT_LT(received, n);
    EXPECT_EQ(received, n - int(f.link->framesDropped()));
}

TEST(ReliableVsRaw, ReliableModeDeliversEverythingAtOnePercentLoss)
{
    NodePairFixture f(0.01);
    TransportHost txHost(f.eq, "txhost", *f.tx);
    TransportHost rxHost(f.eq, "rxhost", *f.rx);
    TransportConfig tcfg = f.sys.transport;
    TransportFlow flow(f.eq, "flow", tcfg, 1);
    connectFlow(flow, txHost, rxHost);

    std::uint64_t expected_seq = 0;
    bool in_order = true;
    flow.setDeliveryHandler([&](const PacketPtr &p, Tick) {
        in_order = in_order && (p->seq == expected_seq);
        ++expected_seq;
    });

    const std::uint64_t total = 1500ull * tcfg.segmentBytes;
    flow.send(total);
    flow.close();
    f.eq.run();

    // Frames were lost on the wire...
    EXPECT_GT(f.link->framesDropped(), 0u);
    EXPECT_GT(flow.retransmissions(), 0u);
    // ...yet every payload byte arrived, exactly once, in order.
    EXPECT_TRUE(flow.complete());
    EXPECT_FALSE(flow.aborted());
    EXPECT_EQ(flow.deliveredBytes(), total);
    EXPECT_TRUE(in_order);
    EXPECT_EQ(expected_seq, 1500u);
}

// ---------------------------------------------------------------------
// Determinism: same seed => identical drop pattern and final stats
// ---------------------------------------------------------------------

namespace
{

struct IncastResult
{
    std::uint64_t delivered = 0;
    std::uint64_t retx = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t ecnMarks = 0;
    std::uint64_t queueDrops = 0;
    std::uint64_t faultDrops = 0;
    Tick lastCompletion = 0;

    bool
    operator==(const IncastResult &o) const
    {
        return delivered == o.delivered && retx == o.retx &&
               timeouts == o.timeouts && ecnMarks == o.ecnMarks &&
               queueDrops == o.queueDrops &&
               faultDrops == o.faultDrops &&
               lastCompletion == o.lastCompletion;
    }
};

IncastResult
runSmallIncast(std::uint64_t seed)
{
    SystemConfig sys;
    sys.eth.switchQueueFrames = 16;
    sys.eth.ecnThresholdFrames = 4;

    EventQueue eq;
    Switch sw(eq, "sw", sys.eth);
    Node rxNode(eq, "rx", sys, 0);
    EthLink down(eq, "down", sys.eth);
    down.connect(&sw, rxNode.endpoint());
    rxNode.connectTo(down);
    sw.addRoute(0, &down);

    FaultDomain wire("link", seed);
    FaultInjector inj(wire, 0.005, 0.0);
    down.setFaultHook(&inj);

    TransportHost rxHost(eq, "rxhost", rxNode);

    const int fanin = 2;
    std::vector<std::unique_ptr<Node>> senders;
    std::vector<std::unique_ptr<EthLink>> links;
    std::vector<std::unique_ptr<TransportHost>> hosts;
    std::vector<std::unique_ptr<TransportFlow>> flows;
    IncastResult r;
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
        auto flow = std::make_unique<TransportFlow>(
            eq, "flow" + std::to_string(s), sys.transport, 1 + s);
        connectFlow(*flow, *host, rxHost);
        flow->setCompletionHandler([&r](TransportFlow &f) {
            r.lastCompletion =
                std::max(r.lastCompletion, f.completeTick());
        });
        flow->send(100ull * sys.transport.segmentBytes);
        flow->close();
        senders.push_back(std::move(node));
        links.push_back(std::move(link));
        hosts.push_back(std::move(host));
        flows.push_back(std::move(flow));
    }
    eq.run();

    for (auto &f : flows) {
        r.delivered += f->deliveredBytes();
        r.retx += f->retransmissions();
        r.timeouts += f->timeouts();
    }
    r.ecnMarks = sw.ecnMarks();
    r.queueDrops = sw.dropsQueue();
    r.faultDrops = down.framesDropped();
    return r;
}

} // namespace

TEST(Determinism, SameSeedSameDropPatternAndStats)
{
    IncastResult a = runSmallIncast(1234);
    IncastResult b = runSmallIncast(1234);
    EXPECT_TRUE(a == b);
    // The run actually exercised loss/congestion machinery.
    EXPECT_GT(a.faultDrops, 0u);
    EXPECT_GT(a.retx, 0u);
    EXPECT_EQ(a.delivered,
              2 * 100ull * SystemConfig{}.transport.segmentBytes);
}

TEST(Determinism, DifferentSeedDifferentDropPattern)
{
    IncastResult a = runSmallIncast(1234);
    IncastResult b = runSmallIncast(4321);
    // Same totals delivered (reliability), different loss pattern.
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_FALSE(a == b);
}
