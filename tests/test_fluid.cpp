/**
 * @file
 * Unit tests for the fluid flow model (DESIGN.md §17): exact
 * piecewise-linear backlog integration, the solver's rate ledger
 * against closed-form expectations, saturation fixed point,
 * packet<->fluid handoff conservation, fidelity classification, and
 * the idle-background byte-identity guarantee.
 */

#include <gtest/gtest.h>

#include "flow/FidelityManager.hh"
#include "net/Switch.hh"

using namespace netdimm;

namespace
{

/** 40 Gbps in wire bytes per tick (1 tick = 1 ps). */
constexpr double kCapBps = 40.0 / 8000.0;

EthConfig
testEth(std::uint32_t queue_frames, std::uint32_t ecn_frames)
{
    EthConfig eth;
    eth.switchQueueFrames = queue_frames;
    eth.ecnThresholdFrames = ecn_frames;
    return eth;
}

} // namespace

// -- FluidLink: exact integration ---------------------------------------

TEST(FluidLink, SubCapacityArrivalsPassThroughWithZeroBacklog)
{
    FluidLink l("l", testEth(0, 0), 1460);
    l.setFluidArrivalGbps(20.0);
    l.advanceTo(1000000); // 1 us
    // 20 Gbps for 1 us = 2500 wire bytes, all delivered in-window.
    EXPECT_DOUBLE_EQ(l.arrivedWireBytes(), 2500.0);
    EXPECT_DOUBLE_EQ(l.deliveredWireBytes(), 2500.0);
    EXPECT_DOUBLE_EQ(l.backlogWireBytes(), 0.0);
    EXPECT_DOUBLE_EQ(l.deliveredShare(), 1.0);
    EXPECT_DOUBLE_EQ(l.droppedShare(), 0.0);
}

TEST(FluidLink, OverCapacityArrivalsAccumulateExactBacklog)
{
    FluidLink l("l", testEth(0, 0), 1460);
    l.setFluidArrivalGbps(60.0);
    l.advanceTo(1000000);
    // Net (60-40) Gbps for 1 us = 2500 wire bytes of backlog; the
    // transmitter is busy the whole window: 40 Gbps * 1 us = 5000.
    EXPECT_DOUBLE_EQ(l.arrivedWireBytes(), 7500.0);
    EXPECT_DOUBLE_EQ(l.deliveredWireBytes(), 5000.0);
    EXPECT_DOUBLE_EQ(l.backlogWireBytes(), 2500.0);
}

TEST(FluidLink, DrainSplitsAtTheZeroCrossing)
{
    FluidLink l("l", testEth(0, 0), 1460);
    l.setFluidArrivalGbps(60.0);
    l.advanceTo(1000000); // leaves 2500 B of backlog
    l.setFluidArrivalGbps(0.0);
    l.advanceTo(2000000);
    // 2500 B drain at 40 Gbps in exactly 500000 ticks, then idle:
    // the window delivers only the leftover backlog.
    EXPECT_DOUBLE_EQ(l.backlogWireBytes(), 0.0);
    EXPECT_DOUBLE_EQ(l.deliveredWireBytes(), 7500.0);
    EXPECT_DOUBLE_EQ(l.deliveredShare(), 1.0);
}

TEST(FluidLink, CapCrossingTailDropsTheExcess)
{
    // Cap = 2 reference frames = 2 * 1484 = 2968 wire bytes.
    FluidLink l("l", testEth(2, 0), 1460);
    l.setFluidArrivalGbps(80.0);
    l.advanceTo(1000000);
    // Net +40 Gbps fills the cap at t = 2968/0.005 = 593600 ticks;
    // everything arriving above capacity after that drops.
    EXPECT_DOUBLE_EQ(l.backlogWireBytes(), 2968.0);
    EXPECT_DOUBLE_EQ(l.droppedWireBytes(), 0.005 * (1000000 - 593600));
    EXPECT_DOUBLE_EQ(l.arrivedWireBytes(), 10000.0);
    // Conservation: arrived == delivered + dropped + backlog.
    EXPECT_DOUBLE_EQ(l.deliveredWireBytes() + l.droppedWireBytes() +
                         l.backlogWireBytes(),
                     l.arrivedWireBytes());
}

TEST(FluidLink, EcnThresholdComparesFrameGranularBacklog)
{
    FluidLink l("l", testEth(0, 2), 1460);
    l.setFluidArrivalGbps(60.0);
    l.advanceTo(1000000); // backlog 2500 B < 2 frames (2968 B)
    EXPECT_FALSE(l.congested());
    l.advanceTo(2000000); // backlog 5000 B >= 2968 B
    EXPECT_TRUE(l.congested());
    // The lagged view: at the first round boundary the link was not
    // yet past the threshold.
    EXPECT_FALSE(l.congestedAt(1000000));
    EXPECT_TRUE(l.congestedAt(2000000));
}

// -- FluidSolver: ledger vs closed form ---------------------------------

TEST(FluidSolver, UncongestedFlowDeliversAtExactlyItsRate)
{
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0); // default 55 us rounds
    FluidLink &l = solver.addLink("l", testEth(0, 0), 1460);

    TransportConfig cfg;
    cfg.lineRateGbps = 10.0; // well under the 40 Gbps link
    std::uint64_t total = 125000; // = 100 us at 10 Gbps
    const FluidFlow &f = solver.addFlow(1, cfg, {&l}, total);

    solver.start(usToTicks(1000));
    eq.run();

    // No congestion anywhere: the ledger advances by rate * dt per
    // round, so completion lands on the first round boundary at or
    // after the closed-form finish time (100 us -> round at 110 us).
    EXPECT_TRUE(f.done);
    EXPECT_EQ(f.doneTick, 2 * TransportConfig{}.rateIncreaseInterval);
    EXPECT_DOUBLE_EQ(solver.totalDeliveredBytes(), double(total));
    EXPECT_DOUBLE_EQ(l.backlogWireBytes(), 0.0);
    EXPECT_EQ(solver.rateCuts(), 0u);
}

TEST(FluidSolver, OversubscribedSharesAreProportionalAndExact)
{
    // Open-loop fixed point (no ECN, no cap): two constant-rate
    // flows jointly oversubscribe the link, so the solver's share
    // accounting must hand each flow a pool-proportional slice and
    // conserve every byte between the ledgers and the link backlog.
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0);
    FluidLink &l = solver.addLink("l", testEth(0, 0), 1460);

    TransportConfig a, b;
    a.lineRateGbps = 30.0;
    b.lineRateGbps = 10.0;
    FluidFlow &fa = solver.addFlow(1, a, {&l}, 0);
    FluidFlow &fb = solver.addFlow(2, b, {&l}, 0);

    Tick horizon = usToTicks(1000);
    solver.start(horizon);
    eq.run();

    // The link is busy from the first instant, so it delivers at
    // exactly capacity; the overflow accumulates as backlog.
    double capacityBytes = kCapBps * double(horizon);
    double arrWire = 40.0 * l.wireFactor() / 8000.0 * double(horizon);
    EXPECT_NEAR(l.deliveredWireBytes(), capacityBytes, 1.0);
    EXPECT_NEAR(l.backlogWireBytes(), arrWire - capacityBytes, 1.0);
    // Shares are proportional to the offered rates, 3:1.
    EXPECT_NEAR(fa.deliveredBytes / fb.deliveredBytes, 3.0, 1e-9);
    // Ledger <-> link conservation (payload vs wire units).
    EXPECT_NEAR((fa.deliveredBytes + fb.deliveredBytes) *
                    l.wireFactor(),
                l.deliveredWireBytes(), 1.0);
    EXPECT_EQ(solver.rateCuts(), 0u);
}

TEST(FluidSolver, EcnFeedbackRegulatesASaturatedLink)
{
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0);
    FluidLink &l = solver.addLink("l", testEth(0, 64), 1460);

    TransportConfig cfg; // 40 Gbps line rate, DCQCN defaults
    // Warm-start at the fair share: the test measures the regulated
    // cycle, not the 4x-line-rate cold-start transient.
    DcqcnState seed;
    seed.init(cfg);
    seed.rateGbps = seed.targetGbps = 10.0;
    seed.alpha = 0.2;
    for (std::uint64_t id = 1; id <= 4; ++id)
        solver.addFlow(id, cfg, {&l}, 0, &seed); // open-ended flows

    Tick horizon = usToTicks(10000);
    solver.start(horizon);
    eq.run();

    // ECN echoes (sampled with the packet domain's feedback lag)
    // must engage and bound the backlog; the cut/drain/recover cycle
    // trades some utilization for the bounded queue, exactly like
    // DCQCN with a handful of synchronized flows does.
    double capacityBytes = kCapBps * double(horizon);
    EXPECT_GT(l.deliveredWireBytes(), 0.70 * capacityBytes);
    EXPECT_LE(l.deliveredWireBytes(), capacityBytes + 1.0);
    EXPECT_GT(solver.rateCuts(), 0u);
    // The regulated backlog ends in the neighbourhood of the ECN
    // threshold instead of growing without bound.
    EXPECT_LT(l.backlogWireBytes(), 20.0 * l.ecnWireBytes());
}

// -- FluidSolver: the per-round walk ------------------------------------

namespace
{

/** Line-rate-only config: uncongested, the DCQCN rate stays put. */
TransportConfig
fixedRate(double gbps)
{
    TransportConfig cfg;
    cfg.lineRateGbps = gbps;
    return cfg;
}

/**
 * The cumulative wire bytes a link integrates over @p windows rounds
 * of @p period at the arrival sum @p gbps, with the same arithmetic
 * FluidLink::advanceTo applies window by window.
 */
double
arrivalsOver(double cum, double gbps, Tick period, int windows)
{
    for (int i = 0; i < windows; ++i)
        cum += gbps / 8000.0 * double(period);
    return cum;
}

} // namespace

TEST(FluidSolver, CompletedFlowsLeaveTheWalkWithFrozenLedgers)
{
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0);
    FluidLink &l = solver.addLink("l", testEth(0, 0), 1460);
    const Tick period = solver.period();

    // 5 Gbps each, 15 Gbps total on a 40 Gbps link: no congestion.
    // 50 kB takes 80 us (done at round 2), 500 kB 800 us (round 15).
    FluidFlow &small = solver.addFlow(1, fixedRate(5.0), {&l}, 50000);
    FluidFlow &big = solver.addFlow(2, fixedRate(5.0), {&l}, 500000);
    FluidFlow &open = solver.addFlow(3, fixedRate(5.0), {&l}, 0);
    EXPECT_EQ(solver.activeFlows(), 3u);

    solver.start(40 * period);
    eq.runUntil(5 * period);
    ASSERT_TRUE(small.done);
    EXPECT_EQ(small.doneTick, 2 * period);
    EXPECT_EQ(solver.activeFlows(), 2u);
    const FluidFlow smallAt5 = small;

    eq.runUntil(20 * period);
    ASSERT_TRUE(big.done);
    EXPECT_EQ(big.doneTick, 15 * period);
    EXPECT_EQ(solver.activeFlows(), 1u);
    const FluidFlow bigAt20 = big;
    const double openAt20 = open.deliveredBytes;

    eq.run();
    EXPECT_EQ(solver.rounds(), 40u);
    EXPECT_EQ(solver.activeFlows(), 1u);
    EXPECT_EQ(solver.completedFlows(), 2u);
    // Finished flows are never advanced again...
    for (const auto &[now, then] :
         {std::pair{&small, &smallAt5}, std::pair{&big, &bigAt20}}) {
        EXPECT_EQ(now->deliveredBytes, then->deliveredBytes);
        EXPECT_EQ(now->offeredBytes, then->offeredBytes);
        EXPECT_EQ(now->backlogBytes, then->backlogBytes);
        EXPECT_EQ(now->doneTick, then->doneTick);
        EXPECT_EQ(now->cc.rateGbps, then->cc.rateGbps);
    }
    EXPECT_EQ(small.deliveredBytes, 50000.0);
    EXPECT_EQ(big.deliveredBytes, 500000.0);
    // ...while the open-ended flow keeps moving at its rate.
    EXPECT_DOUBLE_EQ(open.deliveredBytes - openAt20,
                     5.0 / 8000.0 * double(20 * period));
    EXPECT_DOUBLE_EQ(solver.totalDeliveredBytes(),
                     550000.0 + open.deliveredBytes);
}

TEST(FluidSolver, LateLowIdFlowIsVisitedInIdOrder)
{
    // A demoted flow can carry an id below the flows already in the
    // solver. The per-link arrival sum must still add flows in id
    // order: the rates are picked so that insertion order gives a
    // different double than id order.
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0);
    FluidLink &l = solver.addLink("l", testEth(0, 0), 1460);
    const Tick period = solver.period();
    const double wf = l.wireFactor();
    const double r2 = 1.1, r5 = 2.2, r6 = 3.3, r7 = 0.7;

    solver.addFlow(5, fixedRate(r5), {&l}, 0);
    solver.addFlow(6, fixedRate(r6), {&l}, 0);
    solver.addFlow(7, fixedRate(r7), {&l}, 0);
    solver.start(10 * period);
    // Mid-window, so the new sum governs all of window 4.
    eq.schedule(3 * period + period / 2, [&] {
        solver.addFlow(2, fixedRate(r2), {&l}, 0);
    });
    eq.run();

    const double before = ((0.0 + r5 * wf) + r6 * wf) + r7 * wf;
    const double idOrder = (((0.0 + r2 * wf) + r5 * wf) + r6 * wf) +
                           r7 * wf;
    const double insertionOrder = before + r2 * wf;
    ASSERT_NE(idOrder, insertionOrder);

    double expect = arrivalsOver(0.0, before, period, 3);
    expect = arrivalsOver(expect, idOrder, period, 7);
    EXPECT_EQ(l.arrivedWireBytes(), expect);
    EXPECT_EQ(solver.activeFlows(), 4u);
    EXPECT_EQ(solver.rateCuts(), 0u);
}

TEST(FluidSolver, LinksOnDifferentPathsGetSeparateArrivalSums)
{
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0);
    FluidLink &a = solver.addLink("a", testEth(0, 0), 1460);
    FluidLink &b = solver.addLink("b", testEth(0, 0), 1000);
    const Tick period = solver.period();

    solver.addFlow(1, fixedRate(1.0), {&a}, 0);
    solver.addFlow(2, fixedRate(2.0), {&b}, 0);
    solver.addFlow(3, fixedRate(4.0), {&a, &b}, 0);
    solver.start(6 * period);
    eq.run();

    const double sumA = (0.0 + 1.0 * a.wireFactor()) +
                        4.0 * a.wireFactor();
    const double sumB = (0.0 + 2.0 * b.wireFactor()) +
                        4.0 * b.wireFactor();
    EXPECT_EQ(a.arrivedWireBytes(), arrivalsOver(0.0, sumA, period, 6));
    EXPECT_EQ(b.arrivedWireBytes(), arrivalsOver(0.0, sumB, period, 6));
}

TEST(FluidSolver, RemoveAndReAddMidRunPinsLedgersAndCuts)
{
    // Three flows over two ECN-marking links, one of them a 10 Gbps
    // bottleneck with a tail-drop cap. Flow 2 (on both links) is
    // pulled out mid-run and put back later with its remaining bytes
    // and rate state, the way a promote/demote pair does. The pinned
    // values were recorded with the map-walking solver this one
    // replaced; any change of visiting order, congestion sampling or
    // arrival summation moves them.
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0);
    FluidLink &core = solver.addLink("core", testEth(0, 32), 1460);
    EthConfig slow = testEth(256, 16);
    slow.gbps = 10.0;
    FluidLink &edge = solver.addLink("edge", slow, 1460);

    TransportConfig cfg;
    solver.addFlow(1, cfg, {&core}, 3000000);
    solver.addFlow(2, cfg, {&core, &edge}, 1500000);
    solver.addFlow(3, cfg, {&edge}, 2000000);
    solver.start(usToTicks(4000));

    FluidFlow removed;
    eq.schedule(usToTicks(600) + 1, [&] { removed = solver.removeFlow(2); });
    eq.schedule(usToTicks(900) + 1, [&] {
        EXPECT_EQ(solver.findFlow(2), nullptr);
        std::uint64_t left = removed.totalBytes -
                             std::uint64_t(removed.deliveredBytes);
        solver.addFlow(2, cfg, {&core, &edge}, left, &removed.cc);
    });
    eq.run();

    const FluidFlow *f1 = solver.findFlow(1);
    const FluidFlow *f2 = solver.findFlow(2);
    const FluidFlow *f3 = solver.findFlow(3);
    ASSERT_TRUE(f1 && f2 && f3);
    EXPECT_EQ(removed.deliveredBytes, 315867.12518837635);
    EXPECT_EQ(f1->deliveredBytes, 3000000.0);
    EXPECT_EQ(f2->deliveredBytes, 1136550.7777346666);
    EXPECT_EQ(f3->deliveredBytes, 2000000.0);
    EXPECT_EQ(f1->doneTick, 1320000000u);
    EXPECT_FALSE(f2->done);
    EXPECT_EQ(f3->doneTick, 3575000000u);
    EXPECT_EQ(solver.rateCuts(), 65u);
    EXPECT_EQ(solver.rounds(), 73u);
    EXPECT_EQ(solver.completedFlows(), 2u);
    EXPECT_EQ(solver.totalDeliveredBytes(), 6452417.9029230429);
    EXPECT_EQ(edge.droppedWireBytes(), 393298.05479452043);
}

// -- Handoff conservation -----------------------------------------------

TEST(FidelityManager, PromoteConservesTheByteLedgerExactly)
{
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0);
    // A slow 4 Gbps link under a 40 Gbps flow builds backlog fast.
    EthConfig eth = testEth(0, 0);
    eth.gbps = 4.0;
    FluidLink &l = solver.addLink("l", eth, 1460);

    TransportConfig cfg;
    const std::uint64_t total = 1000000;
    solver.addFlow(1, cfg, {&l}, total);
    solver.start(usToTicks(300));
    eq.run();

    FidelityPolicy pol;
    pol.rttEstimate = usToTicks(25);
    FidelityManager mgr(pol);
    std::uint64_t delivered = 0;
    FlowHandoff h = mgr.promote(solver, 1, delivered);

    EXPECT_GT(delivered, 0u);
    EXPECT_GT(h.bytesInFlight, 0u);
    EXPECT_EQ(delivered + h.bytesInFlight + h.bytesUnsent, total);
    // The in-flight share is capped at one rate*RTT.
    EXPECT_LE(double(h.bytesInFlight),
              h.cc.rateGbps / 8000.0 * double(pol.rttEstimate) + 1.0);
    EXPECT_EQ(mgr.promotions(), 1u);
    EXPECT_EQ(solver.findFlow(1), nullptr);
}

namespace
{

/** A TransportFlow wired sender-to-receiver over one EthLink. */
struct WiredFlow
{
    EventQueue eq;
    EthConfig eth;
    TransportConfig cfg;
    EthLink link;
    struct Ep : NetEndpoint
    {
        TransportFlow *flow = nullptr;
        bool senderSide = false;
        void
        deliver(const PacketPtr &pkt) override
        {
            if (senderSide)
                flow->onSenderReceive(pkt);
            else
                flow->onReceiverReceive(pkt);
        }
    } sendEp, recvEp;
    std::unique_ptr<TransportFlow> flow;

    WiredFlow() : link(eq, "link", eth)
    {
        cfg.segmentBytes = 1000;
        flow = std::make_unique<TransportFlow>(eq, "flow", cfg, 9);
        sendEp.flow = flow.get();
        sendEp.senderSide = true;
        recvEp.flow = flow.get();
        link.connect(&sendEp, &recvEp);
        flow->bindSender(
            [](std::uint32_t bytes, std::uint64_t fid) {
                PacketPtr p = makePacket(bytes, 0, 1);
                p->flowId = fid;
                return p;
            },
            [this](const PacketPtr &p) { link.send(&sendEp, p); });
        flow->bindReceiver(
            [](std::uint32_t bytes, std::uint64_t fid) {
                PacketPtr p = makePacket(bytes, 1, 0);
                p->flowId = fid;
                p->isAck = true;
                return p;
            },
            [this](const PacketPtr &p) { link.send(&recvEp, p); });
    }
};

} // namespace

TEST(FidelityManager, DemoteMidFlightConservesBytesIntoTheSolver)
{
    WiredFlow w;
    const std::uint64_t total = 100000;
    w.flow->send(total);
    // Stop the packet domain mid-flight.
    w.eq.schedule(usToTicks(10), [&] {
        ASSERT_FALSE(w.flow->complete());
        EventQueue eq2; // fluid side gets its own clock
        FluidSolver solver(eq2, "fluid", 0);
        FluidLink &l = solver.addLink("l", testEth(0, 0), 1000);

        FidelityManager mgr(FidelityPolicy{});
        FluidFlow &ff = mgr.demote(solver, *w.flow, {&l});

        // exportHandoff's contract: delivered + in-flight + unsent
        // == enqueued; the fluid flow inherits exactly the remainder.
        EXPECT_TRUE(w.flow->detached());
        EXPECT_EQ(std::uint64_t(ff.totalBytes) +
                      w.flow->deliveredBytes(),
                  total);
        EXPECT_DOUBLE_EQ(ff.cc.rateGbps,
                         w.flow->config().lineRateGbps);

        // The fluid side finishes the remainder to the byte.
        solver.start(usToTicks(100000));
        eq2.run();
        EXPECT_DOUBLE_EQ(solver.totalDeliveredBytes(),
                         double(ff.totalBytes));
        EXPECT_EQ(mgr.demotions(), 1u);
    });
    w.eq.run();
}

TEST(FidelityManager, PromoteThenPacketFinishConservesEndToEnd)
{
    // Fluid phase: congested 4 Gbps link, stop after 300 us.
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0);
    EthConfig eth = testEth(0, 0);
    eth.gbps = 4.0;
    FluidLink &l = solver.addLink("l", eth, 1000);
    TransportConfig cfg;
    cfg.segmentBytes = 1000;
    const std::uint64_t total = 200000;
    solver.addFlow(5, cfg, {&l}, total);
    solver.start(usToTicks(300));
    eq.run();

    FidelityPolicy pol;
    pol.rttEstimate = usToTicks(25);
    FidelityManager mgr(pol);
    std::uint64_t fluidDelivered = 0;
    FlowHandoff h = mgr.promote(solver, 5, fluidDelivered);

    // Packet phase: a fresh flow imports the handoff and drains it.
    WiredFlow w;
    w.flow->importHandoff(h);
    w.flow->send(h.bytesRemaining());
    w.flow->close();
    w.eq.run();

    EXPECT_TRUE(w.flow->complete());
    EXPECT_EQ(fluidDelivered + w.flow->deliveredBytes(), total);
}

// -- Classification -----------------------------------------------------

TEST(FidelityManager, ClassifiesByInterestWitnessAndHotWindow)
{
    FidelityPolicy pol;
    pol.mode = FidelityMode::Hybrid;
    pol.interestNodes = {7};
    pol.hotWindows = {{usToTicks(100), usToTicks(200)}};
    pol.witnessEvery = 4;
    FidelityManager mgr(pol);

    // Interest node pins to packet-level, either direction.
    EXPECT_EQ(mgr.classify(1, 7, 3, 0), FlowFidelity::PacketLevel);
    EXPECT_EQ(mgr.classify(2, 3, 7, 0), FlowFidelity::PacketLevel);
    // Witness sample: every 4th flow id.
    EXPECT_EQ(mgr.classify(8, 1, 2, 0), FlowFidelity::PacketLevel);
    EXPECT_EQ(mgr.classify(9, 1, 2, 0), FlowFidelity::FluidLevel);
    // Hot window: [100 us, 200 us).
    EXPECT_EQ(mgr.classify(10, 1, 2, usToTicks(150)),
              FlowFidelity::PacketLevel);
    EXPECT_EQ(mgr.classify(10, 1, 2, usToTicks(200)),
              FlowFidelity::FluidLevel);
    // Forced modes override everything.
    FidelityManager pktOnly(FidelityPolicy{FidelityMode::Packet});
    EXPECT_EQ(pktOnly.classify(9, 1, 2, 0),
              FlowFidelity::PacketLevel);
    FidelityManager fluidOnly(FidelityPolicy{FidelityMode::Fluid});
    EXPECT_EQ(fluidOnly.classify(8, 7, 2, 0),
              FlowFidelity::FluidLevel);
}

// -- Idle-background byte identity --------------------------------------

namespace
{

/** One sender behind a switch; records (seq, tick) deliveries. */
struct SwitchScenario
{
    EventQueue eq;
    EthConfig eth;
    TransportConfig cfg;
    Switch sw;
    EthLink access, bottleneck;
    struct SendEp : NetEndpoint
    {
        TransportFlow *flow = nullptr;
        void
        deliver(const PacketPtr &pkt) override
        {
            flow->onSenderReceive(pkt);
        }
    } sendEp;
    struct RecvEp : NetEndpoint
    {
        EventQueue *eq = nullptr;
        TransportFlow *flow = nullptr;
        std::vector<std::pair<std::uint64_t, Tick>> got;
        void
        deliver(const PacketPtr &pkt) override
        {
            got.emplace_back(pkt->seq, eq->curTick());
            flow->onReceiverReceive(pkt);
        }
    } recvEp;
    std::unique_ptr<TransportFlow> flow;
    FluidSolver solver;

    explicit SwitchScenario(bool idle_bg)
        : sw(eq, "sw", eth), access(eq, "access", eth),
          bottleneck(eq, "bottleneck", eth),
          solver(eq, "fluid", 0)
    {
        cfg.segmentBytes = 1000;
        access.connect(&sendEp, &sw);
        bottleneck.connect(&sw, &recvEp);
        sw.addRoute(1, &bottleneck);
        sw.addRoute(0, &access);
        recvEp.eq = &eq;
        if (idle_bg) {
            // Install the fluid hooks with zero fluid flows: the
            // `--fidelity packet` byte-identity guarantee.
            FluidLink &l = solver.addLink("bg", eth, 1000);
            bottleneck.setBackgroundSource(&l);
            sw.setBackgroundSource(&bottleneck, &l);
            solver.start(usToTicks(2000));
        }
        flow = std::make_unique<TransportFlow>(eq, "flow", cfg, 3);
        sendEp.flow = flow.get();
        recvEp.flow = flow.get();
        flow->bindSender(
            [](std::uint32_t bytes, std::uint64_t fid) {
                PacketPtr p = makePacket(bytes, 0, 1);
                p->flowId = fid;
                return p;
            },
            [this](const PacketPtr &p) { access.send(&sendEp, p); });
        flow->bindReceiver(
            [](std::uint32_t bytes, std::uint64_t fid) {
                PacketPtr p = makePacket(bytes, 1, 0);
                p->flowId = fid;
                p->isAck = true;
                return p;
            },
            [this](const PacketPtr &p) {
                bottleneck.send(&recvEp, p);
            });
        flow->send(64000);
        flow->close();
    }
};

} // namespace

TEST(FluidBackground, IdleHooksAreByteInvisibleToPacketRuns)
{
    SwitchScenario plain(false), inert(true);
    plain.eq.run();
    inert.eq.run();
    ASSERT_TRUE(plain.flow->complete());
    ASSERT_TRUE(inert.flow->complete());
    ASSERT_EQ(plain.recvEp.got.size(), inert.recvEp.got.size());
    for (std::size_t i = 0; i < plain.recvEp.got.size(); ++i) {
        EXPECT_EQ(plain.recvEp.got[i].first,
                  inert.recvEp.got[i].first);
        EXPECT_EQ(plain.recvEp.got[i].second,
                  inert.recvEp.got[i].second);
    }
    EXPECT_EQ(plain.flow->completeTick(), inert.flow->completeTick());
}
