/**
 * @file
 * Unit tests for the Ethernet link, switch and clos fabric models.
 */

#include <gtest/gtest.h>

#include "net/Switch.hh"

using namespace netdimm;

namespace
{

struct SinkEndpoint : NetEndpoint
{
    EventQueue &eq;
    std::vector<std::pair<PacketPtr, Tick>> got;

    explicit SinkEndpoint(EventQueue &e) : eq(e) {}

    void
    deliver(const PacketPtr &pkt) override
    {
        got.emplace_back(pkt, eq.curTick());
    }
};

} // namespace

TEST(EthLink, FrameTicksIncludeFramingAndMinSize)
{
    EventQueue eq;
    EthConfig cfg;
    EthLink link(eq, "l", cfg);
    // A 10B payload pads to the 64B minimum frame + 24B framing.
    EXPECT_EQ(link.frameTicks(10), serializationTicks(88, 40.0));
    EXPECT_EQ(link.frameTicks(1500), serializationTicks(1524, 40.0));
}

TEST(EthLink, DeliversToOppositeEndWithWireLatency)
{
    EventQueue eq;
    EthConfig cfg;
    EthLink link(eq, "l", cfg);
    SinkEndpoint a(eq), b(eq);
    link.connect(&a, &b);

    PacketPtr pkt = makePacket(1000, 0, 1);
    link.send(&a, pkt);
    eq.run();

    ASSERT_EQ(b.got.size(), 1u);
    EXPECT_TRUE(a.got.empty());
    Tick expect = link.frameTicks(1000) + cfg.propagation +
                  cfg.macLatency;
    EXPECT_EQ(b.got[0].second, expect);
    EXPECT_EQ(pkt->lat.get(LatComp::Wire), expect);
}

TEST(EthLink, DirectionBIsIndependent)
{
    EventQueue eq;
    EthConfig cfg;
    EthLink link(eq, "l", cfg);
    SinkEndpoint a(eq), b(eq);
    link.connect(&a, &b);
    link.send(&b, makePacket(64, 1, 0));
    eq.run();
    EXPECT_EQ(a.got.size(), 1u);
}

TEST(EthLink, BackToBackFramesSerialize)
{
    EventQueue eq;
    EthConfig cfg;
    EthLink link(eq, "l", cfg);
    SinkEndpoint a(eq), b(eq);
    link.connect(&a, &b);

    link.send(&a, makePacket(1500, 0, 1));
    link.send(&a, makePacket(1500, 0, 1));
    eq.run();
    ASSERT_EQ(b.got.size(), 2u);
    EXPECT_EQ(b.got[1].second - b.got[0].second,
              link.frameTicks(1500));
    EXPECT_EQ(link.framesCarried(), 2u);
    EXPECT_EQ(link.bytesCarried(), 3000u);
}

TEST(Switch, RoutesByDestination)
{
    EventQueue eq;
    EthConfig cfg;
    Switch sw(eq, "sw", cfg.switchLatency);
    EthLink l1(eq, "l1", cfg), l2(eq, "l2", cfg);
    SinkEndpoint n1(eq), n2(eq);
    l1.connect(&sw, &n1);
    l2.connect(&sw, &n2);
    sw.addRoute(1, &l1);
    sw.addRoute(2, &l2);

    sw.deliver(makePacket(100, 0, 2));
    sw.deliver(makePacket(100, 0, 1));
    eq.run();
    EXPECT_EQ(n1.got.size(), 1u);
    EXPECT_EQ(n2.got.size(), 1u);
    EXPECT_EQ(sw.framesForwarded(), 2u);
}

TEST(Switch, AddsPortLatency)
{
    EventQueue eq;
    EthConfig cfg;
    Switch sw(eq, "sw", nsToTicks(100));
    EthLink l(eq, "l", cfg);
    SinkEndpoint n(eq);
    l.connect(&sw, &n);
    sw.addRoute(9, &l);

    sw.deliver(makePacket(64, 0, 9));
    eq.run();
    ASSERT_EQ(n.got.size(), 1u);
    EXPECT_EQ(n.got[0].second,
              nsToTicks(100) + l.frameTicks(64) + cfg.propagation +
                  cfg.macLatency);
}

TEST(Switch, NoRouteDropsAndCounts)
{
    EventQueue eq;
    Switch sw(eq, "sw", 0);
    // Unknown destination: the frame is dropped and counted, not a
    // simulator abort.
    sw.deliver(makePacket(64, 0, 5));
    sw.deliver(makePacket(64, 0, 6));
    eq.run();
    EXPECT_EQ(sw.dropsNoRoute(), 2u);
    EXPECT_EQ(sw.framesForwarded(), 0u);
}

TEST(Switch, FiniteEgressQueueTailDrops)
{
    EventQueue eq;
    EthConfig cfg;
    // Queue of 4 frames, no ECN; zero port latency so all ten frames
    // contend for the egress at the same tick.
    Switch sw(eq, "sw", 0, /*queue_frames=*/4, /*ecn_threshold=*/0);
    EthLink l(eq, "l", cfg);
    SinkEndpoint n(eq);
    l.connect(&sw, &n);
    sw.addRoute(1, &l);

    for (int i = 0; i < 10; ++i)
        sw.deliver(makePacket(1460, 0, 1));
    eq.run();

    EXPECT_EQ(n.got.size(), 4u);
    EXPECT_EQ(sw.dropsQueue(), 6u);
    EXPECT_EQ(sw.framesForwarded(), 4u);
    EXPECT_EQ(sw.maxQueueDepth(), 4u);
    // Accepted frames drain at the link's serialization rate.
    ASSERT_EQ(n.got.size(), 4u);
    EXPECT_EQ(n.got[1].second - n.got[0].second,
              l.frameTicks(1460));
}

TEST(Switch, EcnMarksAboveThreshold)
{
    EventQueue eq;
    EthConfig cfg;
    Switch sw(eq, "sw", 0, /*queue_frames=*/8, /*ecn_threshold=*/2);
    EthLink l(eq, "l", cfg);
    SinkEndpoint n(eq);
    l.connect(&sw, &n);
    sw.addRoute(1, &l);

    for (int i = 0; i < 6; ++i)
        sw.deliver(makePacket(1460, 0, 1));
    eq.run();

    // Frames enqueued at occupancy 0 and 1 pass unmarked; occupancy
    // 2..5 is at/above the threshold.
    ASSERT_EQ(n.got.size(), 6u);
    EXPECT_EQ(sw.ecnMarks(), 4u);
    EXPECT_FALSE(n.got[0].first->ecnMarked);
    EXPECT_FALSE(n.got[1].first->ecnMarked);
    for (std::size_t i = 2; i < 6; ++i)
        EXPECT_TRUE(n.got[i].first->ecnMarked) << "frame " << i;
    EXPECT_EQ(sw.dropsQueue(), 0u);
}

TEST(Switch, UnboundedQueueNeverDrops)
{
    EventQueue eq;
    EthConfig cfg;
    Switch sw(eq, "sw", 0, /*queue_frames=*/0, /*ecn_threshold=*/0);
    EthLink l(eq, "l", cfg);
    SinkEndpoint n(eq);
    l.connect(&sw, &n);
    sw.addRoute(1, &l);
    for (int i = 0; i < 200; ++i)
        sw.deliver(makePacket(1460, 0, 1));
    eq.run();
    EXPECT_EQ(n.got.size(), 200u);
    EXPECT_EQ(sw.dropsQueue(), 0u);
    EXPECT_EQ(sw.ecnMarks(), 0u);
}

TEST(Locality, HopCountsAreMonotonic)
{
    EXPECT_EQ(localityHops(TrafficLocality::IntraRack), 1u);
    EXPECT_EQ(localityHops(TrafficLocality::IntraCluster), 3u);
    EXPECT_EQ(localityHops(TrafficLocality::IntraDatacenter), 5u);
    EXPECT_EQ(localityHops(TrafficLocality::InterDatacenter), 7u);
    EXPECT_LT(localityPropagation(TrafficLocality::IntraRack),
              localityPropagation(TrafficLocality::InterDatacenter));
}

TEST(ClosFabric, PathDelayScalesWithHopsAndSwitchLatency)
{
    EventQueue eq;
    EthConfig cfg;
    ClosFabric fab(eq, "fab", cfg);
    Tick rack = fab.pathDelay(256, TrafficLocality::IntraRack);
    Tick cluster = fab.pathDelay(256, TrafficLocality::IntraCluster);
    Tick dc = fab.pathDelay(256, TrafficLocality::IntraDatacenter);
    EXPECT_LT(rack, cluster);
    EXPECT_LT(cluster, dc);

    EthConfig slow = cfg;
    slow.switchLatency = nsToTicks(200);
    ClosFabric fab2(eq, "fab2", slow);
    EXPECT_EQ(fab2.pathDelay(256, TrafficLocality::IntraCluster),
              cluster + 3 * nsToTicks(100));
}

TEST(ClosFabric, ForwardsToAttachedEndpoint)
{
    EventQueue eq;
    EthConfig cfg;
    ClosFabric fab(eq, "fab", cfg);
    SinkEndpoint n(eq);
    fab.attach(3, &n);

    PacketPtr pkt = makePacket(512, 0, 3);
    fab.forward(pkt, TrafficLocality::IntraCluster);
    eq.run();
    ASSERT_EQ(n.got.size(), 1u);
    EXPECT_EQ(n.got[0].second,
              fab.pathDelay(512, TrafficLocality::IntraCluster));
    EXPECT_EQ(pkt->lat.get(LatComp::Wire), n.got[0].second);
}

TEST(ClosFabric, DeliverUsesDefaultLocality)
{
    EventQueue eq;
    EthConfig cfg;
    ClosFabric fab(eq, "fab", cfg);
    SinkEndpoint n(eq);
    fab.attach(1, &n);
    fab.deliver(makePacket(64, 0, 1));
    eq.run();
    ASSERT_EQ(n.got.size(), 1u);
    EXPECT_EQ(n.got[0].second,
              fab.pathDelay(64, TrafficLocality::IntraCluster));
}
