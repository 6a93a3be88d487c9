/**
 * @file
 * Multi-NetDIMM integration (Sec. 4.2.1: "a system can have multiple
 * NetDIMMs installed on memory channels and each needs a different
 * memory zone"): two NetDimmDevices on one host memory system, each
 * with its own NET(i) zone, allocCache and driver, serving traffic
 * to two different peers concurrently.
 */

#include <gtest/gtest.h>

#include "net/Link.hh"
#include "kernel/Node.hh"

using namespace netdimm;

namespace
{

/** Hand-built host with two NetDIMMs (one per channel). */
struct DualHost
{
    EventQueue &eq;
    SystemConfig cfg;
    MemorySystem mem;
    Llc llc;
    CopyEngine copy;
    PageAllocator alloc;
    std::unique_ptr<NetDimmDevice> dev0, dev1;
    std::unique_ptr<NetdimmZoneAllocator> zone0, zone1;
    std::unique_ptr<AllocCache> cache0, cache1;
    std::unique_ptr<NetdimmDriver> drv0, drv1;

    explicit DualHost(EventQueue &e)
        : eq(e), cfg(makeCfg()), mem(e, "host.mem", cfg),
          llc(e, "host.llc", cfg.llc, mem),
          copy(e, "host.copy", cfg, llc),
          alloc(1 << 20, cfg.hostMem.totalBytes() - (1 << 20))
    {
        dev0 = std::make_unique<NetDimmDevice>(e, "host.nd0", cfg,
                                               mem.channel(0));
        Addr b0 = mem.attachNetDimm(dev0->mappedBytes(), 0, *dev0);
        dev0->setRegionBase(b0);
        dev1 = std::make_unique<NetDimmDevice>(e, "host.nd1", cfg,
                                               mem.channel(1));
        Addr b1 = mem.attachNetDimm(dev1->mappedBytes(), 1, *dev1);
        dev1->setRegionBase(b1);

        zone0 = std::make_unique<NetdimmZoneAllocator>(
            b0, NetDimmDevice::localGeometry());
        zone1 = std::make_unique<NetdimmZoneAllocator>(
            b1, NetDimmDevice::localGeometry());
        alloc.addNetZone(0, zone0.get());
        alloc.addNetZone(1, zone1.get());
        cache0 = std::make_unique<AllocCache>(
            e, "host.ac0", *zone0,
            cfg.netdimm.allocCachePagesPerSubArray);
        cache1 = std::make_unique<AllocCache>(
            e, "host.ac1", *zone1,
            cfg.netdimm.allocCachePagesPerSubArray);
        drv0 = std::make_unique<NetdimmDriver>(e, "host.drv0", cfg,
                                               *dev0, llc, copy,
                                               *cache0, mem, 0);
        drv1 = std::make_unique<NetdimmDriver>(e, "host.drv1", cfg,
                                               *dev1, llc, copy,
                                               *cache1, mem, 1);
    }

    static SystemConfig
    makeCfg()
    {
        setQuiet(true);
        SystemConfig cfg;
        cfg.nic = NicKind::NetDimm;
        return cfg;
    }
};

} // namespace

TEST(MultiNetDimm, RegionsAreDisjointAndRouted)
{
    EventQueue eq;
    DualHost host(eq);
    Addr b0 = host.dev0->regionBase();
    Addr b1 = host.dev1->regionBase();
    EXPECT_EQ(b1, b0 + host.dev0->mappedBytes());

    // Reads to each region land on the right device.
    auto blocking_read = [&](Addr a) {
        Tick done = 0;
        auto req = makeMemRequest(a, 64, false, MemSource::HostCpu,
                                  [&](Tick t) { done = t; });
        host.mem.access(req);
        eq.run();
        return done;
    };
    blocking_read(b0 + 4096);
    EXPECT_EQ(host.dev0->hostReads(), 1u);
    EXPECT_EQ(host.dev1->hostReads(), 0u);
    blocking_read(b1 + 4096);
    EXPECT_EQ(host.dev1->hostReads(), 1u);
}

TEST(MultiNetDimm, ZonesAllocateFromTheirOwnRegions)
{
    EventQueue eq;
    DualHost host(eq);
    Addr p0 = host.alloc.allocPages(netZone(0), 1);
    Addr p1 = host.alloc.allocPages(netZone(1), 1);
    EXPECT_GE(p0, host.dev0->regionBase());
    EXPECT_LT(p0, host.dev0->regionBase() + host.dev0->localBytes());
    EXPECT_GE(p1, host.dev1->regionBase());
    EXPECT_LT(p1, host.dev1->regionBase() + host.dev1->localBytes());
}

TEST(MultiNetDimm, BothPortsServeTrafficConcurrently)
{
    EventQueue eq;
    DualHost host(eq);
    SystemConfig peer_cfg = DualHost::makeCfg();

    Node peer0(eq, "peer0", peer_cfg, 10);
    Node peer1(eq, "peer1", peer_cfg, 11);
    EthLink l0(eq, "l0", host.cfg.eth), l1(eq, "l1", host.cfg.eth);
    l0.connect(host.dev0.get(), peer0.endpoint());
    l1.connect(host.dev1.get(), peer1.endpoint());
    NetDimmDevice *d0 = host.dev0.get(), *d1 = host.dev1.get();
    d0->setWire([&l0, d0](const PacketPtr &p) { l0.send(d0, p); });
    d1->setWire([&l1, d1](const PacketPtr &p) { l1.send(d1, p); });
    peer0.connectTo(l0);
    peer1.connectTo(l1);

    int got0 = 0, got1 = 0;
    peer0.setReceiveHandler([&](const PacketPtr &, Tick) { ++got0; });
    peer1.setReceiveHandler([&](const PacketPtr &, Tick) { ++got1; });

    // Interleave sends on both ports; application buffers come from
    // the serving zone once the connection is pinned (the stack's
    // allocAppBuffer path), exactly like Node::makeTxPacket does.
    auto send_on = [](NetdimmDriver &drv, std::uint32_t dst,
                      std::uint64_t flow, Addr fallback) {
        PacketPtr pkt = makePacket(512, 1, dst);
        pkt->flowId = flow;
        Addr buf = drv.allocAppBuffer(flow);
        pkt->appSrcAddr = buf ? buf : fallback;
        drv.send(pkt);
    };
    for (int i = 0; i < 4; ++i) {
        eq.schedule(usToTicks(4) * Tick(i + 1), [&host, &peer0,
                                                 send_on] {
            send_on(*host.drv0, peer0.id(), 5, 2 << 20);
        });
        eq.schedule(usToTicks(4) * Tick(i + 1) + usToTicks(1),
                    [&host, &peer1, send_on] {
            send_on(*host.drv1, peer1.id(), 6, 3 << 20);
        });
    }
    eq.run();
    EXPECT_EQ(got0, 4);
    EXPECT_EQ(got1, 4);
    EXPECT_EQ(host.dev0->txFrames(), 4u);
    EXPECT_EQ(host.dev1->txFrames(), 4u);

    // Each driver memoized its own zone on its flow's socket: the
    // post-first-packet sends came from the right regions.
    auto *drv0 = host.drv0.get();
    auto *drv1 = host.drv1.get();
    EXPECT_EQ(drv0->slowPathTx() + drv0->fastPathTx(), 4u);
    EXPECT_EQ(drv1->slowPathTx() + drv1->fastPathTx(), 4u);
    EXPECT_GE(drv0->fastPathTx(), 2u);
    EXPECT_GE(drv1->fastPathTx(), 2u);
}

TEST(MultiNetDimm, RxOnBothDevicesClonesLocally)
{
    EventQueue eq;
    DualHost host(eq);
    SystemConfig peer_cfg = DualHost::makeCfg();

    Node peer0(eq, "peer0", peer_cfg, 10);
    Node peer1(eq, "peer1", peer_cfg, 11);
    EthLink l0(eq, "l0", host.cfg.eth), l1(eq, "l1", host.cfg.eth);
    l0.connect(host.dev0.get(), peer0.endpoint());
    l1.connect(host.dev1.get(), peer1.endpoint());
    NetDimmDevice *d0 = host.dev0.get(), *d1 = host.dev1.get();
    d0->setWire([&l0, d0](const PacketPtr &p) { l0.send(d0, p); });
    d1->setWire([&l1, d1](const PacketPtr &p) { l1.send(d1, p); });
    peer0.connectTo(l0);
    peer1.connectTo(l1);

    int got = 0;
    host.drv0->setRxHandler([&](const PacketPtr &, Tick) { ++got; });
    host.drv1->setRxHandler([&](const PacketPtr &, Tick) { ++got; });

    for (int i = 0; i < 3; ++i) {
        eq.schedule(usToTicks(5) * Tick(i + 1), [&peer0, i] {
            peer0.sendPacket(peer0.makeTxPacket(1460, 1, 7));
        });
        eq.schedule(usToTicks(5) * Tick(i + 1) + usToTicks(2),
                    [&peer1, i] {
            peer1.sendPacket(peer1.makeTxPacket(1460, 1, 8));
        });
    }
    eq.run();
    EXPECT_EQ(got, 6);
    // Clones happened on each device's own local DRAM, in FPM.
    EXPECT_EQ(host.dev0->rowCloneEngine().fpmClones(), 3u);
    EXPECT_EQ(host.dev1->rowCloneEngine().fpmClones(), 3u);
}
