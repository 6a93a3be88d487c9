/**
 * @file
 * Integration tests for the NetDIMM buffer device: host-side async
 * reads served by nCache vs the local DRAM, the nPrefetcher stream
 * behaviour, the register page, RX/TX pipelines and in-memory
 * cloning.
 */

#include <gtest/gtest.h>

#include "mem/MemorySystem.hh"
#include "netdimm/NetDimmDevice.hh"

using namespace netdimm;

namespace
{

struct Fixture
{
    EventQueue eq;
    SystemConfig cfg;
    MemorySystem mem;
    NetDimmDevice dev;
    Addr base;

    Fixture()
        : mem(eq, "mem", cfg),
          dev(eq, "nd", cfg, mem.channel(0)),
          base(mem.attachNetDimm(dev.mappedBytes(), 0, dev))
    {
        dev.setRegionBase(base);
    }

    Tick
    blockingRead(Addr addr, std::uint32_t size = 64)
    {
        Tick done = 0;
        auto req = makeMemRequest(addr, size, false, MemSource::HostCpu,
                                  [&](Tick t) { done = t; });
        mem.access(req);
        eq.run();
        return done;
    }

    Tick
    blockingWrite(Addr addr, std::uint32_t size = 64)
    {
        Tick done = 0;
        auto req = makeMemRequest(addr, size, true, MemSource::HostCpu,
                                  [&](Tick t) { done = t; });
        mem.access(req);
        eq.run();
        return done;
    }
};

} // namespace

TEST(NetDimmDevice, LocalGeometryIsTwoRankFig9)
{
    DramGeometry g = NetDimmDevice::localGeometry();
    EXPECT_EQ(g.channels, 1u);
    EXPECT_EQ(g.ranksPerChannel, NetDimmConfig::localRanks);
    Fixture f;
    EXPECT_EQ(f.dev.localBytes(), g.channelBytes());
    EXPECT_EQ(f.dev.mappedBytes(), g.channelBytes() + pageBytes);
}

TEST(NetDimmDevice, NCacheHitIsFasterThanDramRead)
{
    Fixture f;
    // Cold read: comes from the local DRAM.
    Tick cold = f.blockingRead(f.base + 64 * 1024);

    // Park a line in nCache, then read it.
    f.dev.ncache().insert(128 * 1024, true);
    Tick t0 = f.eq.curTick();
    Tick hot = f.blockingRead(f.base + 128 * 1024) - t0;
    EXPECT_LT(hot, cold);
    EXPECT_EQ(hot, f.dev.idealHostReadLatency());
}

TEST(NetDimmDevice, RegisterPageBypassesDram)
{
    Fixture f;
    Tick reg = f.blockingRead(f.dev.regPageAddr());
    Tick t0 = f.eq.curTick();
    Tick dram = f.blockingRead(f.base + (1 << 20)) - t0;
    EXPECT_LT(reg, dram);
}

TEST(NetDimmDevice, HostWriteSnoopsNCache)
{
    Fixture f;
    f.dev.ncache().insert(4096, false);
    ASSERT_TRUE(f.dev.ncache().probe(4096));
    f.blockingWrite(f.base + 4096, 64);
    EXPECT_FALSE(f.dev.ncache().probe(4096));
}

TEST(NetDimmDevice, SequentialPayloadReadsArmPrefetcher)
{
    Fixture f;
    // Simulate an RX packet: nController parked the header line with
    // the flag, payload lines are in DRAM.
    Addr buf = 1 << 20;
    f.dev.ncache().insert(buf, /*is_header=*/true);

    // Header consumption must NOT prefetch.
    f.blockingRead(f.base + buf);
    f.eq.run();
    EXPECT_EQ(f.dev.prefetchesIssued(), 0u);

    // Streaming the payload (sequential lines) arms the prefetcher.
    f.blockingRead(f.base + buf + 64);
    f.eq.run();
    EXPECT_GT(f.dev.prefetchesIssued(), 0u);
    // The next lines are now (or will be) in nCache.
    std::uint64_t issued = f.dev.prefetchesIssued();
    EXPECT_LE(issued, f.cfg.netdimm.prefetchDepth * 2);
}

TEST(NetDimmDevice, PrefetchedLinesHitOnNextRead)
{
    Fixture f;
    Addr buf = 2 << 20;
    // Stream two sequential lines to trigger prefetching of the rest.
    f.blockingRead(f.base + buf);
    f.blockingRead(f.base + buf + 64);
    f.eq.run();
    // Prefetcher should have covered the following lines.
    EXPECT_TRUE(f.dev.ncache().probe(buf + 128));
}

TEST(NetDimmDevice, IsolatedReadsDoNotPrefetch)
{
    Fixture f;
    f.blockingRead(f.base + (3 << 20));
    f.blockingRead(f.base + (5 << 20));
    f.eq.run();
    EXPECT_EQ(f.dev.prefetchesIssued(), 0u);
}

TEST(NetDimmDevice, RxPathLandsPacketAndCachesHeader)
{
    Fixture f;
    f.dev.rxRing().init(f.base, 64);
    Addr buf = f.base + (1 << 20);
    f.dev.postRxBuffer(buf);

    PacketPtr got;
    Tick visible = 0;
    f.dev.setRxNotify([&](const PacketPtr &p, Tick t) {
        got = p;
        visible = t;
    });

    PacketPtr pkt = makePacket(1460, 1, 0);
    f.dev.deliver(pkt);
    f.eq.run();

    ASSERT_TRUE(got);
    EXPECT_EQ(got->rxBufAddr, buf);
    EXPECT_GT(visible, 0u);
    EXPECT_EQ(f.dev.rxFrames(), 1u);
    // The header line is parked in nCache with the flag set.
    auto r = f.dev.ncache().consume(1 << 20);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.wasHeader);
    EXPECT_GT(got->lat.get(LatComp::RxDma), 0u);
}

TEST(NetDimmDevice, RxWithoutBuffersDrops)
{
    Fixture f;
    f.dev.rxRing().init(f.base, 64);
    PacketPtr pkt = makePacket(64, 1, 0);
    f.dev.deliver(pkt);
    f.eq.run();
    EXPECT_EQ(f.dev.rxDrops(), 1u);
    EXPECT_EQ(f.dev.rxFrames(), 0u);
}

TEST(NetDimmDevice, TxPathEmitsFrameOnWire)
{
    Fixture f;
    f.dev.txRing().init(f.base + 4096, 64);

    PacketPtr sent;
    f.dev.setWire([&](const PacketPtr &p) { sent = p; });

    PacketPtr pkt = makePacket(512, 0, 1);
    pkt->txBufAddr = f.base + (1 << 20);
    f.dev.txRing().push(pkt->txBufAddr);
    f.dev.transmit(pkt);
    f.eq.run();

    ASSERT_TRUE(sent);
    EXPECT_EQ(sent.get(), pkt.get());
    EXPECT_EQ(f.dev.txFrames(), 1u);
    EXPECT_GT(pkt->lat.get(LatComp::TxDma), 0u);
}

TEST(NetDimmDevice, CloneBufferUsesFpmForHintedPair)
{
    Fixture f;
    const DimmDecoder &dec = f.dev.localMc().decoder();
    Addr src = f.base + dec.pageAddress(0, 2, 5, 0);
    Addr dst = f.base + dec.pageAddress(0, 2, 5, 1);

    Tick done = 0;
    CloneMode mode{};
    f.dev.cloneBuffer(dst, src, 1460, [&](Tick t, CloneMode m) {
        done = t;
        mode = m;
    });
    f.eq.run();
    EXPECT_EQ(mode, CloneMode::FPM);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(f.dev.rowCloneEngine().fpmClones(), 1u);
}

TEST(NetDimmDevice, CloneInvalidatesDestinationInNCache)
{
    Fixture f;
    const DimmDecoder &dec = f.dev.localMc().decoder();
    Addr src = f.base + dec.pageAddress(0, 2, 5, 0);
    Addr dst = f.base + dec.pageAddress(0, 2, 5, 1);
    f.dev.ncache().insert(dst - f.base, false);
    f.dev.cloneBuffer(dst, src, 4096, nullptr);
    f.eq.run();
    EXPECT_FALSE(f.dev.ncache().probe(dst - f.base));
}
