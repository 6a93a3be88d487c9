/**
 * @file
 * Unit tests for the analytical PCIe model: serialization math,
 * posted vs non-posted semantics, TLP splitting, bandwidth ceiling.
 */

#include <gtest/gtest.h>

#include "pcie/PcieLink.hh"

using namespace netdimm;

namespace
{

struct Fixture
{
    EventQueue eq;
    PcieLink link;

    Fixture() : link(eq, "pcie") {}

    Tick
    blockingRead(std::uint32_t bytes,
                 PcieDir dir = PcieDir::Downstream)
    {
        Tick done = 0;
        link.read(bytes, dir, [&](Tick t) { done = t; });
        eq.run();
        return done;
    }

    Tick
    blockingWrite(std::uint32_t bytes,
                  PcieDir dir = PcieDir::Downstream)
    {
        Tick done = 0;
        link.postedWrite(bytes, dir, [&](Tick t) { done = t; });
        eq.run();
        return done;
    }
};

} // namespace

TEST(Pcie, EffectiveBandwidthReflectsEncoding)
{
    // Gen4 x8: 16 GT/s * 8 lanes * 128/130 / 8 = ~15.75 GB/s.
    EXPECT_NEAR(PcieConfig::bytesPerTick() * 1000.0, 15.75, 0.1);
}

TEST(Pcie, PostedWriteMatchesIdeal)
{
    Fixture f;
    Tick done = f.blockingWrite(64);
    EXPECT_EQ(done, f.link.idealPostedLatency(64));
    // Dominated by propagation (~150ns) plus ~6ns serialization.
    EXPECT_NEAR(ticksToNs(done), 155.0, 10.0);
}

TEST(Pcie, ReadIsFullRoundTrip)
{
    Fixture f;
    Tick rd = f.blockingRead(64);
    EXPECT_EQ(rd, f.link.idealReadLatency(64));
    // At least two propagations.
    EXPECT_GE(rd, 2 * PcieConfig::propagation);
}

TEST(Pcie, MmioReadCostsRoundTripMmioWriteIsPosted)
{
    Fixture f;
    Tick rd = 0, wr = 0;
    f.link.mmioRead([&](Tick t) { rd = t; });
    f.eq.run();
    Tick t0 = f.eq.curTick();
    f.link.mmioWrite([&](Tick t) { wr = t - t0; });
    f.eq.run();
    EXPECT_GT(rd, wr);
    EXPECT_NEAR(double(rd), 2.0 * double(wr), 0.2 * double(rd));
}

TEST(Pcie, LargePayloadSplitsIntoMaxPayloadTlps)
{
    Fixture f;
    f.blockingWrite(1024); // 4 x 256B TLPs
    EXPECT_EQ(f.link.tlpsSent(), 4u);
    EXPECT_EQ(f.link.payloadBytes(), 1024u);
}

TEST(Pcie, SerializationGrowsWithPayload)
{
    Fixture f;
    Tick small = f.blockingWrite(64);
    Tick t0 = f.eq.curTick();
    Tick large = f.blockingWrite(8192) - t0;
    // 8KB at ~15.75 GB/s is ~520ns of extra serialization.
    EXPECT_GT(large, small + nsToTicks(400));
}

TEST(Pcie, DirectionsAreIndependent)
{
    Fixture f;
    // Saturate downstream; an upstream write is unaffected.
    for (int i = 0; i < 32; ++i)
        f.link.postedWrite(4096, PcieDir::Downstream, nullptr);
    Tick t0 = f.eq.curTick();
    Tick up = 0;
    f.link.postedWrite(64, PcieDir::Upstream,
                       [&](Tick t) { up = t - t0; });
    f.eq.run();
    EXPECT_EQ(up, f.link.idealPostedLatency(64));
}

TEST(Pcie, BackToBackWritesQueueOnSerialization)
{
    Fixture f;
    Tick first = 0, second = 0;
    f.link.postedWrite(4096, PcieDir::Downstream,
                       [&](Tick t) { first = t; });
    f.link.postedWrite(4096, PcieDir::Downstream,
                       [&](Tick t) { second = t; });
    f.eq.run();
    // The second write's TLPs serialize behind the first's.
    EXPECT_GE(second, first + nsToTicks(200));
}

TEST(Pcie, SendHeaderIsOneWay)
{
    Fixture f;
    Tick done = 0;
    f.link.sendHeader(PcieDir::Upstream, [&](Tick t) { done = t; });
    f.eq.run();
    EXPECT_LT(done, f.link.idealReadLatency(4));
    EXPECT_GE(done, PcieConfig::propagation);
}

TEST(Pcie, ThroughputBoundedByLinkRate)
{
    Fixture f;
    const int n = 256;
    Tick last = 0;
    int done = 0;
    for (int i = 0; i < n; ++i) {
        f.link.postedWrite(4096, PcieDir::Downstream, [&](Tick t) {
            last = std::max(last, t);
            ++done;
        });
    }
    f.eq.run();
    EXPECT_EQ(done, n);
    double gbytes_per_s =
        double(n) * 4096 / ticksToSec(last) / 1e9;
    EXPECT_LE(gbytes_per_s, 15.8);
    EXPECT_GT(gbytes_per_s, 10.0);
}
