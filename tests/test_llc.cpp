/**
 * @file
 * Unit tests for the LLC + DDIO model: hit/miss behaviour, the
 * DDIO-restricted ways, DMA leakage accounting, flush/invalidate.
 */

#include <gtest/gtest.h>

#include "cache/Llc.hh"

using namespace netdimm;

namespace
{

/** Memory stand-in with fixed latency and access counting. */
struct CountingMem : MemTarget
{
    EventQueue &eq;
    Tick latency = nsToTicks(60);
    int reads = 0;
    int writes = 0;

    explicit CountingMem(EventQueue &e) : eq(e) {}

    void
    access(const MemRequestPtr &req) override
    {
        (req->write ? writes : reads)++;
        Tick done = eq.curTick() + latency;
        eq.schedule(done, [req, done] {
            if (req->onDone)
                req->onDone(done);
        });
    }
};

struct Fixture
{
    EventQueue eq;
    SystemConfig cfg;
    CountingMem mem;
    Llc llc;

    Fixture() : mem(eq), llc(eq, "llc", cfg.llc, mem) {}

    Tick
    blockingAccess(Addr addr, std::uint32_t size = 64,
                   bool write = false)
    {
        Tick done = 0;
        auto req = makeMemRequest(addr, size, write, MemSource::HostCpu,
                                  [&](Tick t) { done = t; });
        llc.access(req);
        eq.run();
        return done;
    }
};

} // namespace

TEST(Llc, MissThenHit)
{
    Fixture f;
    Tick miss = f.blockingAccess(0);
    EXPECT_EQ(f.llc.misses(), 1u);
    EXPECT_GE(miss, f.mem.latency);

    Tick t0 = f.eq.curTick();
    Tick hit = f.blockingAccess(0) - t0;
    EXPECT_EQ(f.llc.hits(), 1u);
    EXPECT_EQ(hit, f.llc.hitLatency());
    EXPECT_LT(hit, miss);
}

TEST(Llc, ProbeReflectsResidency)
{
    Fixture f;
    EXPECT_FALSE(f.llc.probe(4096));
    f.blockingAccess(4096);
    EXPECT_TRUE(f.llc.probe(4096));
    EXPECT_FALSE(f.llc.probe(8192));
}

TEST(Llc, WriteMissAllocatesDirtyLine)
{
    Fixture f;
    f.blockingAccess(0, 64, /*write=*/true);
    EXPECT_TRUE(f.llc.probe(0));
    // Flushing it writes it back to memory.
    int before = f.mem.writes;
    Tick done = 0;
    f.llc.flush(0, 64, MemSource::HostCpu, [&](Tick t) { done = t; });
    f.eq.run();
    EXPECT_EQ(f.mem.writes, before + 1);
    EXPECT_EQ(f.llc.writebacks(), 1u);
    EXPECT_GE(done, f.mem.latency);
    // Line stays valid and clean: a second flush is cheap.
    EXPECT_TRUE(f.llc.probe(0));
    before = f.mem.writes;
    f.llc.flush(0, 64, MemSource::HostCpu, nullptr);
    f.eq.run();
    EXPECT_EQ(f.mem.writes, before);
}

TEST(Llc, InvalidateDropsLines)
{
    Fixture f;
    f.blockingAccess(0, 256);
    EXPECT_TRUE(f.llc.probe(0));
    EXPECT_TRUE(f.llc.probe(192));
    f.llc.invalidate(0, 256);
    EXPECT_FALSE(f.llc.probe(0));
    EXPECT_FALSE(f.llc.probe(192));
}

TEST(Llc, DmaWriteInstallsWithoutMemoryRead)
{
    Fixture f;
    Tick done = 0;
    f.llc.dmaWrite(0, 1024, MemSource::HostDma,
                   [&](Tick t) { done = t; });
    f.eq.run();
    EXPECT_EQ(f.mem.reads, 0);
    EXPECT_EQ(f.llc.ddioInserts(), 16u);
    EXPECT_TRUE(f.llc.probe(0));
    EXPECT_EQ(done, f.llc.hitLatency());
}

TEST(Llc, DmaReadHitsAfterDmaWrite)
{
    Fixture f;
    f.llc.dmaWrite(0, 512, MemSource::HostDma, nullptr);
    f.eq.run();
    Tick t0 = f.eq.curTick();
    Tick done = 0;
    f.llc.dmaRead(0, 512, MemSource::HostDma,
                  [&](Tick t) { done = t - t0; });
    f.eq.run();
    EXPECT_EQ(done, f.llc.hitLatency());
    EXPECT_EQ(f.mem.reads, 0);
}

TEST(Llc, DmaReadMissGoesToMemory)
{
    Fixture f;
    Tick done = 0;
    f.llc.dmaRead(1 << 20, 256, MemSource::HostDma,
                  [&](Tick t) { done = t; });
    f.eq.run();
    EXPECT_GE(done, f.mem.latency);
    EXPECT_EQ(f.mem.reads, 1); // one combined fill request
}

TEST(Llc, DdioConfinedToRestrictedWays)
{
    Fixture f;
    // 16-way, 10% DDIO -> 2 ways per set. Stream DMA writes mapping
    // to the same set; only 2 survive.
    std::uint32_t sets = std::uint32_t(
        f.cfg.llc.sizeBytes / cachelineBytes / f.cfg.llc.assoc);
    Addr stride = Addr(sets) * cachelineBytes;
    for (int i = 0; i < 8; ++i)
        f.llc.dmaWrite(Addr(i) * stride, 64, MemSource::HostDma,
                       nullptr);
    f.eq.run();
    int resident = 0;
    for (int i = 0; i < 8; ++i)
        resident += f.llc.probe(Addr(i) * stride);
    EXPECT_EQ(resident, 2);
    // Six DDIO lines were evicted before any CPU read: DMA leakage.
    EXPECT_EQ(f.llc.ddioLeaks(), 6u);
    // Evicted dirty DMA lines were written back to memory.
    EXPECT_EQ(f.mem.writes, 6);
}

TEST(Llc, CpuReadClearsDdioMark)
{
    Fixture f;
    std::uint32_t sets = std::uint32_t(
        f.cfg.llc.sizeBytes / cachelineBytes / f.cfg.llc.assoc);
    Addr stride = Addr(sets) * cachelineBytes;
    f.llc.dmaWrite(0, 64, MemSource::HostDma, nullptr);
    f.eq.run();
    // CPU consumes the line: no longer counts as leak if evicted.
    f.blockingAccess(0);
    for (int i = 1; i < 4; ++i)
        f.llc.dmaWrite(Addr(i) * stride, 64, MemSource::HostDma,
                       nullptr);
    f.eq.run();
    EXPECT_EQ(f.llc.ddioLeaks(), 1u); // only one unconsumed eviction
}

TEST(Llc, CpuFillsUseFullAssociativity)
{
    Fixture f;
    std::uint32_t sets = std::uint32_t(
        f.cfg.llc.sizeBytes / cachelineBytes / f.cfg.llc.assoc);
    Addr stride = Addr(sets) * cachelineBytes;
    for (std::uint32_t i = 0; i < f.cfg.llc.assoc; ++i)
        f.blockingAccess(Addr(i) * stride);
    int resident = 0;
    for (std::uint32_t i = 0; i < f.cfg.llc.assoc; ++i)
        resident += f.llc.probe(Addr(i) * stride);
    EXPECT_EQ(resident, int(f.cfg.llc.assoc));
}

TEST(Llc, MultiLineAccessCompletesOnce)
{
    Fixture f;
    int completions = 0;
    auto req = makeMemRequest(0, 4096, false, MemSource::HostCpu,
                              [&](Tick) { ++completions; });
    f.llc.access(req);
    f.eq.run();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(f.llc.misses(), 64u);
}
