/**
 * @file
 * Edge-case and stress tests cutting across modules: DDIO-off DMA
 * paths, requests straddling region boundaries, event-queue stress
 * determinism, and allocator exhaustion behaviour.
 */

#include <gtest/gtest.h>

#include "cache/Llc.hh"
#include "mem/MemorySystem.hh"
#include "netdimm/NetDimmDevice.hh"
#include "workload/LatencyHarness.hh"

using namespace netdimm;

// ---------------------------------------------------------------------
// Llc with DDIO disabled.
// ---------------------------------------------------------------------

namespace
{
struct CountingMem : MemTarget
{
    EventQueue &eq;
    int reads = 0, writes = 0;

    explicit CountingMem(EventQueue &e) : eq(e) {}

    void
    access(const MemRequestPtr &req) override
    {
        (req->write ? writes : reads)++;
        Tick done = eq.curTick() + nsToTicks(50);
        eq.schedule(done, [req, done] {
            if (req->onDone)
                req->onDone(done);
        });
    }
};
} // namespace

TEST(LlcDdioOff, DmaWritesBypassToMemory)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.llc.ddioEnabled = false;
    CountingMem mem(eq);
    Llc llc(eq, "llc", cfg.llc, mem);

    Tick done = 0;
    llc.dmaWrite(0, 1024, MemSource::HostDma,
                 [&](Tick t) { done = t; });
    eq.run();
    EXPECT_EQ(mem.writes, 1);
    EXPECT_EQ(llc.ddioInserts(), 0u);
    EXPECT_FALSE(llc.probe(0));
    EXPECT_GE(done, nsToTicks(50));
}

TEST(LlcDdioOff, DmaReadsGoToMemoryEvenWhenResident)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.llc.ddioEnabled = false;
    CountingMem mem(eq);
    Llc llc(eq, "llc", cfg.llc, mem);

    // CPU warms the line...
    auto req = makeMemRequest(0, 64, false, MemSource::HostCpu, nullptr);
    llc.access(req);
    eq.run();
    ASSERT_TRUE(llc.probe(0));
    // ... but the non-coherent DMA engine still reads DRAM.
    int before = mem.reads;
    llc.dmaRead(0, 64, MemSource::HostDma, nullptr);
    eq.run();
    EXPECT_EQ(mem.reads, before + 1);
}

TEST(LlcDdioOff, DmaWriteInvalidatesStaleCpuCopy)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.llc.ddioEnabled = false;
    CountingMem mem(eq);
    Llc llc(eq, "llc", cfg.llc, mem);
    auto req = makeMemRequest(0, 64, false, MemSource::HostCpu, nullptr);
    llc.access(req);
    eq.run();
    ASSERT_TRUE(llc.probe(0));
    llc.dmaWrite(0, 64, MemSource::HostDma, nullptr);
    eq.run();
    EXPECT_FALSE(llc.probe(0));
}

// ---------------------------------------------------------------------
// Requests touching the edge of a NetDIMM region.
// ---------------------------------------------------------------------

TEST(RegionEdges, LastLineOfNetDimmRegionIsAccessible)
{
    EventQueue eq;
    SystemConfig cfg;
    MemorySystem mem(eq, "mem", cfg);
    NetDimmDevice dev(eq, "nd", cfg, mem.channel(0));
    Addr base = mem.attachNetDimm(dev.mappedBytes(), 0, dev);
    dev.setRegionBase(base);

    Addr last_line = base + dev.mappedBytes() - 64;
    Tick done = 0;
    auto req = makeMemRequest(last_line, 64, false, MemSource::HostCpu,
                              [&](Tick t) { done = t; });
    mem.access(req);
    eq.run();
    EXPECT_GT(done, 0u);
}

TEST(RegionEdgesDeath, PastEndOfMapPanics)
{
    EventQueue eq;
    SystemConfig cfg;
    MemorySystem mem(eq, "mem", cfg);
    NetDimmDevice dev(eq, "nd", cfg, mem.channel(0));
    Addr base = mem.attachNetDimm(dev.mappedBytes(), 0, dev);
    dev.setRegionBase(base);
    auto req = makeMemRequest(base + dev.mappedBytes(), 64, false,
                              MemSource::HostCpu, nullptr);
    EXPECT_DEATH(mem.access(req), "outside");
}

TEST(RegionEdges, ConventionalReadUpToRegionBoundary)
{
    EventQueue eq;
    SystemConfig cfg;
    MemorySystem mem(eq, "mem", cfg);
    // The last conventional stripe before any region.
    Addr last = cfg.hostMem.totalBytes() - 256;
    Tick done = 0;
    auto req = makeMemRequest(last, 256, false, MemSource::HostCpu,
                              [&](Tick t) { done = t; });
    mem.access(req);
    eq.run();
    EXPECT_GT(done, 0u);
}

// ---------------------------------------------------------------------
// Event queue stress: many interleaved schedules stay deterministic.
// ---------------------------------------------------------------------

TEST(EventQueueStress, LargeInterleavedLoadIsDeterministic)
{
    auto run = [] {
        EventQueue eq;
        Random rng(5);
        std::uint64_t hash = 0;
        std::function<void(int)> spawn = [&](int depth) {
            hash = hash * 1099511628211ull + eq.curTick();
            if (depth <= 0)
                return;
            for (int i = 0; i < 3; ++i) {
                eq.scheduleRel(rng.uniformInt(1, 1000),
                               [&spawn, depth] { spawn(depth - 1); });
            }
        };
        for (int i = 0; i < 50; ++i)
            eq.schedule(rng.uniformInt(0, 100), [&] { spawn(4); });
        eq.run();
        return std::make_pair(hash, eq.executedEvents());
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    EXPECT_GT(a.second, 1000u);
}

// ---------------------------------------------------------------------
// Harness edge conditions.
// ---------------------------------------------------------------------

TEST(HarnessEdges, MinimumAndJumboSizes)
{
    setQuiet(true);
    SystemConfig cfg;
    for (NicKind kind : {NicKind::Discrete, NicKind::NetDimm}) {
        PingResult tiny = LatencyHarness(cfg, kind).run(1, 6, 3);
        PingResult jumbo = LatencyHarness(cfg, kind).run(8192, 6, 3);
        EXPECT_GT(tiny.totalUs, 0.2);
        EXPECT_GT(jumbo.totalUs, tiny.totalUs);
        EXPECT_EQ(tiny.packets, 6);
        EXPECT_EQ(jumbo.packets, 6);
    }
}

TEST(HarnessEdges, ZeroMeasuredPacketsYieldsZeroes)
{
    setQuiet(true);
    SystemConfig cfg;
    PingResult r = LatencyHarness(cfg, NicKind::Integrated)
                       .run(64, /*npkts=*/0, /*warmup=*/2);
    EXPECT_EQ(r.packets, 0);
    EXPECT_DOUBLE_EQ(r.totalUs, 0.0);
}
