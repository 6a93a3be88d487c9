/**
 * @file
 * Unit tests for the windowed CPU memcpy model: MLP-bounded latency,
 * contention sensitivity and traffic generation.
 */

#include <gtest/gtest.h>

#include "kernel/CopyEngine.hh"
#include "mem/MemorySystem.hh"

using namespace netdimm;

namespace
{

struct Fixture
{
    EventQueue eq;
    SystemConfig cfg;
    MemorySystem mem;
    Llc llc;
    CopyEngine copy;

    Fixture()
        : mem(eq, "mem", cfg), llc(eq, "llc", cfg.llc, mem),
          copy(eq, "copy", cfg, llc)
    {}

    Tick
    blockingCopy(Addr dst, Addr src, std::uint32_t bytes)
    {
        Tick done = 0;
        copy.copy(dst, src, bytes, [&](Tick t) { done = t; });
        eq.run();
        return done;
    }
};

} // namespace

TEST(CopyEngine, SingleLineCopyCompletes)
{
    Fixture f;
    Tick done = f.blockingCopy(1 << 20, 2 << 20, 64);
    EXPECT_GT(done, f.cfg.sw.copySetup);
    EXPECT_EQ(f.copy.copies(), 1u);
    EXPECT_EQ(f.copy.bytesCopied(), 64u);
}

TEST(CopyEngine, LatencyScalesWithSize)
{
    Fixture f;
    Tick small = f.blockingCopy(1 << 20, 2 << 20, 256);
    Tick t0 = f.eq.curTick();
    Tick large = f.blockingCopy(4 << 20, 8 << 20, 4096) - t0;
    EXPECT_GT(large, small);
    // 64 lines vs 4 lines: at least 4x (MLP overlaps within rounds).
    EXPECT_GT(large, 3 * small);
}

TEST(CopyEngine, WarmSourceStillPaysDestinationFills)
{
    Fixture f;
    // Warm both src (reads) and dst (write-allocate) ...
    f.blockingCopy(1 << 20, 2 << 20, 2048);
    Tick t0 = f.eq.curTick();
    Tick warm = f.blockingCopy(1 << 20, 2 << 20, 2048) - t0;
    // ... so the repeat copy is much faster (LLC hits).
    t0 = f.eq.curTick();
    Tick cold = f.blockingCopy(16 << 20, 12 << 20, 2048) - t0;
    EXPECT_LT(warm, cold);
}

TEST(CopyEngine, GeneratesMemoryTraffic)
{
    Fixture f;
    std::uint64_t before = f.mem.channel(0).beatsServiced() +
                           f.mem.channel(1).beatsServiced();
    f.blockingCopy(1 << 20, 2 << 20, 4096);
    f.eq.run();
    std::uint64_t after = f.mem.channel(0).beatsServiced() +
                          f.mem.channel(1).beatsServiced();
    // 64 source fills + 64 destination RFO fills at least.
    EXPECT_GE(after - before, 128u);
}

TEST(CopyEngine, SlowsDownUnderMemoryPressure)
{
    Fixture f;
    Tick idle = f.blockingCopy(1 << 20, 2 << 20, 4096);

    // Saturate both channels with background traffic, then copy.
    for (int i = 0; i < 512; ++i) {
        auto req = makeMemRequest(Addr(64 << 20) + Addr(i) * 4096,
                                  4096, false, MemSource::Other,
                                  nullptr);
        f.mem.access(req);
    }
    Tick t0 = f.eq.curTick();
    Tick loaded = f.blockingCopy(32 << 20, 48 << 20, 4096) - t0;
    EXPECT_GT(loaded, idle);
}

TEST(CopyEngine, ManyConcurrentCopiesAllComplete)
{
    Fixture f;
    int done = 0;
    for (int i = 0; i < 20; ++i) {
        f.copy.copy(Addr(1 << 20) + Addr(i) * 8192,
                    Addr(32 << 20) + Addr(i) * 8192, 1460,
                    [&](Tick) { ++done; });
    }
    f.eq.run();
    EXPECT_EQ(done, 20);
    EXPECT_EQ(f.copy.copies(), 20u);
}
