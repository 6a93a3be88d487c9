/**
 * @file
 * Unit tests for the DDR memory controller model: idle latency, row
 * buffer behaviour, bandwidth ceiling, bus reservation and bank
 * occupation (the RowClone hooks), and per-source accounting.
 */

#include <gtest/gtest.h>

#include "mem/MemoryController.hh"

using namespace netdimm;

namespace
{

struct Fixture
{
    EventQueue eq;
    SystemConfig cfg;
    MemoryController mc;

    Fixture()
        : mc(eq, "mc", perChannel(cfg.hostMem), cfg.memCtrl)
    {}

    static DramGeometry
    perChannel(DramGeometry g)
    {
        g.channels = 1;
        return g;
    }

    Tick
    blockingRead(Addr addr, std::uint32_t size = 64)
    {
        Tick done = 0;
        auto req = makeMemRequest(addr, size, false, MemSource::HostCpu,
                                  [&](Tick t) { done = t; });
        mc.access(req);
        eq.run();
        return done;
    }
};

} // namespace

TEST(MemoryController, IdleReadLatencyMatchesAnalytic)
{
    Fixture f;
    Tick done = f.blockingRead(0);
    EXPECT_EQ(done, f.mc.idleReadLatency());
    // DDR4-2400: ~10ns FE + (17+17+4)*0.833 + 6ns BE ~= 47ns.
    EXPECT_NEAR(ticksToNs(done), 47.0, 3.0);
}

TEST(MemoryController, RowHitIsFasterThanRowMiss)
{
    Fixture f;
    Tick first = f.blockingRead(0); // opens the row
    Tick t0 = f.eq.curTick();
    Tick hit = f.blockingRead(64) - t0; // same row
    // A far-away address in the same bank needs precharge+activate.
    // Same (bank, sub-array) repeats every 128KB; the next page slot
    // within the sub-array is a different row.
    Tick t1 = f.eq.curTick();
    Tick miss = f.blockingRead(128 * 1024) - t1;
    EXPECT_LT(hit, first);
    EXPECT_GT(miss, hit);
    EXPECT_GE(f.mc.rowHits(), 1u);
    EXPECT_GE(f.mc.rowMisses(), 2u);
}

TEST(MemoryController, StreamingSaturatesNearChannelBandwidth)
{
    Fixture f;
    // Issue 4MB of sequential reads in one shot.
    const std::uint32_t req_size = 4096;
    const int nreq = 1024;
    Tick last = 0;
    int done = 0;
    for (int i = 0; i < nreq; ++i) {
        auto req = makeMemRequest(Addr(i) * req_size, req_size, false,
                                  MemSource::HostCpu, [&](Tick t) {
                                      last = std::max(last, t);
                                      ++done;
                                  });
        f.mc.access(req);
    }
    f.eq.run();
    EXPECT_EQ(done, nreq);
    double secs = ticksToSec(last);
    double gbps = double(nreq) * req_size / secs / 1e9;
    // DDR4-2400 channel peak = 19.2 GB/s; expect well over half of
    // it and never above it.
    EXPECT_GT(gbps, 10.0);
    EXPECT_LE(gbps, 19.3);
    EXPECT_GT(f.mc.busUtilization(), 0.5);
}

TEST(MemoryController, MultiBeatRequestCompletesOnce)
{
    Fixture f;
    int completions = 0;
    auto req = makeMemRequest(0, 1024, false, MemSource::HostCpu,
                              [&](Tick) { ++completions; });
    f.mc.access(req);
    f.eq.run();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(f.mc.beatsServiced(), 16u);
}

TEST(MemoryController, ReserveBusDelaysSubsequentAccesses)
{
    Fixture f;
    Tick hold = nsToTicks(500);
    Tick slot = f.mc.reserveBus(0, hold);
    EXPECT_EQ(slot, 0u);
    Tick done = f.blockingRead(0);
    EXPECT_GE(done, hold);
}

TEST(MemoryController, ReserveBusSlotsAreExclusive)
{
    Fixture f;
    Tick s1 = f.mc.reserveBus(0, 100);
    Tick s2 = f.mc.reserveBus(0, 100);
    EXPECT_GE(s2, s1 + 100);
}

TEST(MemoryController, OccupyBankBlocksThatBankOnly)
{
    Fixture f;
    Tick until = nsToTicks(1000);
    DramAddress da0 = f.mc.decoder().decode(0);
    f.mc.occupyBank(da0.rank, da0.bank, until);

    Tick done_blocked = f.blockingRead(0);
    EXPECT_GT(done_blocked, until);

    // A different bank is unaffected. Consecutive pages land on
    // different banks under the Fig. 9 striping.
    DramAddress da1 = f.mc.decoder().decode(pageBytes);
    ASSERT_FALSE(da0.sameBank(da1));
    Tick t0 = f.eq.curTick();
    Tick done_free = f.blockingRead(pageBytes);
    EXPECT_LT(done_free - t0, until);
}

TEST(MemoryController, SourceStatsSeparateReadsAndWrites)
{
    Fixture f;
    auto rd = makeMemRequest(0, 64, false, MemSource::HostCpu, nullptr);
    auto wr =
        makeMemRequest(4096, 128, true, MemSource::NetDimmNic, nullptr);
    f.mc.access(rd);
    f.mc.access(wr);
    f.eq.run();
    EXPECT_EQ(f.mc.sourceStats(MemSource::HostCpu).bytesRead.value(),
              64u);
    EXPECT_EQ(
        f.mc.sourceStats(MemSource::NetDimmNic).bytesWritten.value(),
        128u);
    EXPECT_EQ(f.mc.sourceStats(MemSource::HostDma).bytesRead.value(),
              0u);
    EXPECT_GT(f.mc.meanReadLatencyNs(), 0.0);
}

TEST(MemoryController, TraceHookSeesEveryBeat)
{
    Fixture f;
    std::vector<Addr> lines;
    f.mc.setTraceHook([&](Tick, Addr a, bool w, MemSource) {
        EXPECT_FALSE(w);
        lines.push_back(a);
    });
    auto req = makeMemRequest(0, 256, false, MemSource::HostDma, nullptr);
    f.mc.access(req);
    f.eq.run();
    ASSERT_EQ(lines.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(lines[std::size_t(i)], Addr(i) * 64);
}

TEST(MemoryController, WritesEventuallyComplete)
{
    Fixture f;
    int done = 0;
    for (int i = 0; i < 100; ++i) {
        auto wr = makeMemRequest(Addr(i) * 64, 64, true,
                                 MemSource::HostCpu,
                                 [&](Tick) { ++done; });
        f.mc.access(wr);
    }
    f.eq.run();
    EXPECT_EQ(done, 100);
}

TEST(MemoryController, LatencyGrowsUnderLoad)
{
    Fixture f;
    // Measure a lone read.
    Tick lone = f.blockingRead(0);

    // Now pile up a large burst and measure a read behind it.
    for (int i = 0; i < 256; ++i) {
        auto req = makeMemRequest(Addr(i) * 4096, 4096, false,
                                  MemSource::HostDma, nullptr);
        f.mc.access(req);
    }
    Tick t0 = f.eq.curTick();
    Tick loaded = f.blockingRead(64) - t0;
    EXPECT_GT(loaded, lone);
}

TEST(MemoryController, HostOnlySchedulePinned)
{
    // Host-only FR-FCFS schedule pinned tick for tick. The traffic
    // places row hits beyond the 8-beat scan window, crosses the
    // write-drain watermark with reads queued behind the writes, and
    // spreads arrivals in time, so a change to the scan window, the
    // row-hit preference or the read/write order moves these ticks.
    Fixture f;
    const Addr slot = 128 * 1024; // same (bank, sub-array), next row
    const DimmDecoder &dec = f.mc.decoder();
    ASSERT_TRUE(dec.decode(0).sameBank(dec.decode(slot)));
    ASSERT_NE(dec.decode(0).rowId(dec.geometry()),
              dec.decode(slot).rowId(dec.geometry()));
    ASSERT_FALSE(dec.decode(0).sameBank(dec.decode(pageBytes)));

    std::vector<Tick> done;
    auto issue = [&](Tick at, Addr addr, std::uint32_t size,
                     bool write) {
        std::size_t idx = done.size();
        done.push_back(0);
        f.eq.schedule(at, [&, idx, addr, size, write] {
            f.mc.access(makeMemRequest(addr, size, write,
                                       MemSource::HostCpu,
                                       [&, idx](Tick t) {
                                           done[idx] = t;
                                       }));
        });
    };

    // Open row 0 of the first bank.
    issue(0, 0, 64, false);
    // Ten row misses in a second bank, then two hits to the open row
    // at queue positions 10 and 11: outside the window until three
    // misses have issued.
    const Tick t1 = nsToTicks(200);
    for (int k = 1; k <= 10; ++k)
        issue(t1, pageBytes + Addr(k) * slot, 64, false);
    issue(t1, 64, 64, false);
    issue(t1, 128, 64, false);
    // 56 writes (past the 48-beat drain watermark) with six reads
    // queued in the same tick: writes drain first, down to half the
    // watermark, before the reads are served.
    const Tick t2 = nsToTicks(1000);
    for (int k = 0; k < 56; ++k)
        issue(t2, Addr(k % 4) * pageBytes + Addr(k / 4) * slot, 64,
              true);
    for (int k = 0; k < 6; ++k)
        issue(t2, Addr(k % 2) * pageBytes + Addr(k) * 64, 64, false);
    // Staggered mixed traffic: two-beat reads and writes every 30 ns,
    // alternating between a streaming row and a conflicting one.
    const Tick t3 = nsToTicks(2500);
    for (int k = 0; k < 20; ++k)
        issue(t3 + Tick(k) * nsToTicks(30),
              (k % 3 == 0 ? Addr(1 + k) * slot : Addr(k) * 128), 128,
              k % 4 == 1);
    f.eq.run();

    const std::vector<Tick> pinned = {
        // row 0 opened
        47654,
        // misses, then the two hits beyond the window
        247654, 280974, 314294, 347614, 380934, 414254, 447574, 480894,
        514214, 547534, 317626, 320958,
        // writes
        1033493, 1061815, 1065147, 1068479, 1071811, 1095135, 1098467,
        1101799, 1105131, 1128455, 1131787, 1135119, 1138451, 1161775,
        1165107, 1168439, 1171771, 1195095, 1198427, 1201759, 1205091,
        1228415, 1231747, 1235079, 1238411, 1261735, 1265067, 1268399,
        1271731, 1295055, 1298387, 1301719, 1343369, 1371691, 1375023,
        1378355, 1381687, 1405011, 1408343, 1411675, 1415007, 1438331,
        1441663, 1444995, 1448327, 1471651, 1474983, 1478315, 1481647,
        1504971, 1508303, 1511635, 1514967, 1538291, 1541623, 1544955,
        // reads queued behind the writes
        1305051, 1328375, 1308383, 1333373, 1311715, 1338371,
        // staggered mixed traffic
        2566813, 2605131, 2615127, 2656813, 2695131, 2705127, 2746813,
        2785131, 2823449, 2861767, 2900085, 2910081, 2948399, 2986717,
        2996713, 3035031, 3073349, 3083345, 3121663, 3159981,
    };
    EXPECT_EQ(done, pinned);
}
