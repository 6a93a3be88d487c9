/**
 * @file
 * Unit tests for the RowClone engine: mode selection (FPM/PSM/GCM),
 * latency relations, bank blocking and statistics.
 */

#include <gtest/gtest.h>

#include "mem/RowClone.hh"

using namespace netdimm;

namespace
{

struct Fixture
{
    EventQueue eq;
    SystemConfig cfg;
    DramGeometry geo;
    MemoryController mc;
    RowCloneEngine rc;

    Fixture()
        : geo(makeGeo()),
          mc(eq, "nmc", geo, cfg.memCtrl),
          rc(eq, "rc", mc)
    {}

    static DramGeometry
    makeGeo()
    {
        DramGeometry g;
        g.channels = 1;
        g.ranksPerChannel = 2;
        return g;
    }

    /** Two page addresses in the same (rank, bank, sub-array). */
    std::pair<Addr, Addr>
    sameSubArrayPages()
    {
        const DimmDecoder &dec = mc.decoder();
        return {dec.pageAddress(0, 3, 7, 0), dec.pageAddress(0, 3, 7, 1)};
    }
};

} // namespace

TEST(RowClone, FpmForSameSubArray)
{
    Fixture f;
    auto [src, dst] = f.sameSubArrayPages();
    EXPECT_EQ(f.rc.selectMode(src, dst), CloneMode::FPM);
}

TEST(RowClone, PsmForDifferentBanksSameRank)
{
    Fixture f;
    const DimmDecoder &dec = f.mc.decoder();
    Addr src = dec.pageAddress(0, 3, 7, 0);
    Addr dst = dec.pageAddress(0, 4, 7, 0);
    EXPECT_EQ(f.rc.selectMode(src, dst), CloneMode::PSM);
}

TEST(RowClone, GcmAcrossRanks)
{
    Fixture f;
    const DimmDecoder &dec = f.mc.decoder();
    Addr src = dec.pageAddress(0, 3, 7, 0);
    Addr dst = dec.pageAddress(1, 3, 7, 0);
    EXPECT_EQ(f.rc.selectMode(src, dst), CloneMode::GCM);
}

TEST(RowClone, GcmForSameBankDifferentSubArray)
{
    Fixture f;
    const DimmDecoder &dec = f.mc.decoder();
    Addr src = dec.pageAddress(0, 3, 7, 0);
    Addr dst = dec.pageAddress(0, 3, 9, 0);
    EXPECT_EQ(f.rc.selectMode(src, dst), CloneMode::GCM);
}

TEST(RowClone, MisalignedRowOffsetsFallBackFromFpm)
{
    Fixture f;
    auto [src, dst] = f.sameSubArrayPages();
    // Different offsets within the row cannot use two bare
    // activations.
    EXPECT_NE(f.rc.selectMode(src + 64, dst + 128), CloneMode::FPM);
}

TEST(RowClone, SameRowIsNotFpm)
{
    Fixture f;
    auto [src, dst] = f.sameSubArrayPages();
    (void)dst;
    EXPECT_NE(f.rc.selectMode(src, src), CloneMode::FPM);
}

TEST(RowClone, FpmLatencyScalesWithRows)
{
    Fixture f;
    auto [src, dst] = f.sameSubArrayPages();
    Tick one_row = f.rc.idealLatency(src, dst, 1024);
    Tick four_rows = f.rc.idealLatency(src, dst, 4096);
    EXPECT_EQ(one_row, RowCloneConfig::fpmPerRow);
    EXPECT_EQ(four_rows, 4 * one_row);
    // Sub-row copies still pay a full row pair.
    EXPECT_EQ(f.rc.idealLatency(src, dst, 64), one_row);
}

TEST(RowClone, ModeLatencyOrderingFpmFastest)
{
    Fixture f;
    const DimmDecoder &dec = f.mc.decoder();
    Addr s = dec.pageAddress(0, 3, 7, 0);
    Addr fpm_d = dec.pageAddress(0, 3, 7, 1);
    Addr psm_d = dec.pageAddress(0, 4, 7, 0);
    Addr gcm_d = dec.pageAddress(1, 3, 7, 0);
    Tick fpm = f.rc.idealLatency(s, fpm_d, 4096);
    Tick psm = f.rc.idealLatency(s, psm_d, 4096);
    Tick gcm = f.rc.idealLatency(s, gcm_d, 4096);
    EXPECT_LT(fpm, psm);
    EXPECT_LT(psm, gcm);
}

TEST(RowClone, CloneCompletesAtIdealLatencyWhenIdle)
{
    Fixture f;
    auto [src, dst] = f.sameSubArrayPages();
    Tick done = 0;
    CloneMode mode{};
    f.rc.clone(src, dst, 1460, [&](Tick t, CloneMode m) {
        done = t;
        mode = m;
    });
    f.eq.run();
    EXPECT_EQ(mode, CloneMode::FPM);
    EXPECT_EQ(done, f.rc.idealLatency(src, dst, 1460));
    EXPECT_EQ(f.rc.fpmClones(), 1u);
    EXPECT_EQ(f.rc.bytesCloned(), 1460u);
}

TEST(RowClone, CloneBlocksInvolvedBanks)
{
    Fixture f;
    auto [src, dst] = f.sameSubArrayPages();
    f.rc.clone(src, dst, 4096, nullptr);

    // A read to the cloning bank waits for the clone to finish.
    Tick done = 0;
    auto req = makeMemRequest(src, 64, false, MemSource::HostCpu,
                              [&](Tick t) { done = t; });
    f.mc.access(req);
    f.eq.run();
    EXPECT_GE(done, f.rc.idealLatency(src, dst, 4096));
}

TEST(RowClone, PsmAndGcmOccupyTheLocalBus)
{
    Fixture f;
    const DimmDecoder &dec = f.mc.decoder();
    Addr src = dec.pageAddress(0, 3, 7, 0);
    Addr dst = dec.pageAddress(0, 4, 7, 0); // PSM
    f.rc.clone(src, dst, 4096, nullptr);

    // An unrelated-bank read still queues behind the bus reservation.
    Addr other = dec.pageAddress(0, 9, 100, 0);
    Tick done = 0;
    auto req = makeMemRequest(other, 64, false, MemSource::HostCpu,
                              [&](Tick t) { done = t; });
    f.mc.access(req);
    f.eq.run();
    EXPECT_GT(done, RowCloneConfig::psmSetup);
    EXPECT_EQ(f.rc.psmClones(), 1u);
}

TEST(RowClone, ModeNames)
{
    EXPECT_STREQ(cloneModeName(CloneMode::FPM), "FPM");
    EXPECT_STREQ(cloneModeName(CloneMode::PSM), "PSM");
    EXPECT_STREQ(cloneModeName(CloneMode::GCM), "GCM");
}
