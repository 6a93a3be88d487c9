/**
 * @file
 * Unit and property tests for DRAM address decoding and the host
 * flex-mode address map (paper Fig. 9 / Fig. 10).
 */

#include <gtest/gtest.h>

#include "mem/AddressMap.hh"

using namespace netdimm;

namespace
{
DramGeometry
fig9Geometry()
{
    DramGeometry geo;
    geo.channels = 1;
    geo.ranksPerChannel = 2;
    geo.banksPerDevice = 16;
    geo.subArraysPerBank = 512;
    geo.rowsPerSubArray = 128;
    geo.rowBytes = 1024;
    return geo;
}
} // namespace

TEST(DimmDecoder, GeometryDerivedQuantities)
{
    DimmDecoder dec(fig9Geometry());
    // 128 rows x 1KB = 128KB per sub-array = 32 x 4KB pages.
    EXPECT_EQ(dec.pagesPerSubArray(), 32u);
    // Fig. 9(c): pages sharing a bank+sub-array recur every 128KB.
    EXPECT_EQ(dec.sameSubArrayStride(), 128u * 1024u);
    EXPECT_EQ(dec.subArraysPerRank(), 16u * 512u);
}

TEST(DimmDecoder, DecodeIsInRange)
{
    DramGeometry geo = fig9Geometry();
    DimmDecoder dec(geo);
    for (Addr a = 0; a < 64ull * 1024 * 1024; a += 37 * 64) {
        DramAddress da = dec.decode(a);
        EXPECT_LT(da.rank, geo.ranksPerChannel);
        EXPECT_LT(da.bank, geo.banksPerDevice);
        EXPECT_LT(da.subArray, geo.subArraysPerBank);
        EXPECT_LT(da.row, geo.rowsPerSubArray);
        EXPECT_LT(da.column, geo.rowBytes);
    }
}

TEST(DimmDecoder, SameSubArrayEvery128KB)
{
    DimmDecoder dec(fig9Geometry());
    DramAddress base = dec.decode(0);
    // Stride of 128KB returns to the same bank + sub-array.
    for (int i = 1; i < 16; ++i) {
        DramAddress d = dec.decode(Addr(i) * 128 * 1024);
        EXPECT_TRUE(base.sameSubArray(d))
            << "stride " << i << " x 128KB left the sub-array";
    }
    // Consecutive pages do NOT share a sub-array.
    DramAddress next = dec.decode(pageBytes);
    EXPECT_FALSE(base.sameSubArray(next));
}

TEST(DimmDecoder, PageSpansOneSubArray)
{
    DimmDecoder dec(fig9Geometry());
    for (Addr page = 0; page < 64; ++page) {
        DramAddress first = dec.decode(page * pageBytes);
        for (Addr off = 64; off < pageBytes; off += 64) {
            DramAddress d = dec.decode(page * pageBytes + off);
            EXPECT_TRUE(first.sameSubArray(d));
        }
    }
}

TEST(DimmDecoder, PageAddressInvertsDecode)
{
    DramGeometry geo = fig9Geometry();
    DimmDecoder dec(geo);
    for (std::uint32_t rank = 0; rank < 2; ++rank) {
        for (std::uint32_t bank = 0; bank < 16; bank += 5) {
            for (std::uint32_t sa = 0; sa < 512; sa += 111) {
                for (std::uint32_t slot = 0; slot < 32; slot += 7) {
                    Addr a = dec.pageAddress(rank, bank, sa, slot);
                    EXPECT_EQ(a % pageBytes, 0u);
                    DramAddress da = dec.decode(a);
                    EXPECT_EQ(da.rank, rank);
                    EXPECT_EQ(da.bank, bank);
                    EXPECT_EQ(da.subArray, sa);
                }
            }
        }
    }
}

TEST(DimmDecoder, DistinctPagesGetDistinctAddresses)
{
    DramGeometry geo = fig9Geometry();
    DimmDecoder dec(geo);
    std::set<Addr> seen;
    for (std::uint32_t bank = 0; bank < 16; ++bank)
        for (std::uint32_t sa = 0; sa < 8; ++sa)
            for (std::uint32_t slot = 0; slot < 32; ++slot)
                EXPECT_TRUE(
                    seen.insert(dec.pageAddress(0, bank, sa, slot))
                        .second);
}

TEST(DimmDecoder, RowIdUniquePerRow)
{
    DramGeometry geo = fig9Geometry();
    DimmDecoder dec(geo);
    DramAddress a = dec.decode(0);
    DramAddress b = dec.decode(geo.rowBytes); // next row, same page
    EXPECT_NE(a.rowId(geo), b.rowId(geo));
    EXPECT_EQ(a.rowId(geo), dec.decode(63).rowId(geo));
}

TEST(HostAddressMap, MultiModeStripes)
{
    HostAddressMap map(1ull << 30, 2, 256, InterleaveMode::Multi);
    EXPECT_EQ(map.route(0).channel, 0u);
    EXPECT_EQ(map.route(256).channel, 1u);
    EXPECT_EQ(map.route(512).channel, 0u);
    EXPECT_EQ(map.route(255).channel, 0u);
}

TEST(HostAddressMap, SingleModeSplitsContiguously)
{
    HostAddressMap map(1ull << 30, 2, 256, InterleaveMode::Single);
    EXPECT_EQ(map.route(0).channel, 0u);
    EXPECT_EQ(map.route((1ull << 29) - 1).channel, 0u);
    EXPECT_EQ(map.route(1ull << 29).channel, 1u);
}

TEST(HostAddressMap, FlexRoutesNetDimmSingleChannel)
{
    HostAddressMap map(1ull << 30, 2, 256, InterleaveMode::Flex);
    Addr base = map.addNetDimmRegion(1ull << 28, /*channel=*/1);
    EXPECT_EQ(base, 1ull << 30);
    // Conventional region still stripes.
    EXPECT_EQ(map.route(256).channel, 1u);
    // The whole NetDIMM window routes to its channel.
    for (Addr off : {Addr(0), Addr(4096), Addr((1ull << 28) - 64)}) {
        ChannelRoute r = map.route(base + off);
        EXPECT_TRUE(r.isNetDimm);
        EXPECT_EQ(r.channel, 1u);
        EXPECT_EQ(r.netDimmIndex, 0u);
        EXPECT_EQ(r.dimmOffset, off);
    }
}

TEST(HostAddressMap, MultipleNetDimmRegionsStack)
{
    HostAddressMap map(1ull << 30, 2);
    Addr b0 = map.addNetDimmRegion(1ull << 20, 0);
    Addr b1 = map.addNetDimmRegion(1ull << 20, 1);
    EXPECT_EQ(b1, b0 + (1ull << 20));
    EXPECT_EQ(map.numNetDimmRegions(), 2u);
    EXPECT_EQ(map.route(b1 + 5).netDimmIndex, 1u);
    EXPECT_EQ(map.netDimmBase(0), b0);
    EXPECT_EQ(map.netDimmSize(1), 1ull << 20);
}

TEST(HostAddressMapDeath, UnmappedAddressPanics)
{
    HostAddressMap map(1ull << 20, 1);
    EXPECT_DEATH(map.route(1ull << 21), "outside");
}

TEST(HostAddressMapDeath, MultiModeRejectsNetDimm)
{
    HostAddressMap map(1ull << 20, 2, 256, InterleaveMode::Multi);
    EXPECT_DEATH(map.addNetDimmRegion(1ull << 20, 0), "Flex");
}
