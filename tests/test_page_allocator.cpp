/**
 * @file
 * Unit tests for the sub-array-aware NetDIMM page allocator and the
 * host-side zone allocator (Sec. 4.2.1).
 */

#include <gtest/gtest.h>

#include "kernel/PageAllocator.hh"

using namespace netdimm;

namespace
{
DramGeometry
localGeo()
{
    DramGeometry g;
    g.channels = 1;
    g.ranksPerChannel = 2;
    g.banksPerDevice = 16;
    g.subArraysPerBank = 512;
    g.rowsPerSubArray = 128;
    g.rowBytes = 1024;
    return g;
}

constexpr Addr regionBase = 1ull << 32;
} // namespace

TEST(NetdimmZoneAllocator, TotalsMatchGeometry)
{
    NetdimmZoneAllocator a(regionBase, localGeo());
    // 2 ranks x 16 banks x 512 sub-arrays.
    EXPECT_EQ(a.totalSubArrays(), 2u * 16u * 512u);
    // 32 pages per sub-array.
    EXPECT_EQ(a.freePages(), std::uint64_t(a.totalSubArrays()) * 32u);
}

TEST(NetdimmZoneAllocator, PagesAreAlignedAndInRegion)
{
    NetdimmZoneAllocator a(regionBase, localGeo());
    for (int i = 0; i < 1000; ++i) {
        Addr p = a.allocPage(std::nullopt);
        EXPECT_EQ(p % pageBytes, 0u);
        EXPECT_GE(p, regionBase);
    }
}

TEST(NetdimmZoneAllocator, HintedAllocationSharesSubArray)
{
    NetdimmZoneAllocator a(regionBase, localGeo());
    Addr first = a.allocPage(std::nullopt);
    for (int i = 0; i < 10; ++i) {
        Addr hinted = a.allocPage(first);
        EXPECT_TRUE(a.sameSubArray(first, hinted))
            << "hinted page " << i << " left the sub-array";
        EXPECT_NE(hinted, first);
    }
    EXPECT_GE(a.hintedHits(), 10u);
}

TEST(NetdimmZoneAllocator, HintFallsBackWhenSubArrayDrained)
{
    NetdimmZoneAllocator a(regionBase, localGeo());
    Addr first = a.allocPage(std::nullopt);
    // Drain the hinted sub-array (32 pages total; one already gone).
    for (int i = 0; i < 31; ++i)
        a.allocPage(first);
    // Next hinted allocation cannot match but must still succeed.
    Addr fallback = a.allocPage(first);
    EXPECT_FALSE(a.sameSubArray(first, fallback));
    EXPECT_GE(a.hintedMisses(), 1u);
}

TEST(NetdimmZoneAllocator, FreeReturnsPageForReuse)
{
    NetdimmZoneAllocator a(regionBase, localGeo());
    std::uint64_t before = a.freePages();
    Addr p = a.allocPage(std::nullopt);
    EXPECT_EQ(a.freePages(), before - 1);
    a.freePage(p);
    EXPECT_EQ(a.freePages(), before);
    // The freed page is allocatable on its own sub-array again.
    Addr q = a.allocPage(p);
    EXPECT_TRUE(a.sameSubArray(p, q));
}

TEST(NetdimmZoneAllocator, NoDuplicateAllocations)
{
    NetdimmZoneAllocator a(regionBase, localGeo());
    std::set<Addr> seen;
    for (int i = 0; i < 20000; ++i)
        EXPECT_TRUE(seen.insert(a.allocPage(std::nullopt)).second);
}

TEST(NetdimmZoneAllocator, HintlessSpreadsAcrossSubArrays)
{
    NetdimmZoneAllocator a(regionBase, localGeo());
    std::set<std::pair<bool, Addr>> keys;
    Addr first = a.allocPage(std::nullopt);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.sameSubArray(first, a.allocPage(std::nullopt));
    // Round-robin over 16K sub-arrays: essentially never the same.
    EXPECT_LE(same, 1);
    (void)keys;
}

TEST(PageAllocator, NormalZoneBumpAndRecycle)
{
    PageAllocator pa(1 << 20, 64 << 20);
    Addr a = pa.allocPages(MemZone::Normal, 1);
    Addr b = pa.allocPages(MemZone::Normal, 4);
    EXPECT_EQ(a, Addr(1 << 20));
    EXPECT_EQ(b, a + pageBytes);
    pa.freePages(MemZone::Normal, a, 1);
    EXPECT_EQ(pa.allocPages(MemZone::Normal, 1), a);
}

TEST(PageAllocator, NetZoneDelegates)
{
    PageAllocator pa(1 << 20, 64 << 20);
    NetdimmZoneAllocator za(regionBase, localGeo());
    pa.addNetZone(0, &za);
    Addr p = pa.allocPages(netZone(0), 1);
    EXPECT_GE(p, regionBase);
    pa.freePages(netZone(0), p, 1);
    EXPECT_EQ(pa.netZoneAllocator(0), &za);
    EXPECT_EQ(pa.netZoneAllocator(3), nullptr);
}

TEST(PageAllocatorDeath, UnattachedNetZoneIsFatal)
{
    PageAllocator pa(1 << 20, 64 << 20);
    EXPECT_DEATH((void)pa.allocPages(netZone(0), 1), "NET0");
}

TEST(Zones, NamesAndPredicates)
{
    EXPECT_EQ(zoneName(MemZone::Normal), "ZONE_NORMAL");
    EXPECT_EQ(zoneName(MemZone::Dma32), "ZONE_DMA32");
    EXPECT_EQ(zoneName(netZone(0)), "NET0");
    EXPECT_EQ(zoneName(netZone(3)), "NET3");
    EXPECT_TRUE(isNetZone(netZone(1)));
    EXPECT_FALSE(isNetZone(MemZone::Normal));
    EXPECT_EQ(netZoneIndex(netZone(5)), 5u);
}
