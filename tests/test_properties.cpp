/**
 * @file
 * Property-based suites: invariants checked over randomized inputs
 * and parameter grids rather than single examples.
 */

#include <gtest/gtest.h>

#include "kernel/AllocCache.hh"
#include "mem/RowClone.hh"
#include "net/Link.hh"
#include "workload/LatencyHarness.hh"

using namespace netdimm;

// ---------------------------------------------------------------------
// Address decoding: randomized round trips.
// ---------------------------------------------------------------------

TEST(PropertyDecoder, RandomAddressesDecodeConsistently)
{
    DramGeometry geo;
    geo.channels = 1;
    geo.ranksPerChannel = 2;
    DimmDecoder dec(geo);
    Random rng(99);
    std::uint64_t cap = geo.channelBytes();

    for (int i = 0; i < 20000; ++i) {
        Addr a = rng.uniformInt(0, cap - 1);
        DramAddress da = dec.decode(a);
        EXPECT_LT(da.rank, geo.ranksPerChannel);
        EXPECT_LT(da.bank, geo.banksPerDevice);
        EXPECT_LT(da.subArray, geo.subArraysPerBank);
        EXPECT_LT(da.row, geo.rowsPerSubArray);
        EXPECT_LT(da.column, geo.rowBytes);

        // Same cacheline -> identical coordinates.
        DramAddress db = dec.decode(a - (a % 64));
        EXPECT_TRUE(da.sameSubArray(db));
        EXPECT_EQ(da.rowId(geo), db.rowId(geo));

        // The Fig. 9(c) invariant at any random page: one stride
        // later lands on the same bank + sub-array -- unless this
        // page occupies the sub-array's *last* slot, where the walk
        // moves on to the next sub-array group.
        Addr page = a - (a % pageBytes);
        if (page + dec.sameSubArrayStride() < cap) {
            DramAddress dp = dec.decode(page);
            std::uint32_t rows_per_page = pageBytes / geo.rowBytes;
            std::uint32_t slot = dp.row / rows_per_page;
            bool last_slot = slot + 1 == dec.pagesPerSubArray();
            DramAddress dc =
                dec.decode(page + dec.sameSubArrayStride());
            if (!last_slot) {
                EXPECT_TRUE(dp.sameSubArray(dc));
            } else {
                EXPECT_FALSE(dp.sameSubArray(dc));
            }
        }
    }
}

// ---------------------------------------------------------------------
// RowClone: mode selection consistent with the decoded relation for
// random page pairs.
// ---------------------------------------------------------------------

TEST(PropertyRowClone, ModeMatchesDecodedRelation)
{
    EventQueue eq;
    SystemConfig cfg;
    DramGeometry geo;
    geo.channels = 1;
    geo.ranksPerChannel = 2;
    MemoryController mc(eq, "mc", geo, cfg.memCtrl);
    RowCloneEngine rc(eq, "rc", mc);
    const DimmDecoder &dec = mc.decoder();
    Random rng(7);
    std::uint64_t pages = geo.channelBytes() / pageBytes;

    for (int i = 0; i < 20000; ++i) {
        Addr src = rng.uniformInt(0, pages - 1) * pageBytes;
        Addr dst = rng.uniformInt(0, pages - 1) * pageBytes;
        DramAddress s = dec.decode(src), d = dec.decode(dst);
        CloneMode m = rc.selectMode(src, dst);
        if (s.sameSubArray(d) && s.row != d.row) {
            EXPECT_EQ(m, CloneMode::FPM);
        } else if (s.rank == d.rank && s.bank != d.bank) {
            EXPECT_EQ(m, CloneMode::PSM);
        } else {
            EXPECT_EQ(m, CloneMode::GCM);
        }
        // Latency ordering holds for any pair at any size.
        std::uint32_t bytes =
            std::uint32_t(rng.uniformInt(1, 4096));
        Tick lat = rc.idealLatency(src, dst, bytes);
        EXPECT_GT(lat, 0u);
    }
}

// ---------------------------------------------------------------------
// allocCache: hinted takes stay on the hint's sub-array while fast.
// ---------------------------------------------------------------------

TEST(PropertyAllocCache, FastHintedTakesShareSubArray)
{
    EventQueue eq;
    DramGeometry geo;
    geo.channels = 1;
    geo.ranksPerChannel = 2;
    NetdimmZoneAllocator zone(1ull << 32, geo);
    AllocCache cache(eq, "ac", zone, 2);
    Random rng(13);

    for (int i = 0; i < 2000; ++i) {
        bool fast = false;
        Addr hint = cache.takeAny(fast);
        bool fast2 = false;
        Addr page = cache.take(hint, fast2);
        if (fast2) {
            EXPECT_TRUE(zone.sameSubArray(hint, page));
        }
        // Return both so the pool survives the sweep.
        cache.release(page);
        cache.release(hint);
        eq.run();
    }
}

// ---------------------------------------------------------------------
// End-to-end grid: conservation and determinism across NICs, sizes
// and seeds.
// ---------------------------------------------------------------------

struct GridParam
{
    NicKind kind;
    std::uint32_t bytes;
};

class PropertyE2E : public ::testing::TestWithParam<GridParam>
{
};

TEST_P(PropertyE2E, EveryPacketDeliveredExactlyOnce)
{
    setQuiet(true);
    SystemConfig cfg;
    cfg.nic = GetParam().kind;
    EventQueue eq;
    Node a(eq, "a", cfg, 0), b(eq, "b", cfg, 1);
    EthLink link(eq, "link", cfg.eth);
    link.connect(a.endpoint(), b.endpoint());
    a.connectTo(link);
    b.connectTo(link);

    std::map<std::uint64_t, int> seen;
    b.setReceiveHandler(
        [&](const PacketPtr &pkt, Tick) { seen[pkt->id]++; });

    const int n = 25;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < n; ++i) {
        eq.schedule(usToTicks(3) * Tick(i + 1), [&, i] {
            PacketPtr pkt = a.makeTxPacket(GetParam().bytes, b.id(),
                                           1 + (i % 4));
            ids.push_back(pkt->id);
            a.sendPacket(pkt);
        });
    }
    eq.run();
    EXPECT_EQ(seen.size(), std::size_t(n));
    for (std::uint64_t id : ids)
        EXPECT_EQ(seen[id], 1) << "packet " << id;
}

TEST_P(PropertyE2E, DeterministicAcrossRuns)
{
    setQuiet(true);
    SystemConfig cfg;
    cfg.nic = GetParam().kind;
    LatencyHarness h(cfg, GetParam().kind);
    PingResult r1 = h.run(GetParam().bytes, 12, 4);
    PingResult r2 = h.run(GetParam().bytes, 12, 4);
    EXPECT_DOUBLE_EQ(r1.totalUs, r2.totalUs);
    for (std::size_t c = 0; c < numLatComps; ++c)
        EXPECT_DOUBLE_EQ(r1.compUs[c], r2.compUs[c]);
}

TEST_P(PropertyE2E, BreakdownComponentsNonNegativeAndBounded)
{
    setQuiet(true);
    SystemConfig cfg;
    PingResult r =
        LatencyHarness(cfg, GetParam().kind).run(GetParam().bytes, 10, 4);
    for (std::size_t c = 0; c < numLatComps; ++c) {
        EXPECT_GE(r.compUs[c], 0.0);
        EXPECT_LE(r.compUs[c], r.totalUs);
    }
    EXPECT_LE(r.pcieUs, r.totalUs);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PropertyE2E,
    ::testing::Values(GridParam{NicKind::Discrete, 64},
                      GridParam{NicKind::Discrete, 1460},
                      GridParam{NicKind::DiscreteZeroCopy, 512},
                      GridParam{NicKind::Integrated, 64},
                      GridParam{NicKind::Integrated, 1460},
                      GridParam{NicKind::IntegratedZeroCopy, 512},
                      GridParam{NicKind::NetDimm, 64},
                      GridParam{NicKind::NetDimm, 512},
                      GridParam{NicKind::NetDimm, 1460},
                      GridParam{NicKind::NetDimm, 4096}),
    [](const ::testing::TestParamInfo<GridParam> &info) {
        std::string n = nicKindName(info.param.kind);
        for (auto &c : n)
            if (c == '.')
                c = '_';
        return n + "_" + std::to_string(info.param.bytes);
    });

// ---------------------------------------------------------------------
// Seed sensitivity: different seeds perturb only the polling phase,
// so means stay within a tight band.
// ---------------------------------------------------------------------

TEST(PropertySeeds, MeansStableAcrossSeeds)
{
    setQuiet(true);
    std::vector<double> totals;
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 17ull}) {
        SystemConfig cfg;
        cfg.seed = seed;
        totals.push_back(
            LatencyHarness(cfg, NicKind::NetDimm).run(256).totalUs);
    }
    double lo = *std::min_element(totals.begin(), totals.end());
    double hi = *std::max_element(totals.begin(), totals.end());
    EXPECT_LT((hi - lo) / lo, 0.05);
}
