/**
 * @file
 * Unit tests for the NVDIMM-P asynchronous protocol engine: the
 * XRD/RDY/SEND read flow, posted writes, request-ID throttling and
 * out-of-order completion (Sec. 2.2 / Fig. 3 of the paper).
 */

#include <gtest/gtest.h>

#include "nvdimm/NvdimmDevice.hh"

using namespace netdimm;

namespace
{

/** Device with a scriptable media latency. */
class FakeNvdimm : public NvdimmPDevice
{
  public:
    Tick fixedLatency = nsToTicks(50);
    /** Optional per-request latency override keyed by address. */
    std::map<Addr, Tick> perAddr;
    int mediaCalls = 0;

    FakeNvdimm(EventQueue &eq, const SystemConfig &cfg,
               MemoryController &host, std::uint32_t max_ids = 64)
        : NvdimmPDevice(eq, "nv", cfg, host, max_ids)
    {}

  protected:
    void
    mediaAccess(const MemRequestPtr &req,
                MemRequest::Completion done) override
    {
        ++mediaCalls;
        Tick lat = fixedLatency;
        auto it = perAddr.find(req->addr);
        if (it != perAddr.end())
            lat = it->second;
        Tick ready = eventq().curTick() + lat;
        eventq().schedule(ready,
                          [done = std::move(done), ready] {
                              done(ready);
                          });
    }

    Tick idealMediaLatency() const override { return fixedLatency; }
};

struct Fixture
{
    EventQueue eq;
    SystemConfig cfg;
    DramGeometry perChannel;
    MemoryController host;
    FakeNvdimm dev;

    explicit Fixture(std::uint32_t max_ids = 64)
        : perChannel(makeGeo(cfg)),
          host(eq, "host", perChannel, cfg.memCtrl),
          dev(eq, cfg, host, max_ids)
    {}

    static DramGeometry
    makeGeo(const SystemConfig &cfg)
    {
        DramGeometry g = cfg.hostMem;
        g.channels = 1;
        return g;
    }

    Tick
    blockingRead(Addr addr, std::uint32_t size = 64)
    {
        Tick done = 0;
        auto req = makeMemRequest(addr, size, false, MemSource::HostCpu,
                                  [&](Tick t) { done = t; });
        dev.access(req);
        eq.run();
        return done;
    }
};

} // namespace

TEST(NvdimmP, ReadLatencyMatchesIdealAnalytic)
{
    Fixture f;
    Tick done = f.blockingRead(0);
    EXPECT_EQ(done, f.dev.idealHostReadLatency());
    EXPECT_EQ(f.dev.hostReads(), 1u);
    EXPECT_EQ(f.dev.mediaCalls, 1);
}

TEST(NvdimmP, ReadCoversMediaPlusProtocolOverheads)
{
    Fixture f;
    Tick done = f.blockingRead(0);
    // Must at least pay media + async handshake + one DQ burst.
    EXPECT_GE(done, f.dev.fixedLatency +
                        f.cfg.netdimm.asyncProtocolOverhead +
                        DramTiming::clocks(DramTiming::tBURST));
}

TEST(NvdimmP, WriteIsPostedButReachesMedia)
{
    Fixture f;
    Tick done = 0;
    auto req = makeMemRequest(0, 64, true, MemSource::HostCpu,
                              [&](Tick t) { done = t; });
    f.dev.access(req);
    f.eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(f.dev.hostWrites(), 1u);
    EXPECT_EQ(f.dev.mediaCalls, 1);
}

TEST(NvdimmP, LargerReadsOccupyMoreDqTime)
{
    Fixture f;
    Tick small = f.blockingRead(0, 64);
    Tick t0 = f.eq.curTick();
    Tick large = f.blockingRead(8192, 4096) - t0;
    // 64 bursts vs 1 burst on the DQ bus.
    EXPECT_GT(large, small);
}

TEST(NvdimmP, OutOfOrderCompletionByMediaLatency)
{
    Fixture f;
    f.dev.perAddr[0] = usToTicks(10); // slow
    f.dev.perAddr[4096] = nsToTicks(10); // fast

    std::vector<Addr> order;
    auto slow = makeMemRequest(0, 64, false, MemSource::HostCpu,
                               [&](Tick) { order.push_back(0); });
    auto fast = makeMemRequest(4096, 64, false, MemSource::HostCpu,
                               [&](Tick) { order.push_back(4096); });
    f.dev.access(slow);
    f.dev.access(fast);
    f.eq.run();
    // The later, faster request completes first: the request IDs of
    // NVDIMM-P exist precisely to allow this.
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 4096u);
    EXPECT_EQ(order[1], 0u);
}

TEST(NvdimmP, RequestIdExhaustionStallsAndRecovers)
{
    Fixture f(/*max_ids=*/2);
    int done = 0;
    for (int i = 0; i < 8; ++i) {
        auto req = makeMemRequest(Addr(i) * 64, 64, false,
                                  MemSource::HostCpu,
                                  [&](Tick) { ++done; });
        f.dev.access(req);
    }
    EXPECT_GT(f.dev.idStalls(), 0u);
    f.eq.run();
    EXPECT_EQ(done, 8);
    EXPECT_EQ(f.dev.outstandingIds(), 0u);
}

TEST(NvdimmP, HostBusContentionDelaysConventionalTraffic)
{
    Fixture f;
    // Saturate the NVDIMM with a large read whose data return claims
    // DQ slots, then check a conventional DRAM access on the same
    // channel queues behind it.
    Tick lone = 0;
    {
        auto probe = makeMemRequest(0, 64, false, MemSource::HostCpu,
                                    [&](Tick t) { lone = t; });
        f.host.access(probe);
        f.eq.run();
    }
    Tick t0 = f.eq.curTick();
    auto big = makeMemRequest(0, 8192, false, MemSource::HostCpu,
                              nullptr);
    f.dev.access(big);
    Tick loaded = 0;
    auto probe2 = makeMemRequest(1 << 20, 64, false, MemSource::HostCpu,
                                 [&](Tick t) { loaded = t; });
    f.host.access(probe2);
    f.eq.run();
    EXPECT_GT(loaded - t0, lone);
}
