/**
 * @file
 * Ablation: nCache capacity and nPrefetcher depth (Sec. 4.1 design
 * choices). A NetDIMM receives packets and the host then streams the
 * payload out (the copy-to-userspace pattern); the sweep shows
 *  - the header read always hits (one line is enough for L3F-style
 *    consumers), and
 *  - payload streaming needs the prefetcher: without it every line
 *    pays the local-DRAM access, with it at most one miss per burst
 *    (the paper's "in the worst case ... one nCache miss").
 */

#include <cstdio>
#include <vector>

#include "harness/SweepRunner.hh"
#include "mem/MemorySystem.hh"
#include "netdimm/NetDimmDevice.hh"

using namespace netdimm;

namespace
{

struct Result
{
    double headerNs;
    double payloadNsPerLine;
    double hitRate;
};

Result
runOne(std::uint64_t ncache_bytes, std::uint32_t depth, int npackets,
       std::uint32_t bytes)
{
    SystemConfig cfg;
    cfg.netdimm.nCacheBytes = ncache_bytes;
    cfg.netdimm.prefetchDepth = depth;

    EventQueue eq;
    MemorySystem mem(eq, "mem", cfg);
    NetDimmDevice dev(eq, "nd", cfg, mem.channel(0));
    Addr base = mem.attachNetDimm(dev.mappedBytes(), 0, dev);
    dev.setRegionBase(base);
    dev.rxRing().init(base, 256);

    stats::Average header_ns, line_ns;

    // Blocking host read helper.
    auto read = [&](Addr addr, std::uint32_t size) {
        Tick done = 0;
        auto req = makeMemRequest(addr, size, false, MemSource::HostCpu,
                                  [&](Tick t) { done = t; });
        mem.access(req);
        eq.run();
        return done;
    };

    for (int i = 0; i < npackets; ++i) {
        Addr buf = base + Addr(1 + i) * pageBytes;
        dev.postRxBuffer(buf);
        PacketPtr pkt = makePacket(bytes, 1, 0);
        bool landed = false;
        dev.setRxNotify([&](const PacketPtr &, Tick) { landed = true; });
        dev.deliver(pkt);
        eq.run();
        if (!landed)
            continue;

        // Header first (protocol processing) ...
        Tick t0 = eq.curTick();
        Tick t1 = read(buf, cachelineBytes);
        header_ns.sample(ticksToNs(t1 - t0));

        // ... then stream the payload line by line (the copy loop).
        std::uint32_t lines = (bytes + 63) / 64;
        for (std::uint32_t l = 1; l < lines; ++l) {
            Tick s = eq.curTick();
            Tick e = read(buf + Addr(l) * 64, cachelineBytes);
            line_ns.sample(ticksToNs(e - s));
        }
    }

    Result r;
    r.headerNs = header_ns.mean();
    r.payloadNsPerLine = line_ns.mean();
    std::uint64_t refs = dev.ncache().hits() + dev.ncache().misses();
    r.hitRate = refs ? double(dev.ncache().hits()) / double(refs) : 0.0;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    requireNoArgs(argc, argv);
    setQuiet(true);
    const int npackets = 60;
    const std::uint32_t bytes = 1460;

    std::printf("=== Ablation: nCache size x nPrefetcher depth "
                "(1460B RX packets) ===\n\n");
    std::printf("%12s %8s %12s %16s %10s\n", "nCache", "depth",
                "header(ns)", "payload(ns/line)", "hit rate");

    for (std::uint64_t size : {4ull << 10, 16ull << 10, 64ull << 10,
                               256ull << 10}) {
        for (std::uint32_t depth : {0u, 1u, 2u, 4u, 8u}) {
            Result r = runOne(size, depth, npackets, bytes);
            std::printf("%9lluKB %8u %12.1f %16.1f %9.1f%%\n",
                        (unsigned long long)(size >> 10), depth,
                        r.headerNs, r.payloadNsPerLine,
                        100.0 * r.hitRate);
        }
    }
    std::printf("\n(expected: header reads hit regardless of depth; "
                "payload streaming\n latency drops once depth >= 1 and "
                "saturates; tiny nCaches thrash)\n");
    return 0;
}
