/**
 * @file
 * `replay` workload: a fig12a-style raw-frame replay of the hadoop
 * cluster trace over a ClosFabric with 50 ns switches, once on a dNIC
 * node pair and once on a NetDIMM pair, followed by the Fig. 11
 * LatencyHarness probe behind paper_err_pp. Dominated by the memory
 * path: per-64 B MC beats, nCache, RowClone, CopyEngine, LLC/DDIO.
 */

#include <array>
#include <cmath>

#include "bench.hh"
#include "harness/LatencyHistogram.hh"
#include "kernel/Node.hh"
#include "net/Switch.hh"
#include "workload/LatencyHarness.hh"
#include "workload/TraceGen.hh"

using namespace netdimm;

namespace perfbench
{

namespace
{

/** Offered load of the replayed trace, as in fig12a. */
constexpr double kOfferedGbps = 5.0;

const char *const kCompKey[numLatComps] = {
    "txcopy", "txflush", "ioreg",        "txdma",
    "wire",   "rxdma",   "rxinvalidate", "rxcopy",
};

/** One sender/receiver pair of one NIC kind on its own fabric. */
struct Pair
{
    const char *kind;
    SystemConfig cfg;
    EventQueue eq;
    std::unique_ptr<Node> tx, rx;
    std::unique_ptr<ClosFabric> fabric;
    /** Locality of each sent frame, by packet id. A vector, so the
     *  benchmark adds no heap allocation per frame. */
    std::vector<TrafficLocality> locality;
    LatencyHistogram oneway;
    LatencyBreakdown compSum;
    std::uint64_t sent = 0, delivered = 0, forwards = 0;
    /** 1-based ordinal of a TX frame the wire swallows (0: none). */
    std::uint64_t swallow = 0;

    Pair(const char *kind_, NicKind nic) : kind(kind_)
    {
        cfg.nic = nic;
        cfg.eth.switchLatency = nsToTicks(50);
    }

    void
    buildNodes()
    {
        tx = std::make_unique<Node>(eq, std::string(kind) + ".tx", cfg, 0);
        rx = std::make_unique<Node>(eq, std::string(kind) + ".rx", cfg, 1);
    }

    void
    buildFabric()
    {
        fabric = std::make_unique<ClosFabric>(eq, "fabric", cfg.eth);
        fabric->attach(0, tx->endpoint());
        fabric->attach(1, rx->endpoint());
        tx->setWire([this](const PacketPtr &pkt) {
            TrafficLocality loc = pkt->id < locality.size()
                                      ? locality[pkt->id]
                                      : TrafficLocality::IntraCluster;
            if (++forwards == swallow)
                return;
            Span s("ClosFabric::forward", pkt->id);
            fabric->forward(pkt, loc);
        });
        rx->setWire([this](const PacketPtr &pkt) {
            ++forwards;
            Span s("ClosFabric::forward", pkt->id);
            fabric->forward(pkt, TrafficLocality::IntraCluster);
        });
        rx->setReceiveHandler([this](const PacketPtr &pkt, Tick) {
            Span s("rx.deliver", pkt->id);
            ++delivered;
            oneway.sample(pkt->oneWayLatency());
            compSum += pkt->lat;
        });
    }

    void
    schedule(const std::vector<TraceRecord> &trace)
    {
        locality.assign(trace.size() + 1, TrafficLocality::IntraCluster);
        Tick t = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const TraceRecord &rec = trace[i];
            t += rec.interArrival;
            eq.schedule(t, [this, rec, i] {
                PacketPtr pkt = tx->makeTxPacket(rec.bytes, rx->id(),
                                                 1 + (i % 8));
                if (pkt->id >= locality.size())
                    locality.resize(pkt->id + 1);
                locality[pkt->id] = rec.locality;
                ++sent;
                Span s("Node::sendPacket", pkt->id);
                tx->sendPacket(pkt);
            });
        }
    }
};

/** Every memory controller of a node: host channels + NetDIMM nMC. */
std::vector<MemoryController *>
controllers(Node &n)
{
    std::vector<MemoryController *> mcs;
    for (std::uint32_t c = 0; c < n.mem().numChannels(); ++c)
        mcs.push_back(&n.mem().channel(c));
    if (NetDimmDevice *nd = n.netdimm())
        mcs.push_back(&nd->localMc());
    return mcs;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Per-layer counters of both pairs after their replays. */
void
layerCounts(std::array<Pair *, 2> pairs, std::uint64_t frames,
            std::map<std::string, double> &c)
{
    double beats = 0, rowHits = 0, rowMisses = 0, busUtil = 0;
    double readLatWeighted = 0;
    int activeMcs = 0;
    double clones = 0, fpm = 0, cloneFailed = 0;
    double ncHits = 0, ncMisses = 0, ncEvict = 0, prefetches = 0;
    double copyBytes = 0, fastTx = 0, slowTx = 0, cloneFallbacks = 0;
    double llcHits = 0, llcMisses = 0, ddioLeaks = 0;
    double events = 0, slabs = 0, forwards = 0;
    for (Pair *p : pairs) {
        events += double(p->eq.executedEvents());
        slabs += double(p->eq.slabAllocations());
        forwards += double(p->forwards);
        for (Node *n : {p->tx.get(), p->rx.get()}) {
            for (MemoryController *mc : controllers(*n)) {
                double b = double(mc->beatsServiced());
                beats += b;
                rowHits += double(mc->rowHits());
                rowMisses += double(mc->rowMisses());
                readLatWeighted += b * mc->meanReadLatencyNs();
                if (b > 0) {
                    busUtil += mc->busUtilization();
                    ++activeMcs;
                }
            }
            if (NetDimmDevice *nd = n->netdimm()) {
                RowCloneEngine &rc = nd->rowCloneEngine();
                clones += double(rc.fpmClones() + rc.psmClones() +
                                 rc.gcmClones());
                fpm += double(rc.fpmClones());
                cloneFailed += double(rc.failedClones());
                ncHits += double(nd->ncache().hits());
                ncMisses += double(nd->ncache().misses());
                ncEvict += double(nd->ncache().evictions());
                prefetches += double(nd->prefetchesIssued());
            }
            if (auto *drv = dynamic_cast<NetdimmDriver *>(&n->driver())) {
                fastTx += double(drv->fastPathTx());
                slowTx += double(drv->slowPathTx());
                cloneFallbacks += double(drv->cloneFallbacks());
            }
            copyBytes += double(n->copyEngine().bytesCopied());
            llcHits += double(n->llc().hits());
            llcMisses += double(n->llc().misses());
            ddioLeaks += double(n->llc().ddioLeaks());
        }
    }
    double items = double(frames);
    c["sim.events"] = events;
    c["sim.events_per_item"] = ratio(events, items);
    c["sim.slab_allocs"] = slabs;
    c["mem.beats"] = beats;
    c["mem.beats_per_item"] = ratio(beats, items);
    c["mem.row_hit_ratio"] = ratio(rowHits, rowHits + rowMisses);
    c["mem.bus_util"] = ratio(busUtil, activeMcs);
    c["mem.read_lat_ns"] = ratio(readLatWeighted, beats);
    c["mem.rowclone.clones"] = clones;
    c["mem.rowclone.fpm_frac"] = ratio(fpm, clones);
    c["mem.rowclone.failed"] = cloneFailed;
    c["netdimm.ncache.hit_ratio"] = ratio(ncHits, ncHits + ncMisses);
    c["netdimm.ncache.evictions"] = ncEvict;
    c["netdimm.prefetches"] = prefetches;
    c["kernel.copy_bytes_per_item"] = ratio(copyBytes, items);
    c["kernel.fast_tx_frac"] = ratio(fastTx, fastTx + slowTx);
    c["kernel.clone_fallbacks"] = cloneFallbacks;
    c["cache.llc.hit_ratio"] = ratio(llcHits, llcHits + llcMisses);
    c["cache.llc.ddio_leaks"] = ddioLeaks;
    c["net.fabric_frames"] = forwards;
}

} // namespace

double
paperErrorPp(std::map<std::string, double> *counts)
{
    // Fig. 11 (Sec. 5.2): NetDIMM one-way latency reduction against
    // the PCIe dNIC at 64 / 256 / 1024 B.
    static const struct
    {
        std::uint32_t bytes;
        double paperPct;
    } kRef[] = {{64, 46.1}, {256, 52.3}, {1024, 49.6}};
    SystemConfig base;
    double gap = 0.0;
    for (const auto &ref : kRef) {
        PingResult d = LatencyHarness(base, NicKind::Discrete).run(ref.bytes);
        PingResult n = LatencyHarness(base, NicKind::NetDimm).run(ref.bytes);
        double pct = 100.0 * (1.0 - n.totalUs / d.totalUs);
        gap += std::fabs(pct - ref.paperPct);
        if (counts)
            (*counts)["lat.fig11_reduction_pct." +
                      std::to_string(ref.bytes)] = pct;
    }
    return gap / 3.0;
}

IterResult
runReplay(const RunOptions &o)
{
    const int frames = o.size == Size::Tiny ? 200 : 16000;
    IterResult r;
    auto t0 = std::chrono::steady_clock::now();

    std::vector<TraceRecord> trace;
    {
        Span s("setup.tracegen");
        TraceGen gen(ClusterType::Hadoop, kOfferedGbps, o.seed);
        trace.reserve(std::size_t(frames));
        for (int i = 0; i < frames; ++i)
            trace.push_back(gen.next());
    }
    r.genS = secondsSince(t0);

    Pair dnic("dnic", NicKind::Discrete);
    Pair nd("netdimm", NicKind::NetDimm);
    if (o.plantUndelivered)
        dnic.swallow = 3;
    std::array<Pair *, 2> pairs = {&dnic, &nd};
    auto tNodes = std::chrono::steady_clock::now();
    {
        Span s("setup.nodes");
        for (Pair *p : pairs)
            p->buildNodes();
    }
    r.nodeBuildS = secondsSince(tNodes);
    auto tFabric = std::chrono::steady_clock::now();
    {
        Span s("setup.fabric");
        for (Pair *p : pairs)
            p->buildFabric();
    }
    r.fabricBuildS = secondsSince(tFabric);
    {
        Span s("setup.schedule");
        for (Pair *p : pairs)
            p->schedule(trace);
    }
    r.setupS = secondsSince(t0);

    auto tRun = std::chrono::steady_clock::now();
    std::uint64_t allocs0 = heapAllocs();
    for (Pair *p : pairs) {
        Span s("EventQueue::run");
        p->eq.run();
    }
    std::uint64_t allocs = heapAllocs() - allocs0;
    {
        Span s("LatencyHarness::run");
        r.counts["paper_err_pp"] = paperErrorPp(&r.counts);
    }
    r.runS = secondsSince(tRun);

    // -- output checks -----------------------------------------------------
    for (Pair *p : pairs) {
        r.check(p->sent, p->sent - std::min(p->sent, p->delivered),
                std::string(p->kind) + " frames delivered");
        r.check(1, p->sent != std::uint64_t(frames),
                std::string(p->kind) + " all trace frames sent");
    }

    // -- per-layer counts ----------------------------------------------------
    std::uint64_t items = 2 * std::uint64_t(frames);
    layerCounts(pairs, items, r.counts);
    r.allocsPerEvent = ratio(double(allocs), r.counts["sim.events"]);
    for (Pair *p : pairs) {
        double n = double(std::max<std::uint64_t>(p->delivered, 1));
        for (std::size_t c = 0; c < numLatComps; ++c)
            r.counts[std::string("lat.") + p->kind + "." + kCompKey[c] +
                     "_ns"] = ticksToNs(p->compSum.comp[c]) / n;
    }
    r.counts["lat.oneway_p50_us"] = nd.oneway.percentile(0.50) / tickPerUs;
    r.counts["lat.oneway_p99_us"] = nd.oneway.percentile(0.99) / tickPerUs;

    for (Pair *p : pairs)
        r.digest += std::string(p->kind) + ":" + p->oneway.digest() + ";";
    return r;
}

} // namespace perfbench
