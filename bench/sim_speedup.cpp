/**
 * @file
 * Simulator-core throughput harness (events/second), the regression
 * gate for the DES fast path.
 *
 * Three phases, each deterministic at fixed seeds:
 *
 *  - replay: a fig12a-style datacenter trace replay (Database
 *    cluster, 50 ns switches, all three NIC kinds over the clos
 *    fabric). The headline events/sec number; the mean latencies are
 *    printed as a determinism witness and must not change when the
 *    core is optimized.
 *  - churn:  a transport-like schedule/deschedule storm (every
 *    payload event arms a timeout that is cancelled before it fires),
 *    isolating scheduler + cancellation cost from the device models.
 *  - pool:   Packet/MemRequest factory churn, isolating the object
 *    allocation path.
 *  - campaign: a fault-campaign-style grid of independent simulation
 *    cells run twice on the parallel sweep harness — once on one
 *    worker, once on `--jobs N` workers (default: hardware
 *    concurrency) — reporting cells/sec and the parallel speedup.
 *    The summed witness latency must match between the two runs
 *    (jobs-invariance); on a >=4-core machine the speedup gates at
 *    3x.
 *
 * The binary overrides global operator new/delete to count heap
 * allocations inside the measured regions; `churn`/`pool` report
 * allocations per item, which must drop to ~0 in steady state with
 * the pooled core (see EXPERIMENTS.md).
 *
 * Output: a human table on stdout plus BENCH_simcore.json
 * (`--out FILE`) with events/sec, wall seconds, allocation counts
 * and peak RSS. With `--baseline FILE` the harness compares its
 * replay and churn events/sec against the committed baseline and
 * exits nonzero on a regression beyond `--tolerance` (default 0.20),
 * which is how CI gates simulator-core performance.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <new>
#include <vector>

#include "harness/BenchGate.hh"
#include "net/Link.hh"
#include "net/Switch.hh"
#include "workload/TraceGen.hh"
#include "kernel/Node.hh"

// ---------------------------------------------------------------------
// Allocation counting: every heap allocation made by this binary goes
// through these overrides. The counter lets the harness report
// allocations per event/object in the measured regions.
// ---------------------------------------------------------------------

namespace
{
std::atomic<std::uint64_t> g_heapAllocs{0};
}

void *
operator new(std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    ++g_heapAllocs;
    std::size_t a = static_cast<std::size_t>(al);
    std::size_t rounded = (n + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace netdimm;

namespace
{

struct PhaseResult
{
    std::uint64_t items = 0;   ///< packets / rounds / objects
    std::uint64_t events = 0;  ///< simulator events dispatched
    std::uint64_t allocs = 0;  ///< heap allocations in the region
    double wallS = 0.0;
    double
    eventsPerSec() const
    {
        return wallS > 0 ? double(events) / wallS : 0.0;
    }
};

// -- replay phase -----------------------------------------------------

/**
 * fig12a-style raw-frame replay of one cluster trace over the clos
 * fabric; returns the mean one-way latency (determinism witness) and
 * accumulates events/wall into @p out.
 */
double
replayOnce(NicKind kind, int npackets, PhaseResult &out)
{
    SystemConfig cfg;
    cfg.nic = kind;
    cfg.eth.switchLatency = nsToTicks(50);

    EventQueue eq;
    Node tx(eq, "tx", cfg, 0);
    Node rx(eq, "rx", cfg, 1);
    ClosFabric fabric(eq, "fabric", cfg.eth);
    fabric.attach(0, tx.endpoint());
    fabric.attach(1, rx.endpoint());

    std::map<std::uint64_t, TrafficLocality> locality;
    tx.setWire([&](const PacketPtr &pkt) {
        auto it = locality.find(pkt->id);
        TrafficLocality loc = it != locality.end()
                                  ? it->second
                                  : TrafficLocality::IntraCluster;
        if (it != locality.end())
            locality.erase(it);
        fabric.forward(pkt, loc);
    });
    rx.setWire([&](const PacketPtr &pkt) {
        fabric.forward(pkt, TrafficLocality::IntraCluster);
    });

    double sum_us = 0.0;
    int measured = 0;
    rx.setReceiveHandler([&](const PacketPtr &pkt, Tick) {
        sum_us += ticksToUs(pkt->oneWayLatency());
        ++measured;
    });

    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t allocs0 = g_heapAllocs.load();

    TraceGen gen(ClusterType::Database, 5.0, 12345);
    Tick t = 0;
    for (int i = 0; i < npackets; ++i) {
        TraceRecord rec = gen.next();
        t += rec.interArrival;
        eq.schedule(t, [&tx, &rx, &locality, rec, i] {
            PacketPtr pkt = tx.makeTxPacket(rec.bytes, rx.id(),
                                            1 + (i % 8));
            locality[pkt->id] = rec.locality;
            tx.sendPacket(pkt);
        });
    }
    eq.run();

    out.items += std::uint64_t(npackets);
    out.events += eq.executedEvents();
    out.allocs += g_heapAllocs.load() - allocs0;
    out.wallS += wallSeconds(t0);
    return measured ? sum_us / measured : 0.0;
}

// -- churn phase ------------------------------------------------------

/**
 * A transport-like flow: every round schedules a payload event plus a
 * timeout, and the payload cancels the timeout (go-back-N RTO
 * arm/cancel pattern). Exercises schedule, deschedule and dispatch
 * with nothing else in the loop.
 */
struct ChurnFlow
{
    EventQueue &eq;
    std::uint64_t rounds;
    std::uint64_t rtoHandle = 0;
    std::uint64_t *deschedules;

    void
    kick()
    {
        if (rounds-- == 0)
            return;
        rtoHandle = eq.scheduleRel(1000, [] {},
                                   EventPriority::Maintenance);
        eq.scheduleRel(7, [this] {
            eq.deschedule(rtoHandle);
            ++*deschedules;
            kick();
        });
    }
};

PhaseResult
runChurn(std::uint64_t flows, std::uint64_t roundsPerFlow)
{
    PhaseResult out;
    EventQueue eq;
    std::uint64_t deschedules = 0;
    std::deque<ChurnFlow> pool;
    // Warm the slab/free-list pools so the measured region is steady
    // state (the first rounds grow the pools once).
    for (std::uint64_t f = 0; f < flows; ++f) {
        pool.push_back(ChurnFlow{eq, 4, 0, &deschedules});
        pool.back().kick();
    }
    eq.run();

    std::uint64_t warmupEvents = eq.executedEvents();
    deschedules = 0;
    pool.clear();

    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t allocs0 = g_heapAllocs.load();
    for (std::uint64_t f = 0; f < flows; ++f) {
        pool.push_back(ChurnFlow{eq, roundsPerFlow, 0, &deschedules});
        pool.back().kick();
    }
    eq.run();
    out.wallS = wallSeconds(t0);
    out.allocs = g_heapAllocs.load() - allocs0;
    out.events = eq.executedEvents() - warmupEvents;
    out.items = deschedules;
    return out;
}

// -- pool phase -------------------------------------------------------

PhaseResult
runPool(std::uint64_t objects)
{
    PhaseResult out;
    // Warm the recycling pools.
    for (int i = 0; i < 64; ++i) {
        auto p = makePacket(1460, 0, 1);
        auto r = makeMemRequest(Addr(i) * 64, 64, false,
                                MemSource::HostCpu, nullptr);
    }

    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t allocs0 = g_heapAllocs.load();
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < objects; ++i) {
        auto p = makePacket(1460, 0, 1);
        auto r = makeMemRequest(Addr(i) * 64, 64, false,
                                MemSource::HostCpu, nullptr);
        sink += p->id + r->addr;
    }
    out.wallS = wallSeconds(t0);
    out.allocs = g_heapAllocs.load() - allocs0;
    out.items = objects * 2;
    out.events = out.items; // objects stand in for events here
    if (sink == 0)
        std::printf("(unreachable sink)\n");
    return out;
}

// -- campaign phase ---------------------------------------------------

/**
 * One independent campaign cell: a two-node link simulation pushing a
 * paced MTU train at the given offered load. Deterministic given
 * (kind, offered, npackets); returns the mean one-way latency as the
 * cell's witness value.
 */
double
campaignCell(NicKind kind, double offered_gbps, int npackets)
{
    SystemConfig cfg;
    cfg.nic = kind;

    EventQueue eq;
    Node tx(eq, "tx", cfg, 0);
    Node rx(eq, "rx", cfg, 1);
    EthLink link(eq, "link", cfg.eth);
    link.connect(tx.endpoint(), rx.endpoint());
    tx.connectTo(link);
    rx.connectTo(link);

    double sum_us = 0.0;
    int measured = 0;
    rx.setReceiveHandler([&](const PacketPtr &pkt, Tick) {
        sum_us += ticksToUs(pkt->oneWayLatency());
        ++measured;
    });

    Random rng(321);
    Tick t = 0;
    double mean_gap_ns = 1460.0 * 8.0 / offered_gbps;
    for (int i = 0; i < npackets; ++i) {
        t += Tick(rng.exponential(mean_gap_ns) * double(tickPerNs));
        eq.schedule(t, [&tx, &rx, i] {
            tx.sendPacket(tx.makeTxPacket(1460, rx.id(), 1 + (i % 8)));
        });
    }
    eq.run();
    return measured ? sum_us / measured : 0.0;
}

struct CampaignResult
{
    std::uint64_t cells = 0;
    unsigned jobs = 1;
    double wallSeq = 0.0;
    double wallPar = 0.0;
    double witnessSeq = 0.0; ///< summed cell means, sequential run
    double witnessPar = 0.0; ///< summed cell means, parallel run

    double
    speedup() const
    {
        return wallPar > 0 ? wallSeq / wallPar : 0.0;
    }
    double
    cellsPerSec() const
    {
        return wallPar > 0 ? double(cells) / wallPar : 0.0;
    }
};

/**
 * The same fault-campaign-shaped grid (NIC kind x offered load, every
 * cell an independent simulation) executed on one worker and then on
 * @p jobs workers. Cells/sec comes from the parallel run; the
 * sequential run provides the speedup denominator and the
 * jobs-invariance witness.
 */
CampaignResult
runCampaign(unsigned jobs, int npackets)
{
    const std::vector<double> loads = {2, 6, 10, 14, 18, 22, 26, 30};
    const std::vector<NicKind> kinds = {
        NicKind::Discrete, NicKind::Integrated, NicKind::NetDimm};

    auto grid = [&] {
        std::vector<SweepCell<double>> cells;
        cells.reserve(kinds.size() * loads.size());
        for (NicKind kind : kinds) {
            for (double g : loads) {
                char label[48];
                std::snprintf(label, sizeof(label), "%s %.0fGbps",
                              nicKindName(kind), g);
                cells.push_back({label, [kind, g, npackets] {
                                     return campaignCell(kind, g,
                                                         npackets);
                                 }});
            }
        }
        return cells;
    };

    CampaignResult r;
    r.cells = kinds.size() * loads.size();
    r.jobs = jobs;

    {
        SweepRunner seq(1);
        auto t0 = std::chrono::steady_clock::now();
        std::vector<double> res = seq.run(grid());
        r.wallSeq = wallSeconds(t0);
        for (double v : res)
            r.witnessSeq += v;
    }
    {
        SweepRunner par(jobs);
        auto t0 = std::chrono::steady_clock::now();
        std::vector<double> res = par.run(grid());
        r.wallPar = wallSeconds(t0);
        for (double v : res)
            r.witnessPar += v;
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const GateCli cli = parseGateCli(argc, argv, "BENCH_simcore.json");
    const bool shortMode = cli.sweep.shortMode;
    const unsigned jobs = cli.sweep.jobs;

    const int npackets = shortMode ? 6000 : 40000;
    const std::uint64_t churnFlows = 64;
    const std::uint64_t churnRounds = shortMode ? 4000 : 20000;
    const std::uint64_t poolObjects = shortMode ? 200000 : 2000000;

    std::printf("=== simulator-core speed harness (%s mode) ===\n",
                shortMode ? "short" : "full");

    PhaseResult replay;
    double lat_dnic = replayOnce(NicKind::Discrete, npackets, replay);
    double lat_inic = replayOnce(NicKind::Integrated, npackets,
                                 replay);
    double lat_nd = replayOnce(NicKind::NetDimm, npackets, replay);
    std::printf("replay  : %llu packets, %llu events, %.3fs, "
                "%.3g ev/s, %.2f allocs/ev\n",
                (unsigned long long)replay.items,
                (unsigned long long)replay.events, replay.wallS,
                replay.eventsPerSec(),
                double(replay.allocs) / double(replay.events));
    std::printf("  witness mean latency (us): dNIC %.4f  iNIC %.4f  "
                "NetDIMM %.4f\n",
                lat_dnic, lat_inic, lat_nd);

    PhaseResult churn = runChurn(churnFlows, churnRounds);
    std::printf("churn   : %llu cancels, %llu events, %.3fs, "
                "%.3g ev/s, %.4f allocs/ev\n",
                (unsigned long long)churn.items,
                (unsigned long long)churn.events, churn.wallS,
                churn.eventsPerSec(),
                double(churn.allocs) / double(churn.events));

    PhaseResult pool = runPool(poolObjects);
    std::printf("pool    : %llu objects, %.3fs, %.3g obj/s, "
                "%.4f allocs/obj\n",
                (unsigned long long)pool.items, pool.wallS,
                pool.eventsPerSec(),
                double(pool.allocs) / double(pool.items));

    const int campPackets = shortMode ? 1200 : 4000;
    CampaignResult camp = runCampaign(jobs, campPackets);
    std::printf("campaign: %llu cells, jobs %u, seq %.3fs, par %.3fs, "
                "%.2fx speedup, %.3g cells/s\n",
                (unsigned long long)camp.cells, camp.jobs,
                camp.wallSeq, camp.wallPar, camp.speedup(),
                camp.cellsPerSec());
    if (camp.witnessSeq != camp.witnessPar) {
        std::fprintf(stderr,
                     "FAIL: campaign witness diverged between jobs=1 "
                     "and jobs=%u (%.9g vs %.9g) -- cells are not "
                     "isolated\n",
                     camp.jobs, camp.witnessSeq, camp.witnessPar);
        return 1;
    }
    std::printf("  witness sum latency (us): %.4f (jobs-invariant)\n",
                camp.witnessSeq);

    long rssKb = peakRssKb();
    std::printf("peak RSS: %ld KB\n", rssKb);

    FILE *out = std::fopen(cli.outPath.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", cli.outPath.c_str());
        return 2;
    }
    std::fprintf(
        out,
        "{\n"
        "  \"schema\": 1,\n"
        "  \"mode\": \"%s\",\n"
        "  \"replay_events_per_sec\": %.6g,\n"
        "  \"churn_events_per_sec\": %.6g,\n"
        "  \"pool_objects_per_sec\": %.6g,\n"
        "  \"replay\": {\"packets\": %llu, \"events\": %llu, "
        "\"wall_s\": %.6g, \"allocs\": %llu,\n"
        "             \"witness_latency_us\": {\"dnic\": %.6g, "
        "\"inic\": %.6g, \"netdimm\": %.6g}},\n"
        "  \"churn\": {\"cancels\": %llu, \"events\": %llu, "
        "\"wall_s\": %.6g, \"allocs\": %llu},\n"
        "  \"pool\": {\"objects\": %llu, \"wall_s\": %.6g, "
        "\"allocs\": %llu},\n"
        "  \"campaign_cells_per_sec\": %.6g,\n"
        "  \"campaign_speedup\": %.6g,\n"
        "  \"campaign\": {\"cells\": %llu, \"jobs\": %u, "
        "\"wall_s_seq\": %.6g, \"wall_s_par\": %.6g,\n"
        "               \"witness_sum_latency_us\": %.6g},\n"
        "  \"peak_rss_kb\": %ld\n"
        "}\n",
        shortMode ? "short" : "full", replay.eventsPerSec(),
        churn.eventsPerSec(), pool.eventsPerSec(),
        (unsigned long long)replay.items,
        (unsigned long long)replay.events, replay.wallS,
        (unsigned long long)replay.allocs, lat_dnic, lat_inic, lat_nd,
        (unsigned long long)churn.items,
        (unsigned long long)churn.events, churn.wallS,
        (unsigned long long)churn.allocs,
        (unsigned long long)pool.items, pool.wallS,
        (unsigned long long)pool.allocs, camp.cellsPerSec(),
        camp.speedup(), (unsigned long long)camp.cells, camp.jobs,
        camp.wallSeq, camp.wallPar, camp.witnessSeq, rssKb);
    std::fclose(out);
    std::printf("wrote %s\n", cli.outPath.c_str());

    if (!cli.baselinePath.empty()) {
        if (int rc = checkBaseline(
                cli.baselinePath, cli.tolerance,
                {{"replay_events_per_sec", replay.eventsPerSec()},
                 {"churn_events_per_sec", churn.eventsPerSec()},
                 {"campaign_cells_per_sec", camp.cellsPerSec()}}))
            return rc;
    }

    // Hard floor, independent of any baseline file: on a machine with
    // at least four workers the parallel campaign must beat the
    // sequential run by 3x. Not applied below four jobs (a 1-core
    // runner can only ever reach ~1x).
    if (camp.jobs >= 4 && camp.speedup() < 3.0) {
        std::fprintf(stderr,
                     "FAIL: campaign speedup %.2fx at %u jobs is "
                     "below the 3.0x floor\n",
                     camp.speedup(), camp.jobs);
        return 1;
    }
    return 0;
}
