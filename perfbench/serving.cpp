/**
 * @file
 * `serving` workload: runServing cells on NetDIMM+handlers at 2 MQPS,
 * 2 KB values, 90 % GET / 10 % PUT, under MemArbPolicy::Fair, with the
 * dependent-load probe co-running. Handler beats and host probe loads
 * share the NetDIMM's local MC, so the class-aware arbiter and the
 * handler stage are both loaded; PUTs put writes beside the reads.
 *
 * One repetition runs several independent cells whose SystemConfig
 * seeds derive from the benchmark seed. Several short cells keep the
 * offered 2 MQPS below the point where a long cell's backlog grows
 * and frames drop, and average out per-seed arrival patterns.
 *
 * The MLC injector is left off: with it, host time is dominated by
 * the local MC's arbitrated service loop and swings several-fold
 * between seeds of identical size (see NOTES.md), which no bound can
 * gate.
 *
 * runServing owns its event queue and nodes, so set-up is measured as
 * a one-request cell of the same configuration (build, a single RPC,
 * teardown), and only the counters in ServingResult are visible.
 */

#include "bench.hh"
#include "sim/Pool.hh"
#include "workload/RpcServingLoad.hh"

using namespace netdimm;

namespace perfbench
{

namespace
{

ServingParams
cellParams(Size size)
{
    ServingParams p;
    p.placement = ServingPlacement::NetDimmHandlers;
    p.qps = 2e6;
    p.valueBytes = 2048;
    p.getFraction = 0.9;
    p.arb = MemArbPolicy::Fair;
    p.probe = true;
    p.requests = size == Size::Tiny ? 200 : 2500;
    p.warmup = size == Size::Tiny ? 20 : 250;
    return p;
}

SystemConfig
cellConfig(std::uint64_t seed, unsigned cell)
{
    SystemConfig cfg;
    cfg.seed = seed * 64 + cell;
    return cfg;
}

} // namespace

IterResult
runServingCell(const RunOptions &o)
{
    const unsigned cells = o.size == Size::Tiny ? 2 : 12;
    IterResult r;

    auto t0 = std::chrono::steady_clock::now();
    {
        Span s("setup.one_request_cell");
        ServingParams one = cellParams(o.size);
        one.requests = 1;
        one.warmup = 0;
        ServingResult warm = runServing(cellConfig(o.seed, 0), one);
        r.check(warm.sent, warm.sent - warm.completed,
                "serving set-up cell RPCs completed");
    }
    drainObjectPools();
    r.setupS = secondsSince(t0);
    r.nodeBuildS = r.setupS;

    ServingParams p = cellParams(o.size);
    auto pooled = [] {
        PoolStats s = objectPoolTotals();
        return s.heapAllocs + s.reuses;
    };
    LatencyHistogram rtt;
    std::uint64_t sent = 0, completed = 0, lost = 0, abandoned = 0;
    std::uint64_t handlerServed = 0, overflows = 0, probes = 0;
    double busFrac = 0, probeNs = 0;
    bool ledgerClosed = true;
    auto tRun = std::chrono::steady_clock::now();
    std::uint64_t pools0 = pooled();
    for (unsigned cell = 0; cell < cells; ++cell) {
        ServingResult res;
        {
            Span s("runServing", cell);
            res = runServing(cellConfig(o.seed, cell), p);
        }
        rtt.merge(res.rtt);
        sent += res.sent;
        completed += res.completed;
        lost += res.lost;
        abandoned += res.abandoned;
        handlerServed += res.handlerServed;
        overflows += res.handlerOverflows;
        probes += res.probeAccesses;
        busFrac += res.handlerBusFraction / cells;
        probeNs += res.probeMeanNs / cells;
        ledgerClosed = ledgerClosed && res.ledgerClosed;
    }
    r.runS = secondsSince(tRun);
    std::uint64_t pooledObjects = pooled() - pools0;

    // lost == sent - completed, abandoned RPCs included.
    r.check(sent, lost,
            "serving RPCs completed (" + std::to_string(abandoned) +
                " abandoned)");
    r.check(1, !ledgerClosed, "serving fault ledgers closed");
    r.check(1, sent != cells * (p.requests + p.warmup),
            "serving all requests offered");

    auto &c = r.counts;
    c["handler.served_frac"] =
        double(handlerServed) / double(std::max<std::uint64_t>(completed, 1));
    c["handler.overflows"] = double(overflows);
    c["mem.handler_bus_frac"] = busFrac;
    c["lat.rpc_p50_us"] = rtt.percentile(0.50) / tickPerUs;
    c["lat.rpc_p99_us"] = rtt.percentile(0.99) / tickPerUs;
    c["lat.probe_ns"] = probeNs;
    c["serving.pooled_objects"] = double(pooledObjects);
    r.digest = "serving:" + rtt.digest() + ";sent=" + std::to_string(sent) +
               ";completed=" + std::to_string(completed) +
               ";probe=" + std::to_string(probes) +
               ";handler=" + std::to_string(handlerServed) + ";";
    return r;
}

} // namespace perfbench
