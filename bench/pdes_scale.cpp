/**
 * @file
 * Pod-sharded PDES scaling harness (DESIGN.md §16): one 4-pod,
 * 1024-node leaf-spine fabric replaying a synthesized cluster trace
 * (2M+ flows in full mode), executed at 1/2/4 shards.
 *
 * Two phases:
 *
 *  - identity: the deterministic-merge run's merged result — latency
 *    histogram digest, frame counters, executed-event total — must be
 *    byte-identical at every shard count (shards=1 IS the
 *    single-threaded run, so this pins the sharded decomposition to
 *    the monolithic semantics). The trace is fixed, so identity is a
 *    deterministic property, not a statistical one.
 *  - scaling: free-running mode at 1/2/4 shards, reporting aggregate
 *    events/sec and parallel efficiency; free-run results must also
 *    be byte-identical to each other (the conservative pump rule
 *    makes thread interleaving invisible).
 *
 * Output: human table on stdout plus BENCH_pdes.json (`--out FILE`).
 * `--baseline FILE` compares the 1-shard events/sec against the
 * committed bench/BENCH_simcore.json keys within `--tolerance`. On a
 * machine with >= 4 hardware threads the 4-shard speedup gates at a
 * hard 2.5x floor.
 *
 * `--det` prints ONLY the canonical deterministic-merge table to
 * stdout (diagnostics go to stderr); combined with `--shards N` this
 * is what CI byte-diffs across shard counts.
 *
 * The trace is engineered so byte-identity is exact rather than
 * probabilistic-by-luck: one fixed frame size and globally unique
 * born ticks (per-node jitter slots partition each inter-arrival gap)
 * keep same-tick arrival collisions at shared egress queues out of
 * the schedule, so no cross-shard merge-order ambiguity can surface
 * in the results (see DESIGN.md §16 for the caveat this sidesteps).
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/BenchGate.hh"
#include "harness/LatencyHistogram.hh"
#include "net/Topology.hh"
#include "sim/Logging.hh"
#include "workload/TraceGen.hh"

using namespace netdimm;

namespace
{

/** Trace shape shared by every run: the pod fabric plus the
 *  node-striped synthetic trace (workload/TraceGen.hh). */
struct TraceParams
{
    PodFabricSpec spec;
    StripedTraceSpec trace;

    Tick horizon() const { return trace.horizon(); }
    std::uint64_t flows() const { return trace.flows(); }
};

/**
 * One traffic endpoint: an event chain sends framesPerNode frames at
 * the spec's jittered, globally-unique born ticks; deliveries land
 * in the shard's histogram.
 */
struct TraceNode : NetEndpoint
{
    EventQueue &eq;
    const TraceParams &tp;
    std::uint32_t id;
    EthLink *access = nullptr;
    LatencyHistogram *hist = nullptr;
    std::uint64_t *sent = nullptr;
    std::uint64_t *rcvd = nullptr;

    TraceNode(EventQueue &eq_, const TraceParams &tp_,
              std::uint32_t id_)
        : eq(eq_), tp(tp_), id(id_)
    {
    }

    void
    start()
    {
        if (tp.trace.framesPerNode > 0)
            eq.schedule(tp.trace.bornTick(id, 0),
                        [this] { fire(0); });
    }

    void
    fire(std::uint32_t i)
    {
        std::uint32_t dst = tp.trace.dstOf(id, i);
        PacketPtr pkt = makePacket(eq, tp.trace.bytes, id, dst);
        pkt->flowId = tp.trace.flowIdOf(id, i);
        pkt->born = eq.curTick();
        ++*sent;
        access->send(this, pkt);
        if (i + 1 < tp.trace.framesPerNode)
            eq.schedule(tp.trace.bornTick(id, i + 1),
                        [this, i] { fire(i + 1); });
    }

    void
    deliver(const PacketPtr &pkt) override
    {
        hist->sample(eq.curTick() - pkt->born);
        ++*rcvd;
    }
};

/** Everything one shard builds; destroyed on the shard's thread. */
struct ShardCtx
{
    std::unique_ptr<PodFabricShard> fabric;
    std::vector<std::unique_ptr<TraceNode>> nodes;
    LatencyHistogram hist;
    std::uint64_t sent = 0;
    std::uint64_t rcvd = 0;
};

/** Shard-count-invariant result slice extracted by atEnd. */
struct ShardOutcome
{
    LatencyHistogram hist;
    std::uint64_t sent = 0;
    std::uint64_t rcvd = 0;
    std::uint64_t fabric = 0;
    std::uint64_t exported = 0;
};

struct RunResult
{
    LatencyHistogram hist;
    std::uint64_t sent = 0;
    std::uint64_t rcvd = 0;
    std::uint64_t fabric = 0;
    std::uint64_t exported = 0;
    std::uint64_t executed = 0;
    std::uint64_t quanta = 0;
    std::uint64_t pumped = 0;
    double wallS = 0.0;

    double
    eventsPerSec() const
    {
        return wallS > 0 ? double(executed) / wallS : 0.0;
    }
};

RunResult
runTrace(const TraceParams &tp, unsigned shards,
         ParallelSim::Mode mode)
{
    ParallelSim sim(shards, tp.spec.lookahead(), mode);
    std::vector<ShardOutcome> outcomes(shards);

    auto t0 = std::chrono::steady_clock::now();
    sim.run(tp.horizon(), [&tp, &outcomes](ShardHost &host) {
        auto ctx = std::make_shared<ShardCtx>();
        ctx->fabric = std::make_unique<PodFabricShard>(
            host, "fab", tp.spec);
        for (std::uint32_t n = 0; n < tp.spec.totalNodes(); ++n) {
            if (!ctx->fabric->ownsNode(n))
                continue;
            auto node = std::make_unique<TraceNode>(host.eventq(),
                                                    tp, n);
            node->access = &ctx->fabric->attach(n, node.get());
            node->hist = &ctx->hist;
            node->sent = &ctx->sent;
            node->rcvd = &ctx->rcvd;
            node->start();
            ctx->nodes.push_back(std::move(node));
        }
        ShardOutcome *out = &outcomes[host.shardId()];
        host.atEnd([ctx, out] {
            out->hist = ctx->hist;
            out->sent = ctx->sent;
            out->rcvd = ctx->rcvd;
            out->fabric = ctx->fabric->fabricFrames();
            out->exported = ctx->fabric->framesExported();
        });
        host.hold(std::move(ctx));
    });

    RunResult r;
    r.wallS = wallSeconds(t0);
    // Merge in shard order (LatencyHistogram::merge is
    // order-independent anyway; the property test pins that).
    for (const ShardOutcome &o : outcomes) {
        r.hist.merge(o.hist);
        r.sent += o.sent;
        r.rcvd += o.rcvd;
        r.fabric += o.fabric;
        r.exported += o.exported;
    }
    for (const ShardRunStats &s : sim.shardStats()) {
        r.executed += s.executed;
        r.quanta += s.quanta;
        r.pumped += s.pumped;
    }
    return r;
}

/** The canonical shard-count-invariant table the CI job byte-diffs. */
std::string
canonicalTable(const TraceParams &tp, const RunResult &r)
{
    char buf[512];
    std::string s;
    std::snprintf(buf, sizeof(buf),
                  "pdes-trace nodes=%u flows=%llu frame_bytes=%u "
                  "quantum=%llu\n",
                  tp.spec.totalNodes(),
                  (unsigned long long)tp.flows(), tp.trace.bytes,
                  (unsigned long long)tp.spec.lookahead());
    s += buf;
    std::snprintf(buf, sizeof(buf),
                  "sent=%llu rcvd=%llu fabric_frames=%llu "
                  "executed=%llu\n",
                  (unsigned long long)r.sent,
                  (unsigned long long)r.rcvd,
                  (unsigned long long)r.fabric,
                  (unsigned long long)r.executed);
    s += buf;
    std::snprintf(buf, sizeof(buf),
                  "lat_ns p50=%.3f p99=%.3f mean=%.6f max=%llu\n",
                  ticksToNs(Tick(r.hist.percentile(0.50))),
                  ticksToNs(Tick(r.hist.percentile(0.99))),
                  r.hist.mean() / double(tickPerNs),
                  (unsigned long long)r.hist.maxValue());
    s += buf;
    s += "digest=" + r.hist.digest() + "\n";
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const GateCli gate =
        parseGateCli(argc, argv, "BENCH_pdes.json", {"--det", "--shards"});
    const SweepCli &cli = gate.sweep;
    // --det is the one valueless allowlisted flag.
    const bool detOnly = !cli.rest.empty();

    TraceParams tp;
    tp.spec.pods = 4;
    tp.spec.leavesPerPod = 4;
    tp.spec.spines = 8;
    tp.spec.nodesPerLeaf = 64;
    // Lossless fabric: identity needs sent == rcvd, not tail drops.
    tp.spec.eth.switchQueueFrames = 0;
    tp.spec.eth.ecnThresholdFrames = 0;
    tp.trace.nodes = tp.spec.totalNodes();

    std::vector<unsigned> shardCounts =
        cli.shards ? std::vector<unsigned>{cli.shards}
                   : std::vector<unsigned>{1, 2, 4};

    // -- identity phase (deterministic merge) -------------------------
    tp.trace.framesPerNode = cli.shortMode ? 40 : 100;
    if (detOnly) {
        // Canonical table only; run at each requested shard count and
        // print each table to stdout (identical tables, so the diff
        // against another shard count is empty).
        for (unsigned s : shardCounts) {
            std::fprintf(stderr, "det-merge at %u shard(s)...\n", s);
            RunResult r = runTrace(
                tp, s, ParallelSim::Mode::DeterministicMerge);
            std::fputs(canonicalTable(tp, r).c_str(), stdout);
        }
        return 0;
    }

    std::printf("=== pdes_scale (%s mode): %u nodes, %u pods ===\n",
                cli.shortMode ? "short" : "full",
                tp.spec.totalNodes(), tp.spec.pods);

    std::string detTable;
    for (unsigned s : shardCounts) {
        RunResult r =
            runTrace(tp, s, ParallelSim::Mode::DeterministicMerge);
        std::string table = canonicalTable(tp, r);
        std::printf("identity: det-merge shards=%u  executed=%llu  "
                    "pumped=%llu  rcvd=%llu/%llu\n",
                    s, (unsigned long long)r.executed,
                    (unsigned long long)r.pumped,
                    (unsigned long long)r.rcvd,
                    (unsigned long long)r.sent);
        if (r.rcvd != r.sent) {
            std::fprintf(stderr,
                         "FAIL: det-merge shards=%u lost frames "
                         "(%llu sent, %llu received)\n",
                         s, (unsigned long long)r.sent,
                         (unsigned long long)r.rcvd);
            return 1;
        }
        if (detTable.empty()) {
            detTable = table;
        } else if (table != detTable) {
            std::fprintf(stderr,
                         "FAIL: det-merge result at shards=%u "
                         "diverged from shards=%u\n-- expected --\n"
                         "%s-- got --\n%s",
                         s, shardCounts[0], detTable.c_str(),
                         table.c_str());
            return 1;
        }
    }
    std::printf("identity: deterministic merge byte-identical across "
                "{");
    for (std::size_t i = 0; i < shardCounts.size(); ++i)
        std::printf("%s%u", i ? "," : "", shardCounts[i]);
    std::printf("} shards\n");

    // -- scaling phase (free-running) ---------------------------------
    tp.trace.framesPerNode = cli.shortMode ? 250 : 2000;
    std::string freeTable;
    std::vector<RunResult> perf;
    for (unsigned s : shardCounts) {
        RunResult r = runTrace(tp, s, ParallelSim::Mode::FreeRun);
        std::printf("scaling : free-run shards=%u  %llu events  "
                    "%.3fs  %.3g ev/s  (%llu flows, %llu quanta)\n",
                    s, (unsigned long long)r.executed, r.wallS,
                    r.eventsPerSec(), (unsigned long long)tp.flows(),
                    (unsigned long long)r.quanta);
        if (r.rcvd != r.sent) {
            std::fprintf(stderr,
                         "FAIL: free-run shards=%u lost frames "
                         "(%llu sent, %llu received)\n",
                         s, (unsigned long long)r.sent,
                         (unsigned long long)r.rcvd);
            return 1;
        }
        std::string table = canonicalTable(tp, r);
        if (freeTable.empty()) {
            freeTable = table;
        } else if (table != freeTable) {
            std::fprintf(stderr,
                         "FAIL: free-run result at shards=%u "
                         "diverged -- thread interleaving leaked "
                         "into the simulation\n",
                         s);
            return 1;
        }
        perf.push_back(std::move(r));
    }

    double evps1 = perf.front().eventsPerSec();
    double evpsN = perf.back().eventsPerSec();
    unsigned shardsN = shardCounts.back();
    double speedup = evps1 > 0 ? evpsN / evps1 : 0.0;
    double efficiency = shardsN ? speedup / double(shardsN) : 0.0;
    std::printf("scaling : speedup %.2fx at %u shards "
                "(efficiency %.0f%%)\n",
                speedup, shardsN, efficiency * 100.0);

    long rssKb = peakRssKb();
    std::printf("peak RSS: %ld KB\n", rssKb);

    FILE *out = std::fopen(gate.outPath.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", gate.outPath.c_str());
        return 2;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"schema\": 1,\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"pdes_nodes\": %u,\n"
                 "  \"pdes_flows\": %llu,\n"
                 "  \"pdes_quantum_ticks\": %llu,\n",
                 cli.shortMode ? "short" : "full",
                 tp.spec.totalNodes(),
                 (unsigned long long)tp.flows(),
                 (unsigned long long)tp.spec.lookahead());
    for (std::size_t i = 0; i < perf.size(); ++i) {
        std::fprintf(out,
                     "  \"pdes_events_per_sec_shards%u\": %.6g,\n"
                     "  \"pdes_shards%u\": {\"events\": %llu, "
                     "\"quanta\": %llu, \"pumped\": %llu, "
                     "\"wall_s\": %.6g},\n",
                     shardCounts[i], perf[i].eventsPerSec(),
                     shardCounts[i],
                     (unsigned long long)perf[i].executed,
                     (unsigned long long)perf[i].quanta,
                     (unsigned long long)perf[i].pumped,
                     perf[i].wallS);
    }
    std::fprintf(out,
                 "  \"pdes_speedup_shards%u\": %.6g,\n"
                 "  \"pdes_efficiency_shards%u\": %.6g,\n"
                 "  \"peak_rss_kb\": %ld\n"
                 "}\n",
                 shardsN, speedup, shardsN, efficiency, rssKb);
    std::fclose(out);
    std::printf("wrote %s\n", gate.outPath.c_str());

    if (!gate.baselinePath.empty()) {
        if (int rc = checkBaseline(gate.baselinePath, gate.tolerance,
                                   {{"pdes_events_per_sec_shards1",
                                     evps1}}))
            return rc;
    }

    // Hard floor, independent of any baseline file: with 4 shards on
    // a machine with at least 4 hardware threads, free-running must
    // beat 1-shard by 2.5x. Not applied on smaller machines (a 1-core
    // box can only ever reach ~1x).
    unsigned hc = std::thread::hardware_concurrency();
    if (shardsN >= 4 && hc >= 4 && speedup < 2.5) {
        std::fprintf(stderr,
                     "FAIL: PDES speedup %.2fx at %u shards is below "
                     "the 2.5x floor (hardware threads: %u)\n",
                     speedup, shardsN, hc);
        return 1;
    }
    return 0;
}
