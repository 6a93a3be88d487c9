/**
 * @file
 * `pdes` workload: the 1024-node, 4-pod, 8-spine PodFabricShard
 * fabric replaying the node-striped fixed-size trace at 4 shards in
 * FreeRun mode. Almost all of its work is the shard channel, the
 * quantum barrier and the switches; there is no memory system.
 *
 * The seed picks a node relabeling: node n sends the frames that
 * node perm^-1(n) sends in the unseeded trace, to perm(dst). Born
 * ticks stay node n's own slots, so they remain globally unique and
 * same-tick egress collisions stay impossible (DESIGN.md §16).
 *
 * The traffic node and shard builder follow bench/pdes_scale.cpp's,
 * plus the relabeling and the spans.
 */

#include <algorithm>
#include <thread>

#include "bench.hh"
#include "harness/LatencyHistogram.hh"
#include "net/Topology.hh"
#include "sim/ParallelSim.hh"
#include "workload/TraceGen.hh"

using namespace netdimm;

namespace perfbench
{

namespace
{

constexpr unsigned kShards = 4;

struct Input
{
    PodFabricSpec spec;
    StripedTraceSpec trace;
    std::vector<std::uint32_t> perm, inv;
};

struct TraceNode : NetEndpoint
{
    EventQueue &eq;
    const Input &in;
    std::uint32_t id;
    EthLink *access = nullptr;
    LatencyHistogram *hist = nullptr;
    std::uint64_t *sent = nullptr;
    std::uint64_t *rcvd = nullptr;

    TraceNode(EventQueue &eq_, const Input &in_, std::uint32_t id_)
        : eq(eq_), in(in_), id(id_)
    {
    }

    void
    start()
    {
        if (in.trace.framesPerNode > 0)
            eq.schedule(in.trace.bornTick(id, 0), [this] { fire(0); });
    }

    void
    fire(std::uint32_t i)
    {
        std::uint32_t dst = in.perm[in.trace.dstOf(in.inv[id], i)];
        PacketPtr pkt = makePacket(eq, in.trace.bytes, id, dst);
        pkt->flowId = in.trace.flowIdOf(id, i);
        pkt->born = eq.curTick();
        ++*sent;
        {
            Span s("EthLink::send", pkt->flowId);
            access->send(this, pkt);
        }
        if (i + 1 < in.trace.framesPerNode)
            eq.schedule(in.trace.bornTick(id, i + 1),
                        [this, i] { fire(i + 1); });
    }

    void
    deliver(const PacketPtr &pkt) override
    {
        Span s("node.deliver", pkt->flowId);
        hist->sample(eq.curTick() - pkt->born);
        ++*rcvd;
    }
};

struct ShardCtx
{
    std::unique_ptr<PodFabricShard> fabric;
    std::vector<std::unique_ptr<TraceNode>> nodes;
    LatencyHistogram hist;
    std::uint64_t sent = 0, rcvd = 0;
};

struct ShardOutcome
{
    LatencyHistogram hist;
    std::uint64_t sent = 0, rcvd = 0, fabric = 0, exported = 0;
    std::uint64_t maxQueue = 0, ecnMarks = 0, slabs = 0;
    std::int64_t builtNs = 0;
    double nodeBuildS = 0, fabricBuildS = 0;
};

} // namespace

IterResult
runPdes(const RunOptions &o)
{
    IterResult r;
    auto t0 = std::chrono::steady_clock::now();
    std::int64_t t0ns = nowNs();

    Input in;
    in.spec.pods = 4;
    in.spec.leavesPerPod = 4;
    in.spec.spines = 8;
    in.spec.nodesPerLeaf = o.size == Size::Tiny ? 4 : 64;
    // Lossless fabric: every frame sent must be received.
    in.spec.eth.switchQueueFrames = 0;
    in.spec.eth.ecnThresholdFrames = 0;
    in.trace.nodes = in.spec.totalNodes();
    in.trace.framesPerNode = o.size == Size::Tiny ? 10 : 250;
    {
        Span s("setup.tracegen");
        std::uint32_t n = in.trace.nodes;
        in.perm.resize(n);
        in.inv.resize(n);
        for (std::uint32_t i = 0; i < n; ++i)
            in.perm[i] = i;
        for (std::uint32_t i = n - 1; i > 0; --i)
            std::swap(in.perm[i],
                      in.perm[traceMix64(o.seed * 0x100000001b3ull + i) %
                              (i + 1)]);
        for (std::uint32_t i = 0; i < n; ++i)
            in.inv[in.perm[i]] = i;
    }
    r.genS = secondsSince(t0);

    std::vector<ShardOutcome> out(kShards);
    ParallelSim sim(kShards, in.spec.lookahead(), ParallelSim::Mode::FreeRun);
    std::thread::id caller = std::this_thread::get_id();
    std::uint64_t allocs0 = heapAllocs();
    {
        Span run("ParallelSim::run");
        std::uint64_t runSpan = currentSpan();
        sim.run(in.trace.horizon(), [&](ShardHost &host) {
            // Shard threads record into their own buffers for the
            // whole run; the thread ends with the run.
            if (o.spans && std::this_thread::get_id() != caller)
                tlSpans = o.spans->newBuf(runSpan);
            ShardOutcome *o = &out[host.shardId()];
            auto ctx = std::make_shared<ShardCtx>();
            {
                Span b("shard.build");
                auto tf = std::chrono::steady_clock::now();
                ctx->fabric =
                    std::make_unique<PodFabricShard>(host, "fab", in.spec);
                o->fabricBuildS = secondsSince(tf);
                auto tn = std::chrono::steady_clock::now();
                for (std::uint32_t n = 0; n < in.spec.totalNodes(); ++n) {
                    if (!ctx->fabric->ownsNode(n))
                        continue;
                    auto node =
                        std::make_unique<TraceNode>(host.eventq(), in, n);
                    node->access = &ctx->fabric->attach(n, node.get());
                    node->hist = &ctx->hist;
                    node->sent = &ctx->sent;
                    node->rcvd = &ctx->rcvd;
                    node->start();
                    ctx->nodes.push_back(std::move(node));
                }
                o->nodeBuildS = secondsSince(tn);
            }
            o->builtNs = nowNs();
            host.atEnd([ctx, o, &in, &host] {
                o->hist = ctx->hist;
                o->sent = ctx->sent;
                o->rcvd = ctx->rcvd;
                o->fabric = ctx->fabric->fabricFrames();
                o->exported = ctx->fabric->framesExported();
                o->slabs = host.eventq().slabAllocations();
                PodFabricShard &f = *ctx->fabric;
                auto note = [o](Switch &sw) {
                    o->maxQueue = std::max(o->maxQueue, sw.maxQueueDepth());
                    o->ecnMarks += sw.ecnMarks();
                };
                for (std::uint32_t l = 0; l < in.spec.totalLeaves(); ++l)
                    if (PodFabricSpec::podShard(l / in.spec.leavesPerPod,
                                                host.shards()) ==
                        host.shardId())
                        note(f.leaf(l));
                for (std::uint32_t s = 0; s < in.spec.spines; ++s)
                    if (PodFabricSpec::spineShard(s, host.shards()) ==
                        host.shardId())
                        note(f.spine(s));
            });
            host.hold(std::move(ctx));
        });
    }
    double total = secondsSince(t0);
    std::uint64_t allocs = heapAllocs() - allocs0;

    // Set-up ends when the last shard finished building (its first
    // event is dispatched right after).
    std::int64_t built = t0ns;
    for (const ShardOutcome &o : out) {
        built = std::max(built, o.builtNs);
        r.nodeBuildS = std::max(r.nodeBuildS, o.nodeBuildS);
        r.fabricBuildS = std::max(r.fabricBuildS, o.fabricBuildS);
    }
    r.setupS = double(built - t0ns) * 1e-9;
    r.runS = total - r.setupS;

    LatencyHistogram hist;
    std::uint64_t sent = 0, rcvd = 0, fabric = 0, exported = 0;
    std::uint64_t maxQueue = 0, ecn = 0, slabs = 0;
    for (const ShardOutcome &o : out) {
        hist.merge(o.hist);
        sent += o.sent;
        rcvd += o.rcvd;
        fabric += o.fabric;
        exported += o.exported;
        maxQueue = std::max(maxQueue, o.maxQueue);
        ecn += o.ecnMarks;
        slabs += o.slabs;
    }
    std::uint64_t executed = 0, quanta = 0, pumped = 0, maxExec = 0;
    for (const ShardRunStats &s : sim.shardStats()) {
        executed += s.executed;
        quanta += s.quanta;
        pumped += s.pumped;
        maxExec = std::max(maxExec, s.executed);
    }

    r.check(sent, sent - std::min(sent, rcvd), "pdes frames received");
    r.check(1, sent != in.trace.flows(), "pdes all trace frames sent");

    auto &c = r.counts;
    double items = double(in.trace.flows());
    c["sim.events"] = double(executed);
    c["sim.events_per_item"] = double(executed) / items;
    c["sim.slab_allocs"] = double(slabs);
    r.allocsPerEvent = executed ? double(allocs) / double(executed) : 0.0;
    c["sim.quanta"] = double(quanta);
    c["sim.events_per_quantum"] = quanta ? double(executed) / quanta : 0.0;
    c["sim.pumped"] = double(pumped);
    c["sim.pumped_per_quantum"] = quanta ? double(pumped) / quanta : 0.0;
    c["sim.shard_imbalance"] =
        executed ? double(maxExec) * kShards / double(executed) : 0.0;
    c["net.fabric_frames"] = double(fabric);
    c["net.switch.max_queue"] = double(maxQueue);
    c["net.ecn_marks"] = double(ecn);
    c["lat.oneway_p50_us"] = hist.percentile(0.50) / tickPerUs;
    c["lat.oneway_p99_us"] = hist.percentile(0.99) / tickPerUs;
    r.digest = "pdes:" + hist.digest() + ";sent=" + std::to_string(sent) +
               ";rcvd=" + std::to_string(rcvd) +
               ";exported=" + std::to_string(exported) + ";";
    return r;
}

} // namespace perfbench
