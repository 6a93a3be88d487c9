/**
 * @file
 * `congestion` workload: 1024 DCQCN bulk senders through one 40 Gbps
 * bottleneck in hybrid fidelity. Every 8th flow is a packet-level
 * TransportFlow witness; the rest are FluidSolver flows whose backlog
 * the switch and bottleneck see as background load. A few fluid flows
 * are promoted to packet level mid-run and demoted back, so the
 * FidelityManager handoff and its byte ledger are exercised. Every
 * flow is finite and must complete with its bytes accounted exactly.
 *
 * The scenario follows bench/hybrid_fidelity's dumbbell (lossless
 * ECN regime, DCQCN scaled to the ~39 Mbps fair share, warm start);
 * the seed jitters the flow start times.
 */

#include <cmath>
#include <map>

#include "bench.hh"
#include "flow/FidelityManager.hh"
#include "harness/LatencyHistogram.hh"
#include "net/Switch.hh"
#include "workload/TraceGen.hh"

using namespace netdimm;

namespace perfbench
{

namespace
{

constexpr std::uint32_t kWitnessEvery = 8;
/** Fluid flows with id % kPromoteEvery == kPromoteRem are promoted. */
constexpr std::uint32_t kPromoteEvery = 64;
constexpr std::uint32_t kPromoteRem = 2;

struct Knobs
{
    std::uint32_t nodes = 1024;
    std::uint32_t segBytes = 1460;
    std::uint64_t volume = 512 * 1024; ///< payload bytes per flow
    double load = 2.0;                ///< demand / bottleneck capacity
    Tick startSpread = usToTicks(500);
    Tick startJitter = usToTicks(20);
    Tick promoteAt = usToTicks(2000);
    Tick demoteAt = usToTicks(6000);
    Tick horizon = usToTicks(400000);
    EthConfig eth;
    TransportConfig tcfg;

    Knobs()
    {
        eth.switchQueueFrames = 0;
        eth.ecnThresholdFrames = 128;
        tcfg.minRateGbps = 0.004;
        tcfg.additiveIncreaseGbps = 0.0005;
        tcfg.hyperIncreaseGbps = 0.002;
        tcfg.segmentBytes = segBytes;
    }

    double demandGbps() const { return load * eth.gbps / nodes; }
};

struct SenderEp : NetEndpoint
{
    TransportFlow *flow = nullptr;

    void
    deliver(const PacketPtr &pkt) override
    {
        if (!flow)
            return;
        Span s("TransportFlow::onSenderReceive", pkt->flowId);
        flow->onSenderReceive(pkt);
    }
};

struct SinkEp : NetEndpoint
{
    std::map<std::uint64_t, TransportFlow *> flows;

    void
    deliver(const PacketPtr &pkt) override
    {
        auto it = flows.find(pkt->flowId);
        if (it == flows.end())
            return;
        Span s("TransportFlow::onReceiverReceive", pkt->flowId);
        it->second->onReceiverReceive(pkt);
    }
};

/** Per-flow byte ledger across the fluid / packet / fluid phases. */
struct Ledger
{
    std::uint64_t fluidBefore = 0; ///< delivered before promotion
    std::uint64_t packetEnqueued = 0;
    std::uint64_t handedBack = 0; ///< remainder at demotion
    bool promoted = false;
};

struct Dumbbell
{
    Knobs k;
    EventQueue eq;
    std::uint32_t sinkId;
    std::unique_ptr<Switch> sw;
    std::unique_ptr<EthLink> bottleneck;
    SinkEp sink;
    std::unique_ptr<FluidSolver> solver;
    FluidLink *fluid = nullptr;
    FidelityManager mgr;
    std::vector<std::unique_ptr<SenderEp>> eps;
    std::vector<std::unique_ptr<EthLink>> access;
    std::vector<std::unique_ptr<TransportFlow>> flows;
    std::map<std::uint64_t, TransportFlow *> byId;
    std::vector<Ledger> ledger;
    TransportConfig fcfg;
    DcqcnState seedCc;

    static FidelityPolicy
    policy()
    {
        FidelityPolicy pol;
        pol.mode = FidelityMode::Hybrid;
        pol.witnessEvery = kWitnessEvery;
        pol.rttEstimate = usToTicks(25);
        return pol;
    }

    explicit Dumbbell(const Knobs &knobs)
        : k(knobs), sinkId(k.nodes), mgr(policy()), ledger(k.nodes + 1)
    {
        fcfg = k.tcfg;
        fcfg.lineRateGbps = k.demandGbps();
        seedCc.init(fcfg);
        double fair = std::min(k.demandGbps(), k.eth.gbps / k.nodes);
        seedCc.rateGbps = fair;
        seedCc.targetGbps = fair;
        seedCc.alpha = 0.2;
    }

    void
    buildFabric()
    {
        sw = std::make_unique<Switch>(eq, "sw", k.eth);
        bottleneck = std::make_unique<EthLink>(eq, "bottleneck", k.eth);
        bottleneck->connect(sw.get(), &sink);
        sw->addRoute(sinkId, bottleneck.get());
        solver = std::make_unique<FluidSolver>(eq, "fluid",
                                               k.tcfg.rateIncreaseInterval);
        fluid = &solver->addLink("bottleneck", k.eth, k.segBytes);
        bottleneck->setBackgroundSource(fluid);
        sw->setBackgroundSource(bottleneck.get(), fluid);
        solver->start(k.horizon);
    }

    void
    buildSenders()
    {
        for (std::uint32_t i = 0; i < k.nodes; ++i) {
            eps.push_back(std::make_unique<SenderEp>());
            access.push_back(std::make_unique<EthLink>(
                eq, "access" + std::to_string(i), k.eth));
            access.back()->connect(eps.back().get(), sw.get());
            sw->addRoute(i, access.back().get());
        }
    }

    TransportFlow *
    addPacketFlow(std::uint64_t id)
    {
        std::uint32_t src = std::uint32_t(id - 1);
        SenderEp *ep = eps[src].get();
        EthLink *link = access[src].get();
        auto f = std::make_unique<TransportFlow>(
            eq, "flow" + std::to_string(id), fcfg, id);
        f->bindSender(
            [this, src](std::uint32_t bytes, std::uint64_t flow) {
                PacketPtr p = makePacket(eq, bytes, src, sinkId);
                p->flowId = flow;
                p->born = eq.curTick();
                return p;
            },
            [ep, link](const PacketPtr &p) {
                Span s("EthLink::send", p->flowId);
                link->send(ep, p);
            });
        f->bindReceiver(
            [this, src](std::uint32_t bytes, std::uint64_t flow) {
                PacketPtr p = makePacket(eq, bytes, sinkId, src);
                p->flowId = flow;
                p->born = eq.curTick();
                return p;
            },
            [this](const PacketPtr &p) {
                Span s("EthLink::send", p->flowId);
                bottleneck->send(&sink, p);
            });
        ep->flow = f.get();
        sink.flows[id] = f.get();
        byId[id] = f.get();
        flows.push_back(std::move(f));
        return flows.back().get();
    }

    /** Flow @p id starts at @p start in its classified domain. */
    void
    scheduleFlow(std::uint64_t id, Tick start)
    {
        if (mgr.classify(id, std::uint32_t(id - 1), sinkId, start) ==
            FlowFidelity::PacketLevel) {
            TransportFlow *f = addPacketFlow(id);
            FlowHandoff h;
            h.cc = seedCc;
            f->importHandoff(h);
            eq.schedule(start, [this, f] {
                Span s("TransportFlow::send", f->flowId());
                f->send(k.volume);
                f->close();
            });
        } else {
            eq.schedule(start, [this, id] {
                Span s("FluidSolver::addFlow", id);
                solver->addFlow(id, fcfg, {fluid}, k.volume, &seedCc);
            });
        }
    }

    void
    schedulePromotions()
    {
        eq.schedule(k.promoteAt, [this] {
            for (std::uint64_t id = kPromoteRem; id <= k.nodes;
                 id += kPromoteEvery) {
                FluidFlow *ff = solver->findFlow(id);
                if (!ff || ff->done)
                    continue;
                Span s("FidelityManager::promote", id);
                Ledger &l = ledger[id];
                FlowHandoff h = mgr.promote(*solver, id, l.fluidBefore);
                TransportFlow *f = addPacketFlow(id);
                f->importHandoff(h);
                f->send(h.bytesRemaining());
                f->close();
                l.packetEnqueued = h.bytesRemaining();
                l.promoted = true;
            }
        });
        eq.schedule(k.demoteAt, [this] {
            for (std::uint64_t id = kPromoteRem; id <= k.nodes;
                 id += kPromoteEvery) {
                Ledger &l = ledger[id];
                if (!l.promoted || byId[id]->complete())
                    continue;
                Span s("FidelityManager::demote", id);
                FluidFlow &ff = mgr.demote(*solver, *byId[id], {fluid});
                l.handedBack = ff.totalBytes;
            }
        });
    }
};

} // namespace

IterResult
runCongestion(const RunOptions &o)
{
    IterResult r;
    Knobs k;
    if (o.size == Size::Tiny) {
        k.nodes = 64;
        k.volume = 64 * 1024;
        k.startSpread = usToTicks(50);
        k.promoteAt = usToTicks(200);
        k.demoteAt = usToTicks(400);
        k.horizon = usToTicks(40000);
    }

    auto t0 = std::chrono::steady_clock::now();
    std::vector<Tick> starts(k.nodes + 1);
    {
        Span s("setup.tracegen");
        for (std::uint64_t id = 1; id <= k.nodes; ++id)
            starts[id] = k.startSpread * (id - 1) / k.nodes +
                         traceMix64(o.seed * 0x9e3779b97f4a7c15ull + id) %
                             k.startJitter;
    }
    r.genS = secondsSince(t0);

    Dumbbell d(k);
    auto tFabric = std::chrono::steady_clock::now();
    {
        Span s("setup.fabric");
        d.buildFabric();
    }
    r.fabricBuildS = secondsSince(tFabric);
    auto tNodes = std::chrono::steady_clock::now();
    {
        Span s("setup.nodes");
        d.buildSenders();
        for (std::uint64_t id = 1; id <= k.nodes; ++id)
            d.scheduleFlow(id, starts[id]);
        d.schedulePromotions();
    }
    r.nodeBuildS = secondsSince(tNodes);
    r.setupS = secondsSince(t0);

    auto tRun = std::chrono::steady_clock::now();
    std::uint64_t allocs0 = heapAllocs();
    {
        Span s("EventQueue::runUntil");
        d.eq.runUntil(k.horizon);
    }
    std::uint64_t allocs = heapAllocs() - allocs0;
    r.runS = secondsSince(tRun);

    // -- output checks: every flow completes, every byte accounted ------
    LatencyHistogram fct;
    std::uint64_t incomplete = 0, ledgerErr = 0;
    double fluidBytes = 0, packetBytes = 0;
    for (std::uint64_t id = 1; id <= k.nodes; ++id) {
        const Ledger &l = d.ledger[id];
        FluidFlow *ff = d.solver->findFlow(id);
        auto it = d.byId.find(id);
        TransportFlow *pf = it == d.byId.end() ? nullptr : it->second;
        std::uint64_t fluidAfter = 0, packetAcked = 0;
        bool done = false;
        Tick doneTick = 0;
        if (ff) { // fluid-only, or demoted back to fluid
            done = ff->done;
            doneTick = ff->doneTick;
            fluidAfter = std::uint64_t(std::llround(ff->deliveredBytes));
        }
        if (pf && !pf->detached()) {
            done = pf->complete();
            doneTick = pf->completeTick();
            packetAcked = pf->deliveredBytes();
        } else if (pf) {
            packetAcked = l.packetEnqueued - l.handedBack;
        }
        fluidBytes += double(fluidAfter + l.fluidBefore);
        packetBytes += double(packetAcked);
        if (!done) {
            ++incomplete;
            continue;
        }
        fct.sample(doneTick - starts[id]);
        std::uint64_t accounted = l.fluidBefore + packetAcked + fluidAfter;
        ledgerErr += accounted > k.volume ? accounted - k.volume
                                          : k.volume - accounted;
    }
    r.check(k.nodes, incomplete, "congestion flows completed");
    r.check(1, ledgerErr != 0,
            "congestion byte ledger (" + std::to_string(ledgerErr) +
                " B error)");

    std::uint64_t segments = 0, retx = 0, cuts = 0;
    for (const auto &f : d.flows) {
        segments += f->deliveredSegments();
        retx += f->retransmissions();
        cuts += f->rateCuts();
    }
    auto &c = r.counts;
    double events = double(d.eq.executedEvents());
    c["sim.events"] = events;
    c["sim.events_per_item"] = events / k.nodes;
    c["sim.slab_allocs"] = double(d.eq.slabAllocations());
    r.allocsPerEvent = events > 0 ? double(allocs) / events : 0.0;
    c["net.switch.max_queue"] = double(d.sw->maxQueueDepth());
    c["net.ecn_marks"] = double(d.sw->ecnMarks());
    c["net.fabric_frames"] = double(d.sw->framesForwarded());
    c["transport.segments"] = double(segments);
    c["transport.retx"] = double(retx);
    c["transport.rate_cuts"] = double(cuts);
    c["flow.rounds"] = double(d.solver->rounds());
    c["flow.fluid_frac"] = fluidBytes / (fluidBytes + packetBytes);
    c["flow.promotions"] = double(d.mgr.promotions());
    c["flow.demotions"] = double(d.mgr.demotions());
    c["flow.ledger_err_bytes"] = double(ledgerErr);
    c["flow.rate_cuts"] = double(d.solver->rateCuts());
    c["lat.fct_p50_us"] = fct.percentile(0.50) / tickPerUs;
    c["lat.fct_p99_us"] = fct.percentile(0.99) / tickPerUs;
    r.digest = "congestion:" + fct.digest() +
               ";packet_flows=" + std::to_string(d.mgr.packetFlows()) +
               ";fluid_flows=" + std::to_string(d.mgr.fluidFlows()) + ";";
    return r;
}

} // namespace perfbench
