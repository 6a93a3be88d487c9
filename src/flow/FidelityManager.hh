/**
 * @file
 * Per-flow fidelity classification and packet<->fluid handoff
 * (DESIGN.md §17).
 *
 * At flow creation the manager decides whether a flow is simulated
 * packet-level or fluid:
 *
 *  - FidelityMode::Packet / ::Fluid force one domain for every flow;
 *  - FidelityMode::Hybrid keeps a flow packet-level when it touches
 *    a node of interest (the device under test), when it is born
 *    inside a configured hot window (a fault or congestion episode
 *    being studied), or when it is part of the deterministic witness
 *    sample (every Nth flow) retained to cross-check the fluid model
 *    against reality.
 *
 * Mid-life, a fluid flow crossing into a hot window is *promoted*:
 * removed from the solver and materialized as packet-level state —
 * the DCQCN controller is copied verbatim (shared DcqcnState), the
 * flow's fluid backlog becomes in-flight bytes that pacing spreads
 * over roughly one RTT, and the rest of its ledger becomes unsent
 * bytes. When the window closes the flow *demotes* back through
 * TransportFlow::exportHandoff(). Both conversions conserve bytes
 * exactly: delivered + in-flight + unsent == total on either side.
 */

#ifndef NETDIMM_FLOW_FIDELITYMANAGER_HH
#define NETDIMM_FLOW_FIDELITYMANAGER_HH

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "flow/FluidSolver.hh"
#include "transport/Dcqcn.hh"
#include "transport/TransportFlow.hh"

namespace netdimm
{

/**
 * How a FidelityManager assigns flows to domains: Packet runs every
 * flow packet-level, Hybrid runs bulk flows fluid with packet-level
 * witnesses and handoff at points of interest, Fluid runs every flow
 * rate-modeled.
 */
enum class FidelityMode : std::uint8_t
{
    Packet,
    Hybrid,
    Fluid,
};

/** The simulation domain assigned to one flow. */
enum class FlowFidelity : std::uint8_t
{
    PacketLevel,
    FluidLevel,
};

/** Classification policy knobs (all deterministic). */
struct FidelityPolicy
{
    FidelityMode mode = FidelityMode::Hybrid;
    /** Flows whose source or destination is one of these nodes stay
     *  packet-level (the device under test). */
    std::set<std::uint32_t> interestNodes;
    /** [start, end) tick windows during which new flows stay
     *  packet-level and existing fluid flows get promoted. */
    std::vector<std::pair<Tick, Tick>> hotWindows;
    /** Every Nth flow id is a packet-level witness (0 = none). */
    std::uint32_t witnessEvery = 0;
    /** RTT estimate used to size the in-flight share on promotion. */
    Tick rttEstimate = 0;
};

class FidelityManager
{
  public:
    explicit FidelityManager(FidelityPolicy policy)
        : _policy(std::move(policy))
    {
    }

    const FidelityPolicy &policy() const { return _policy; }

    /** Classify a flow being created now. */
    FlowFidelity
    classify(std::uint64_t flow_id, std::uint32_t src,
             std::uint32_t dst, Tick now) const
    {
        FlowFidelity f = decide(flow_id, src, dst, now);
        if (f == FlowFidelity::PacketLevel)
            ++_packetFlows;
        else
            ++_fluidFlows;
        return f;
    }

    /** True while @p now lies inside any hot window. */
    bool
    inHotWindow(Tick now) const
    {
        for (const auto &[s, e] : _policy.hotWindows)
            if (now >= s && now < e)
                return true;
        return false;
    }

    /**
     * Promote: pull @p flow_id out of @p solver and return the
     * handoff seeding the packet-level replacement. The fluid
     * backlog is re-offered as in-flight bytes (go-back-N treats
     * unacked in-network data as still owed), capped at one
     * rate*RTT, so pacing at the imported rate spreads it over the
     * RTT it would physically occupy.
     *
     * @param delivered_out the payload bytes the fluid model already
     *        delivered (the caller's completion ledger).
     */
    FlowHandoff
    promote(FluidSolver &solver, std::uint64_t flow_id,
            std::uint64_t &delivered_out)
    {
        FluidFlow f = solver.removeFlow(flow_id);
        FlowHandoff h;
        h.cc = f.cc;
        delivered_out = std::uint64_t(f.deliveredBytes);
        std::uint64_t remaining = 0;
        if (f.totalBytes > delivered_out)
            remaining = f.totalBytes - delivered_out;
        std::uint64_t inFlight = std::uint64_t(f.backlogBytes);
        if (_policy.rttEstimate) {
            std::uint64_t rttBytes = std::uint64_t(
                f.cc.rateGbps / 8000.0 * double(_policy.rttEstimate));
            inFlight = std::min(inFlight, rttBytes);
        }
        h.bytesInFlight = std::min(inFlight, remaining);
        h.bytesUnsent = remaining - h.bytesInFlight;
        ++_promotions;
        return h;
    }

    /**
     * Demote: detach @p flow from the packet domain and register its
     * remaining bytes as a fluid flow on @p path. Returns the fluid
     * flow (owned by the solver).
     */
    FluidFlow &
    demote(FluidSolver &solver, TransportFlow &flow,
           std::vector<FluidLink *> path)
    {
        FlowHandoff h = flow.exportHandoff();
        ++_demotions;
        return solver.addFlow(flow.flowId(), flowConfig(flow),
                              std::move(path), h.bytesRemaining(),
                              &h.cc);
    }

    // -- statistics ------------------------------------------------------
    std::uint64_t packetFlows() const { return _packetFlows; }
    std::uint64_t fluidFlows() const { return _fluidFlows; }
    std::uint64_t promotions() const { return _promotions; }
    std::uint64_t demotions() const { return _demotions; }

  private:
    FlowFidelity
    decide(std::uint64_t flow_id, std::uint32_t src,
           std::uint32_t dst, Tick now) const
    {
        if (_policy.mode == FidelityMode::Packet)
            return FlowFidelity::PacketLevel;
        if (_policy.mode == FidelityMode::Fluid)
            return FlowFidelity::FluidLevel;
        if (_policy.interestNodes.count(src) ||
            _policy.interestNodes.count(dst))
            return FlowFidelity::PacketLevel;
        if (inHotWindow(now))
            return FlowFidelity::PacketLevel;
        if (_policy.witnessEvery &&
            flow_id % _policy.witnessEvery == 0)
            return FlowFidelity::PacketLevel;
        return FlowFidelity::FluidLevel;
    }

    /** The demoted flow keeps its transport parameters. */
    static TransportConfig
    flowConfig(const TransportFlow &flow)
    {
        return flow.config();
    }

    FidelityPolicy _policy;
    mutable std::uint64_t _packetFlows = 0;
    mutable std::uint64_t _fluidFlows = 0;
    std::uint64_t _promotions = 0;
    std::uint64_t _demotions = 0;
};

} // namespace netdimm

#endif // NETDIMM_FLOW_FIDELITYMANAGER_HH
