/**
 * @file
 * Flow-level (fluid) network model: bulk flows carry a *rate*, not
 * packets (hybrid fidelity, DESIGN.md §17).
 *
 * The solver runs ONE simulator event per round (default cadence:
 * the transport's rate-increase interval, i.e. RTT-scale), at
 * EventPriority::Fluid so link backlogs are integrated before any
 * same-tick packet-level consumer samples them. Each round:
 *
 *  1. every FluidLink integrates its backlog exactly over the closed
 *     interval (piecewise-linear with zero/cap kinks);
 *  2. every flow advances its offered/delivered/backlogged byte ledger
 *     from its bottleneck link's window shares (conserving bytes:
 *     the shares partition each link's pool);
 *  3. flows whose path shows congestion (a lagged ECN echo or tail
 *     drops this round, sampled once per link in step 1) apply
 *     DcqcnState::cut — the *same* control law, arithmetic and
 *     parameters as the packet-level TransportFlow — gated by the
 *     flow's own mark-sampling cadence (a flow only sees marks as
 *     often as its own frames arrive); then every flow runs one
 *     timerRound;
 *  4. next-round arrival rates are pushed down to the links.
 *
 * Steps 2-4 walk only the live flows, in id order, so a round costs
 * O(live flows + links) and allocates nothing; a finished flow stays
 * in the id map (findFlow, the delivered total) but leaves the walk.
 *
 * Tail drops are modeled as goodput loss with go-back-N recovery:
 * the dropped share of a flow's pool returns to its unsent ledger,
 * so byte conservation (delivered + backlog + unsent == total)
 * holds exactly at every round boundary.
 */

#ifndef NETDIMM_FLOW_FLUIDSOLVER_HH
#define NETDIMM_FLOW_FLUIDSOLVER_HH

#include <map>
#include <memory>
#include <vector>

#include "flow/FluidLink.hh"
#include "sim/SimObject.hh"
#include "sim/SystemConfig.hh"
#include "transport/Dcqcn.hh"

namespace netdimm
{

/** One rate-modeled bulk flow. */
struct FluidFlow
{
    std::uint64_t id = 0;
    /** Same knobs as the packet transport; lineRateGbps doubles as
     *  the flow's demand ceiling. */
    TransportConfig cfg{};
    /** Shared DCQCN control-law state (transport/Dcqcn.hh). */
    DcqcnState cc{};
    /** Links traversed, in order. Not owned. */
    std::vector<FluidLink *> path;
    /** Payload bytes this flow must move; 0 = open-ended. */
    std::uint64_t totalBytes = 0;

    /** Payload bytes pushed into the network so far (net of bytes
     *  returned by modeled drops). */
    double offeredBytes = 0.0;
    /** Payload bytes out the far end. */
    double deliveredBytes = 0.0;
    /** Payload bytes sitting in fluid queues along the path. */
    double backlogBytes = 0.0;

    bool done = false;
    Tick startTick = 0;
    Tick doneTick = 0;
    /** Earliest tick the next congestion cut may be applied; the
     *  solver carries round-sampling overshoot forward so the
     *  average cut cadence equals the mark-sampling gap exactly. */
    Tick nextCutEligible = 0;

    double rateGbps() const { return cc.rateGbps; }
};

class FluidSolver : public SimObject
{
  public:
    /**
     * @param period round cadence in ticks; 0 picks the transport
     *        default rate-increase interval (RTT-scale), keeping the
     *        fluid control law on the same clock as TransportFlow's
     *        rate timer.
     */
    FluidSolver(EventQueue &eq, std::string name, Tick period = 0);

    /** Create a fluid link shadowing a packet link of @p cfg. */
    FluidLink &addLink(std::string name, const EthConfig &cfg,
                       std::uint32_t ref_frame_bytes);

    /**
     * Register a flow. @p seed imports rate-controller state from a
     * packet-level flow being demoted (nullptr starts fresh at the
     * demand ceiling).
     */
    FluidFlow &addFlow(std::uint64_t id, const TransportConfig &cfg,
                       std::vector<FluidLink *> path,
                       std::uint64_t total_bytes,
                       const DcqcnState *seed = nullptr);

    /** Look up a live flow (nullptr if unknown/removed). */
    FluidFlow *findFlow(std::uint64_t id);

    /**
     * Remove a flow (promotion to packet level). The flow's ledger
     * is returned by value so the caller can seed the packet side;
     * its backlog share stays in the link integrals (it drains as
     * part of the aggregate) but is charged to the packet side's
     * re-offered bytes, keeping conservation at the flow level.
     */
    FluidFlow removeFlow(std::uint64_t id);

    /**
     * Run rounds from now until @p horizon (inclusive of the final
     * partial round). Must be called once, before eq.run().
     */
    void start(Tick horizon);

    Tick period() const { return _period; }
    std::uint64_t rounds() const { return _rounds; }
    std::uint64_t activeFlows() const { return _active.size(); }
    std::uint64_t completedFlows() const { return _completed; }
    std::uint64_t rateCuts() const { return _cuts; }
    double totalDeliveredBytes() const;

    const std::vector<std::unique_ptr<FluidLink>> &
    links() const
    {
        return _links;
    }

  private:
    void round();
    void pushArrivalRates();
    /** Where flow @p id sits (or would sit) in _active. */
    std::vector<FluidFlow *>::iterator liveSlot(std::uint64_t id);

    Tick _period;
    Tick _horizon = 0;
    Tick _lastRound = 0;
    bool _started = false;
    std::uint64_t _rounds = 0;
    std::uint64_t _completed = 0;
    std::uint64_t _cuts = 0;
    double _removedDelivered = 0.0;

    std::vector<std::unique_ptr<FluidLink>> _links;
    std::map<std::uint64_t, FluidFlow> _flows;
    /** The unfinished flows of _flows, in id order. */
    std::vector<FluidFlow *> _active;
};

} // namespace netdimm

#endif // NETDIMM_FLOW_FLUIDSOLVER_HH
