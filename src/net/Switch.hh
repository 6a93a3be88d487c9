/**
 * @file
 * Store-and-forward Ethernet switch with multipath (ECMP) routing
 * over a destination-node table, plus a clos-fabric builder used by
 * the datacenter trace replay (Sec. 5.1: dist-gem5-style switch
 * model, Fig. 12). The route-table + no-route accounting shared with
 * the ClosFabric boundary router lives in net/Routing.hh.
 */

#ifndef NETDIMM_NET_SWITCH_HH
#define NETDIMM_NET_SWITCH_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/Link.hh"
#include "net/Routing.hh"

namespace netdimm
{

/**
 * An output-queued switch. A frame arriving on any port is looked up
 * by destination node id, delayed by the port-to-port latency, and
 * enqueued at the output port's finite egress queue. The queue drains
 * at the output link's serialization rate; a frame arriving at a full
 * queue is tail-dropped, and frames enqueued at or above the ECN
 * threshold are marked congestion-experienced (the signal the
 * transport layer's DCQCN-style rate controller reacts to).
 *
 * A destination maps to an ECMP group of candidate egress links.
 * Per-packet selection is a deterministic (src, dst, flow) hash over
 * the group's *live* members only; a link-down notification excludes
 * the member immediately (failover latency = detection, not timeout)
 * and flushes the frames queued toward the dead link. When every
 * member of a group is down the switch counts the frame in
 * dropsNoPath and reports itself degraded.
 */
class Switch : public SimObject, public NetEndpoint
{
  public:
    /**
     * @param queue_frames per-port egress capacity in frames; 0 means
     *        unbounded (the idealized lossless model).
     * @param ecn_threshold egress depth at/above which frames are
     *        ECN-marked; 0 disables marking.
     */
    Switch(EventQueue &eq, std::string name, Tick port_latency,
           std::uint32_t queue_frames = 0,
           std::uint32_t ecn_threshold = 0);

    /** Convenience: queue/ECN/latency parameters from @p cfg. */
    Switch(EventQueue &eq, std::string name, const EthConfig &cfg);

    /** Frames destined to @p node_id leave through @p out
     *  (a single-member ECMP group). */
    void addRoute(std::uint32_t node_id, EthLink *out);

    /**
     * Frames destined to @p node_id spread over @p members by flow
     * hash; dead members are excluded until they recover. Replaces
     * any previous route for the node. An empty member list installs
     * a fully-withdrawn route (a routing-protocol withdrawal): the
     * group counts as degraded and its frames land in dropsNoPath.
     */
    void addEcmpRoute(std::uint32_t node_id,
                      const std::vector<EthLink *> &members);

    void deliver(const PacketPtr &pkt) override;

    std::uint64_t framesForwarded() const { return _frames.value(); }
    /** Frames tail-dropped at a full egress queue. */
    std::uint64_t dropsQueue() const { return _dropsQueue.value(); }
    /** Frames dropped for lack of a route. */
    std::uint64_t dropsNoRoute() const
    {
        return _routes.dropsNoRoute();
    }
    /** Frames whose ECMP group had every member down. */
    std::uint64_t dropsNoPath() const { return _dropsNoPath.value(); }
    /** Frames flushed from an egress queue when its link died. */
    std::uint64_t dropsLinkDown() const
    {
        return _dropsLinkDown.value();
    }
    /** Frames ECN-marked at enqueue. */
    std::uint64_t ecnMarks() const { return _ecnMarks.value(); }
    /** Deepest egress queue observed (frames), across all ports. */
    std::uint64_t maxQueueDepth() const { return _maxDepth; }

    /**
     * Hybrid fidelity (DESIGN.md §17): frames fluid flows have
     * queued toward @p out count toward the depth the ECN/tail-drop
     * thresholds see (occupancy and drain timing are unchanged — the
     * link-side background source models the added wait). nullptr
     * detaches; the source is not owned.
     */
    void setBackgroundSource(EthLink *out, FluidBackground *bg);

    /** ECMP groups whose members are currently all down. */
    std::uint32_t degradedGroups() const;
    /** Total ECMP groups installed. */
    std::uint32_t totalGroups() const;
    /** True while any group has no live member. */
    bool degraded() const { return degradedGroups() > 0; }
    /** Live members of the group routing @p node_id (0 if none). */
    std::size_t liveMembers(std::uint32_t node_id);

  private:
    /** One multipath route: candidate egress links + live set. */
    struct EcmpGroup
    {
        std::vector<EthLink *> members;
        /** live[i] mirrors members[i]->up(), maintained by link-state
         *  notifications so exclusion is immediate. */
        std::vector<bool> live;

        std::size_t
        liveCount() const
        {
            std::size_t n = 0;
            for (bool l : live)
                n += l ? 1 : 0;
            return n;
        }
    };

    /** Egress state of one output link. */
    struct Port
    {
        std::deque<PacketPtr> queue;
        /** A frame is occupying the transmitter. */
        bool draining = false;
    };

    Tick _portLatency;
    std::uint32_t _queueFrames;
    std::uint32_t _ecnThreshold;
    RouteTable<EcmpGroup> _routes;
    /** Links this switch already listens to for up/down edges. */
    std::set<EthLink *> _watched;
    std::map<EthLink *, Port> _ports;
    std::map<EthLink *, FluidBackground *> _bg;
    stats::Scalar _frames;
    stats::Scalar _dropsQueue;
    stats::Scalar _dropsNoPath;
    stats::Scalar _dropsLinkDown;
    stats::Scalar _ecnMarks;
    std::uint64_t _maxDepth = 0;

    EcmpGroup makeGroup(const std::vector<EthLink *> &members);
    void watch(EthLink *link);
    void onLinkState(EthLink &link, bool up);
    /** Flow-hash one egress out of @p g's live members, or null. */
    EthLink *selectMember(EcmpGroup &g, const PacketPtr &pkt) const;
    void enqueue(EthLink *out, const PacketPtr &pkt);
    void drain(EthLink *out);
};

/**
 * Traffic locality classes of the Facebook clusters (Sec. 5.1). They
 * determine how many switch hops a packet traverses in the clos
 * topology: rack-local traffic crosses one ToR; intra-cluster traffic
 * crosses ToR-fabric-ToR; intra-datacenter (inter-cluster) traffic
 * additionally crosses the spine; inter-datacenter traffic adds the
 * DC boundary routers and long-haul propagation.
 */
enum class TrafficLocality : std::uint8_t
{
    IntraRack,      ///< 1 hop
    IntraCluster,   ///< 3 hops (ToR, fabric, ToR)
    IntraDatacenter, ///< 5 hops (ToR, fabric, spine, fabric, ToR)
    InterDatacenter, ///< 7 hops + long-haul propagation
};

/** @return switch hop count for a locality class. */
std::uint32_t localityHops(TrafficLocality loc);

/** @return extra one-way propagation for a locality class. */
Tick localityPropagation(TrafficLocality loc);

/**
 * Analytic clos fabric between full node models: rather than
 * instantiating every ToR/fabric/spine switch of the datacenter, the
 * per-packet fabric delay is computed from the hop count of its
 * locality class. Endpoint NIC/driver behaviour — the subject of the
 * paper — is still fully simulated on both ends.
 */
class ClosFabric : public SimObject, public NetEndpoint
{
  public:
    ClosFabric(EventQueue &eq, std::string name, const EthConfig &cfg);

    /** Register the endpoint for @p node_id. */
    void attach(std::uint32_t node_id, NetEndpoint *ep);

    /**
     * Fabric traversal for @p pkt whose locality is @p loc; delivery
     * is scheduled at the destination endpoint.
     */
    void forward(const PacketPtr &pkt, TrafficLocality loc);

    /** NetEndpoint entry: forwards at IntraCluster locality. */
    void deliver(const PacketPtr &pkt) override;

    /** One-way fabric delay for a payload of @p bytes at @p loc. */
    Tick pathDelay(std::uint32_t bytes, TrafficLocality loc) const;

    /** Frames dropped because their destination was never attached. */
    std::uint64_t dropsNoRoute() const
    {
        return _routes.dropsNoRoute();
    }

  private:
    const EthConfig _cfg;
    RouteTable<NetEndpoint *> _routes;
    stats::Scalar _frames;
};

} // namespace netdimm

#endif // NETDIMM_NET_SWITCH_HH
