/**
 * @file
 * Synthetic datacenter traffic matching the published distributions
 * of the three Facebook production clusters the paper replays
 * (Sec. 5.1, after Roy et al. [60]):
 *
 *  - database:  packet sizes uniform in [64, 1514]B; traffic mostly
 *               inter-cluster and inter-datacenter.
 *  - webserver: ~90% of packets < 300B; mostly intra-datacenter but
 *               inter-cluster.
 *  - hadoop:    ~41% of packets < 100B, ~52% full MTU (1514B);
 *               intra-cluster.
 *
 * The real traces are Facebook-internal; these generators substitute
 * them with the size and locality mixes the paper states, which are
 * the only trace properties Fig. 12 depends on.
 */

#ifndef NETDIMM_WORKLOAD_TRACEGEN_HH
#define NETDIMM_WORKLOAD_TRACEGEN_HH

#include <cstdint>
#include <vector>

#include "net/Switch.hh"
#include "sim/Random.hh"
#include "sim/Ticks.hh"

namespace netdimm
{

/** Deterministic 64-bit mixer (splitmix64 finalizer), the hash
 *  behind every synthetic-trace jitter/destination draw. */
inline std::uint64_t
traceMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Node-striped synthetic trace: every node emits framesPerNode
 * frames of one fixed size at jittered born ticks. Born ticks are
 * globally unique BY CONSTRUCTION — each node owns a slot of width
 * gap/nodes inside every inter-arrival window and the jitter hash
 * stays inside the slot — so same-tick arrival collisions at shared
 * egress queues cannot make merge order ambiguous (the property the
 * PDES identity phase and the hybrid-fidelity digest checks lean
 * on; DESIGN.md §16). Destinations are a per-(node, frame) hash
 * that never picks the node itself.
 *
 * Extracted from bench/pdes_scale.cpp so every campaign shares one
 * copy of the formulas; the values are bit-identical to what the
 * bench used to compute inline.
 */
struct StripedTraceSpec
{
    std::uint32_t nodes = 0;
    std::uint32_t framesPerNode = 0;
    std::uint32_t bytes = 1024; ///< one fixed frame size
    Tick warmup = usToTicks(10);
    Tick gap = usToTicks(6); ///< per-node inter-arrival
    Tick settle = usToTicks(1000);

    Tick
    horizon() const
    {
        return warmup + Tick(framesPerNode) * gap + settle;
    }

    std::uint64_t
    flows() const
    {
        return std::uint64_t(nodes) * framesPerNode;
    }

    /** Born tick of @p node's @p i-th frame (globally unique). */
    Tick
    bornTick(std::uint32_t node, std::uint32_t i) const
    {
        Tick slot = gap / nodes;
        Tick jitter =
            Tick(node) * slot +
            traceMix64((std::uint64_t(node) << 32) | i) % slot;
        return warmup + Tick(i) * gap + jitter;
    }

    /** Destination of @p node's @p i-th frame; never @p node. */
    std::uint32_t
    dstOf(std::uint32_t node, std::uint32_t i) const
    {
        std::uint32_t dst = std::uint32_t(
            traceMix64((std::uint64_t(i) << 32) |
                       (node * 2654435761u)) %
            (nodes - 1));
        if (dst >= node)
            ++dst; // never self
        return dst;
    }

    /** Globally unique flow id of @p node's @p i-th frame. */
    std::uint64_t
    flowIdOf(std::uint32_t node, std::uint32_t i) const
    {
        return std::uint64_t(node) * framesPerNode + i;
    }
};

/** The three replayed production clusters. */
enum class ClusterType
{
    Database,
    Webserver,
    Hadoop,
};

/** @return printable cluster name. */
const char *clusterName(ClusterType c);

/** One synthesized packet arrival. */
struct TraceRecord
{
    std::uint32_t bytes = 0;
    TrafficLocality locality = TrafficLocality::IntraCluster;
    /** Gap since the previous record. */
    Tick interArrival = 0;
};

class TraceGen
{
  public:
    /**
     * @param cluster which cluster's distributions to synthesize.
     * @param offered_gbps mean offered load used to scale the
     *        exponential inter-arrival times.
     */
    TraceGen(ClusterType cluster, double offered_gbps,
             std::uint64_t seed);

    /** Synthesize the next packet arrival. */
    TraceRecord next();

    ClusterType cluster() const { return _cluster; }

  private:
    ClusterType _cluster;
    double _offeredGbps;
    double _meanBytes;
    Random _rng;

    std::uint32_t sampleBytes();
    TrafficLocality sampleLocality();
};

/**
 * Synthesize one shared trace per cluster, as the grid benches do:
 * same generator, same seed per cluster, so every cell replaying
 * the trace sees identical records (extracted from
 * bench/fig12a_trace_replay.cpp).
 */
std::vector<std::vector<TraceRecord>>
synthesizeClusterTraces(const std::vector<ClusterType> &clusters,
                        double offered_gbps, std::uint64_t seed,
                        int npackets);

} // namespace netdimm

#endif // NETDIMM_WORKLOAD_TRACEGEN_HH
