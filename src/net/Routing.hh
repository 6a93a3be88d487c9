/**
 * @file
 * Shared destination-node routing machinery for the switch models.
 *
 * Both the store-and-forward Switch (egress = EthLink) and the
 * analytic ClosFabric boundary router (egress = NetEndpoint) keep a
 * destination-node table and count frames that match nothing as
 * dropsNoRoute. RouteTable owns that logic once so the two cannot
 * drift.
 *
 * The ECMP flow hash also lives here: a pure function of the packet's
 * (src, dst, flow) fields with no RNG draw, so per-packet multipath
 * selection never perturbs a deterministic replay.
 */

#ifndef NETDIMM_NET_ROUTING_HH
#define NETDIMM_NET_ROUTING_HH

#include <cstdint>
#include <map>

#include "sim/Stats.hh"

namespace netdimm
{

/**
 * Deterministic ECMP hash over the fields that identify a flow. All
 * packets of one (src, dst, flow) triple hash identically, keeping a
 * flow on one path (no intra-flow reorder while the path set is
 * stable); distinct flows spread across members. splitmix64-style
 * finalizer for avalanche.
 */
inline std::uint64_t
ecmpFlowHash(std::uint32_t src, std::uint32_t dst, std::uint64_t flow)
{
    std::uint64_t x = (std::uint64_t(src) << 32) ^ dst;
    x ^= flow * 0x9e3779b97f4a7c15ull;
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Destination-node route table: node id -> egress, with a
 * dropsNoRoute counter the owner increments via noteNoRoute() when a
 * resolve() miss makes it drop the frame.
 */
template <typename Egress>
class RouteTable
{
  public:
    void
    add(std::uint32_t node_id, Egress egress)
    {
        _routes[node_id] = std::move(egress);
    }

    /** @return the egress for @p node_id, or null. */
    Egress *
    resolve(std::uint32_t node_id)
    {
        auto it = _routes.find(node_id);
        return it != _routes.end() ? &it->second : nullptr;
    }

    /** Count one frame dropped for lack of any route. */
    void noteNoRoute() { _dropsNoRoute.inc(); }

    std::uint64_t dropsNoRoute() const
    {
        return _dropsNoRoute.value();
    }

    /** Installed routes. */
    std::size_t size() const { return _routes.size(); }

    auto begin() { return _routes.begin(); }
    auto end() { return _routes.end(); }
    auto begin() const { return _routes.begin(); }
    auto end() const { return _routes.end(); }

  private:
    std::map<std::uint32_t, Egress> _routes;
    stats::Scalar _dropsNoRoute;
};

} // namespace netdimm

#endif // NETDIMM_NET_ROUTING_HH
