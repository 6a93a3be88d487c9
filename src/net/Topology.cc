#include "net/Topology.hh"

namespace netdimm
{

LeafSpineTopology::LeafSpineTopology(EventQueue &eq, std::string name,
                                     std::uint32_t leaves,
                                     std::uint32_t spines,
                                     const EthConfig &cfg)
    : SimObject(eq, std::move(name)), _cfg(cfg)
{
    ND_ASSERT(leaves > 0 && spines > 0);
    for (std::uint32_t l = 0; l < leaves; ++l) {
        _leaves.push_back(std::make_unique<Switch>(
            eq, this->name() + ".leaf" + std::to_string(l), cfg));
    }
    for (std::uint32_t s = 0; s < spines; ++s) {
        _spines.push_back(std::make_unique<Switch>(
            eq, this->name() + ".spine" + std::to_string(s), cfg));
    }
    _up.resize(leaves);
    for (std::uint32_t l = 0; l < leaves; ++l) {
        for (std::uint32_t s = 0; s < spines; ++s) {
            auto link = std::make_unique<EthLink>(
                eq,
                this->name() + ".up" + std::to_string(l) + "_" +
                    std::to_string(s),
                cfg);
            link->connect(_leaves[l].get(), _spines[s].get());
            // Any uplink transition changes which spines can complete
            // a leaf-to-leaf path, so re-announce the cross-rack ECMP
            // groups (the routing-protocol withdrawal/advertisement a
            // real fabric would run). The link's new state is already
            // set when listeners fire.
            link->addStateListener(
                [this](EthLink &, bool) { reinstallEcmpRoutes(); });
            _up[l].push_back(std::move(link));
        }
    }
}

EthLink &
LeafSpineTopology::attach(std::uint32_t node_id, std::uint32_t leaf,
                          NetEndpoint *ep)
{
    ND_ASSERT(leaf < _leaves.size());
    ND_ASSERT(ep);
    auto link = std::make_unique<EthLink>(
        eventq(), name() + ".access" + std::to_string(node_id), _cfg);
    link->connect(_leaves[leaf].get(), ep);
    EthLink *access = link.get();
    _access.push_back(std::move(link));

    installRoutes(node_id, leaf, access);
    _attachments.push_back({node_id, leaf});
    return *access;
}

void
LeafSpineTopology::installRoutes(std::uint32_t node_id,
                                 std::uint32_t leaf, EthLink *access)
{
    // The owning leaf delivers locally.
    _leaves[leaf]->addRoute(node_id, access);

    // Every spine reaches the node via its link to the owning leaf.
    for (std::uint32_t s = 0; s < _spines.size(); ++s)
        _spines[s]->addRoute(node_id, _up[leaf][s].get());

    // Every other leaf load-balances over the spine tier: the ECMP
    // group holds one uplink per spine that can still complete the
    // path, the switch flow-hashes over the live members, and a spine
    // death only removes members instead of blackholing the flows
    // pinned to it.
    for (std::uint32_t l = 0; l < _leaves.size(); ++l) {
        if (l == leaf)
            continue;
        _leaves[l]->addEcmpRoute(node_id, crossRackMembers(l, leaf));
    }
}

std::vector<EthLink *>
LeafSpineTopology::crossRackMembers(std::uint32_t from_leaf,
                                    std::uint32_t to_leaf) const
{
    // A spine is a usable member only while its far leg -- the link
    // down to the destination leaf -- is up. The near leg's own state
    // is left to the switch's live-set tracking, so a local link
    // death still fails over at the notification without a route
    // reinstall in between.
    std::vector<EthLink *> members;
    members.reserve(_spines.size());
    for (std::uint32_t s = 0; s < _spines.size(); ++s)
        if (_up[to_leaf][s]->up())
            members.push_back(_up[from_leaf][s].get());
    return members;
}

void
LeafSpineTopology::reinstallEcmpRoutes()
{
    for (const Attachment &at : _attachments)
        for (std::uint32_t l = 0; l < _leaves.size(); ++l)
            if (l != at.leaf)
                _leaves[l]->addEcmpRoute(
                    at.nodeId, crossRackMembers(l, at.leaf));
}

void
LeafSpineTopology::failSpine(std::uint32_t s)
{
    ND_ASSERT(s < _spines.size());
    for (std::uint32_t l = 0; l < _leaves.size(); ++l)
        _up[l][s]->setLinkState(false);
}

void
LeafSpineTopology::recoverSpine(std::uint32_t s)
{
    ND_ASSERT(s < _spines.size());
    for (std::uint32_t l = 0; l < _leaves.size(); ++l)
        _up[l][s]->setLinkState(true);
}

void
LeafSpineTopology::attachFaultDomains(FaultRegistry &reg)
{
    for (auto &row : _up)
        for (auto &link : row)
            link->setFaultDomain(&reg.domain(link->name()));
}

FabricHealth
LeafSpineTopology::health() const
{
    FabricHealth h;
    for (const auto &row : _up) {
        for (const auto &link : row) {
            ++h.totalUplinks;
            if (link->up())
                ++h.liveUplinks;
        }
    }
    h.bisectionGbps = double(h.liveUplinks) * _cfg.gbps;
    // Degradation is judged at the leaves, where traffic enters the
    // fabric: a leaf group with no usable path means an unreachable
    // destination. A spine's own dead single-member group is not
    // counted -- route withdrawal already steers traffic around it.
    for (const auto &sw : _leaves) {
        h.degradedGroups += sw->degradedGroups();
        h.totalGroups += sw->totalGroups();
    }
    return h;
}

bool
LeafSpineTopology::degraded() const
{
    for (const auto &sw : _leaves)
        if (sw->degraded())
            return true;
    return false;
}

std::uint64_t
LeafSpineTopology::fabricFrames() const
{
    std::uint64_t total = 0;
    for (const auto &sw : _leaves)
        total += sw->framesForwarded();
    for (const auto &sw : _spines)
        total += sw->framesForwarded();
    return total;
}

std::uint64_t
LeafSpineTopology::dropsNoPath() const
{
    std::uint64_t total = 0;
    for (const auto &sw : _leaves)
        total += sw->dropsNoPath();
    for (const auto &sw : _spines)
        total += sw->dropsNoPath();
    return total;
}

std::uint64_t
LeafSpineTopology::dropsLinkDown() const
{
    std::uint64_t total = 0;
    for (const auto &sw : _leaves)
        total += sw->dropsLinkDown();
    for (const auto &sw : _spines)
        total += sw->dropsLinkDown();
    for (const auto &row : _up)
        for (const auto &link : row)
            total += link->framesDroppedLinkDown();
    return total;
}

// -- PodFabricShard ----------------------------------------------------------

PodFabricShard::PodFabricShard(ShardHost &host, std::string name,
                               const PodFabricSpec &spec)
    : SimObject(host.eventq(), std::move(name)), _spec(spec),
      _shard(host.shardId()), _shards(host.shards())
{
    ND_ASSERT(spec.pods > 0 && spec.leavesPerPod > 0 &&
              spec.spines > 0 && spec.nodesPerLeaf > 0);
    _leafSw.assign(spec.totalLeaves(), nullptr);
    _spineSw.assign(spec.spines, nullptr);
    _up.assign(std::size_t(spec.totalLeaves()) * spec.spines,
               nullptr);
    _down.assign(std::size_t(spec.totalLeaves()) * spec.spines,
                 nullptr);
    buildSwitches(host);
    buildLinks(host);
    installRoutes();
}

void
PodFabricShard::buildSwitches(ShardHost &host)
{
    for (std::uint32_t l = 0; l < _spec.totalLeaves(); ++l) {
        std::uint32_t pod = l / _spec.leavesPerPod;
        if (PodFabricSpec::podShard(pod, _shards) != _shard)
            continue;
        auto sw = std::make_unique<Switch>(
            host.eventq(), name() + ".leaf" + std::to_string(l),
            _spec.eth);
        _leafSw[l] = sw.get();
        _ownedSwitches.push_back(std::move(sw));
    }
    for (std::uint32_t s = 0; s < _spec.spines; ++s) {
        if (PodFabricSpec::spineShard(s, _shards) != _shard)
            continue;
        auto sw = std::make_unique<Switch>(
            host.eventq(), name() + ".spine" + std::to_string(s),
            _spec.eth);
        _spineSw[s] = sw.get();
        _ownedSwitches.push_back(std::move(sw));
    }
}

void
PodFabricShard::buildLinks(ShardHost &host)
{
    for (std::uint32_t l = 0; l < _spec.totalLeaves(); ++l) {
        std::uint32_t pod = l / _spec.leavesPerPod;
        bool leaf_local =
            PodFabricSpec::podShard(pod, _shards) == _shard;
        for (std::uint32_t s = 0; s < _spec.spines; ++s) {
            bool spine_local =
                PodFabricSpec::spineShard(s, _shards) == _shard;
            std::size_t i = std::size_t(l) * _spec.spines + s;
            std::string base = name() + ".up" + std::to_string(l) +
                               "_" + std::to_string(s);
            if (leaf_local && spine_local) {
                // Both ends here: one ordinary full-duplex link.
                auto link = std::make_unique<EthLink>(
                    host.eventq(), base, _spec.eth);
                link->connect(_leafSw[l], _spineSw[s]);
                _up[i] = _down[i] = link.get();
                _ownedLinks.push_back(std::move(link));
                continue;
            }
            if (leaf_local) {
                // We transmit the up direction into the spine's
                // shard, and pump the down direction out of it.
                auto ch = host.channel<PacketChannel>(chanKey(l, s, 0));
                auto link = std::make_unique<EthLink>(
                    host.eventq(), base, _spec.eth);
                link->connectRemote(_leafSw[l], ch.get());
                _up[i] = link.get();
                _ownedLinks.push_back(std::move(link));
                _exports.push_back(std::move(ch));

                auto in = host.channel<PacketChannel>(chanKey(l, s, 1));
                in->setTarget(_leafSw[l]);
                host.addIngress(chanKey(l, s, 1), in.get());
            } else if (spine_local) {
                auto ch = host.channel<PacketChannel>(chanKey(l, s, 1));
                auto link = std::make_unique<EthLink>(
                    host.eventq(),
                    name() + ".down" + std::to_string(l) + "_" +
                        std::to_string(s),
                    _spec.eth);
                link->connectRemote(_spineSw[s], ch.get());
                _down[i] = link.get();
                _ownedLinks.push_back(std::move(link));
                _exports.push_back(std::move(ch));

                auto in = host.channel<PacketChannel>(chanKey(l, s, 0));
                in->setTarget(_spineSw[s]);
                host.addIngress(chanKey(l, s, 0), in.get());
            }
        }
    }
}

void
PodFabricShard::installRoutes()
{
    // Every route for every node in the spec is installed up front —
    // node ids are procedural, so no attachment gossip is needed.
    for (std::uint32_t l = 0; l < _spec.totalLeaves(); ++l) {
        if (!_leafSw[l])
            continue;
        // ECMP members in spine order, always fully live: identical
        // groups (hence identical flow hashing) at any shard count.
        std::vector<EthLink *> members;
        members.reserve(_spec.spines);
        for (std::uint32_t s = 0; s < _spec.spines; ++s)
            members.push_back(_up[std::size_t(l) * _spec.spines + s]);
        for (std::uint32_t n = 0; n < _spec.totalNodes(); ++n) {
            if (_spec.leafOf(n) == l)
                continue; // local delivery route installed by attach()
            _leafSw[l]->addEcmpRoute(n, members);
        }
    }
    for (std::uint32_t s = 0; s < _spec.spines; ++s) {
        if (!_spineSw[s])
            continue;
        for (std::uint32_t n = 0; n < _spec.totalNodes(); ++n) {
            std::uint32_t l = _spec.leafOf(n);
            _spineSw[s]->addRoute(
                n, _down[std::size_t(l) * _spec.spines + s]);
        }
    }
}

EthLink &
PodFabricShard::attach(std::uint32_t node_id, NetEndpoint *ep)
{
    ND_ASSERT(ep);
    ND_ASSERT(node_id < _spec.totalNodes());
    ND_ASSERT(ownsNode(node_id));
    std::uint32_t l = _spec.leafOf(node_id);
    auto link = std::make_unique<EthLink>(
        eventq(), name() + ".access" + std::to_string(node_id),
        _spec.eth);
    link->connect(_leafSw[l], ep);
    EthLink *access = link.get();
    _access.push_back(std::move(link));
    _leafSw[l]->addRoute(node_id, access);
    return *access;
}

Switch &
PodFabricShard::leaf(std::uint32_t l)
{
    ND_ASSERT(l < _leafSw.size() && _leafSw[l]);
    return *_leafSw[l];
}

Switch &
PodFabricShard::spine(std::uint32_t s)
{
    ND_ASSERT(s < _spineSw.size() && _spineSw[s]);
    return *_spineSw[s];
}

std::uint64_t
PodFabricShard::fabricFrames() const
{
    std::uint64_t total = 0;
    for (const auto &sw : _ownedSwitches)
        total += sw->framesForwarded();
    return total;
}

std::uint64_t
PodFabricShard::framesExported() const
{
    std::uint64_t total = 0;
    for (const auto &ch : _exports)
        total += ch->framesPushed();
    return total;
}

} // namespace netdimm
