#include "net/Switch.hh"

#include <algorithm>

namespace netdimm
{

Switch::Switch(EventQueue &eq, std::string name, Tick port_latency,
               std::uint32_t queue_frames, std::uint32_t ecn_threshold)
    : SimObject(eq, std::move(name)), _portLatency(port_latency),
      _queueFrames(queue_frames), _ecnThreshold(ecn_threshold)
{
}

Switch::Switch(EventQueue &eq, std::string name, const EthConfig &cfg)
    : Switch(eq, std::move(name), cfg.switchLatency,
             cfg.switchQueueFrames, cfg.ecnThresholdFrames)
{
}

Switch::EcmpGroup
Switch::makeGroup(const std::vector<EthLink *> &members)
{
    EcmpGroup g;
    g.members = members;
    g.live.reserve(members.size());
    for (EthLink *m : members) {
        ND_ASSERT(m);
        g.live.push_back(m->up());
        watch(m);
    }
    return g;
}

void
Switch::addRoute(std::uint32_t node_id, EthLink *out)
{
    ND_ASSERT(out);
    _routes.add(node_id, makeGroup({out}));
}

void
Switch::addEcmpRoute(std::uint32_t node_id,
                     const std::vector<EthLink *> &members)
{
    _routes.add(node_id, makeGroup(members));
}

void
Switch::watch(EthLink *link)
{
    if (!_watched.insert(link).second)
        return;
    link->addStateListener(
        [this](EthLink &l, bool up) { onLinkState(l, up); });
}

void
Switch::onLinkState(EthLink &link, bool up)
{
    for (auto &[node, g] : _routes)
        for (std::size_t i = 0; i < g.members.size(); ++i)
            if (g.members[i] == &link)
                g.live[i] = up;

    if (!up) {
        // Frames already queued toward the dead link can never leave;
        // real switches flush them (and the transport retransmits).
        auto it = _ports.find(&link);
        if (it != _ports.end() && !it->second.queue.empty()) {
            _dropsLinkDown.inc(it->second.queue.size());
            debugLog("%s: flushing %zu frames queued toward dead "
                     "link %s",
                     name().c_str(), it->second.queue.size(),
                     link.name().c_str());
            it->second.queue.clear();
        }
    }
}

void
Switch::setBackgroundSource(EthLink *out, FluidBackground *bg)
{
    if (bg)
        _bg[out] = bg;
    else
        _bg.erase(out);
}

std::uint32_t
Switch::degradedGroups() const
{
    std::uint32_t n = 0;
    for (const auto &[node, group] : _routes)
        if (group.liveCount() == 0)
            ++n;
    return n;
}

std::uint32_t
Switch::totalGroups() const
{
    return std::uint32_t(_routes.size());
}

std::size_t
Switch::liveMembers(std::uint32_t node_id)
{
    EcmpGroup *g = _routes.resolve(node_id);
    return g ? g->liveCount() : 0;
}

EthLink *
Switch::selectMember(EcmpGroup &g, const PacketPtr &pkt) const
{
    std::size_t live = g.liveCount();
    if (live == 0)
        return nullptr;
    if (live == g.members.size() && live == 1)
        return g.members[0];
    // Hash over the live members only: the k-th live member, where k
    // is a pure function of the packet's flow-identifying fields. A
    // member death re-maps only the flows that hashed to it (plus the
    // unavoidable modulus reshuffle).
    std::size_t k = std::size_t(
        ecmpFlowHash(pkt->srcNode, pkt->dstNode, pkt->flowId) % live);
    for (std::size_t i = 0; i < g.members.size(); ++i) {
        if (!g.live[i])
            continue;
        if (k == 0)
            return g.members[i];
        --k;
    }
    return nullptr; // unreachable: k < live
}

void
Switch::deliver(const PacketPtr &pkt)
{
    EcmpGroup *g = _routes.resolve(pkt->dstNode);
    if (!g) {
        _routes.noteNoRoute();
        debugLog("%s: no route for node %u, dropping frame %llu",
                 name().c_str(), pkt->dstNode,
                 static_cast<unsigned long long>(pkt->id));
        return;
    }
    EthLink *out = selectMember(*g, pkt);
    if (!out) {
        _dropsNoPath.inc();
        debugLog("%s: every path to node %u is down, dropping frame "
                 "%llu",
                 name().c_str(), pkt->dstNode,
                 static_cast<unsigned long long>(pkt->id));
        return;
    }

    pkt->lat.add(LatComp::Wire, _portLatency);
    EthLink *link = out;
    scheduleRel(_portLatency,
                [this, link, pkt] { enqueue(link, pkt); });
}

void
Switch::enqueue(EthLink *out, const PacketPtr &pkt)
{
    // The egress link may have died between lookup and enqueue; the
    // port-latency pipeline cannot un-route the frame, so it is lost
    // exactly like a frame flushed from the queue.
    if (!out->up()) {
        _dropsLinkDown.inc();
        return;
    }
    Port &port = _ports[out];
    // Occupancy counts the frame on the transmitter plus the queue.
    std::size_t depth = port.queue.size() + (port.draining ? 1 : 0);
    if (!_bg.empty()) {
        auto it = _bg.find(out);
        if (it != _bg.end() && it->second)
            depth += it->second->backlogFramesAt(curTick());
    }
    if (_queueFrames > 0 && depth >= _queueFrames) {
        _dropsQueue.inc();
        debugLog("%s: egress queue to %s full (%zu), tail-dropping "
                 "frame %llu",
                 name().c_str(), out->name().c_str(), depth,
                 static_cast<unsigned long long>(pkt->id));
        return;
    }
    if (_ecnThreshold > 0 && depth >= _ecnThreshold) {
        pkt->ecnMarked = true;
        _ecnMarks.inc();
    }
    _frames.inc();
    _maxDepth = std::max<std::uint64_t>(_maxDepth, depth + 1);
    port.queue.push_back(pkt);
    if (!port.draining)
        drain(out);
}

void
Switch::drain(EthLink *out)
{
    Port &port = _ports.at(out);
    if (port.queue.empty()) {
        port.draining = false;
        return;
    }
    port.draining = true;
    PacketPtr pkt = port.queue.front();
    port.queue.pop_front();
    out->send(this, pkt);
    // The next frame may start once this one finished serializing.
    scheduleRel(out->frameTicks(pkt->bytes),
                [this, out] { drain(out); });
}

std::uint32_t
localityHops(TrafficLocality loc)
{
    switch (loc) {
      case TrafficLocality::IntraRack:
        return 1;
      case TrafficLocality::IntraCluster:
        return 3;
      case TrafficLocality::IntraDatacenter:
        return 5;
      case TrafficLocality::InterDatacenter:
        return 7;
    }
    return 1;
}

Tick
localityPropagation(TrafficLocality loc)
{
    switch (loc) {
      case TrafficLocality::IntraRack:
        return nsToTicks(25);
      case TrafficLocality::IntraCluster:
        return nsToTicks(150);
      case TrafficLocality::IntraDatacenter:
        return nsToTicks(600);
      case TrafficLocality::InterDatacenter:
        // Campus-scale DC pair (a metro pair would add tens of
        // microseconds and drown every endpoint effect).
        return usToTicks(1.5);
    }
    return 0;
}

ClosFabric::ClosFabric(EventQueue &eq, std::string name,
                       const EthConfig &cfg)
    : SimObject(eq, std::move(name)), _cfg(cfg)
{
}

void
ClosFabric::attach(std::uint32_t node_id, NetEndpoint *ep)
{
    ND_ASSERT(ep);
    _routes.add(node_id, ep);
}

Tick
ClosFabric::pathDelay(std::uint32_t bytes, TrafficLocality loc) const
{
    std::uint32_t hops = localityHops(loc);
    std::uint32_t frame =
        std::max(bytes, _cfg.minFrameBytes) + _cfg.framingBytes;
    // Store-and-forward: every hop re-serializes the frame and adds
    // its port-to-port latency.
    Tick per_hop =
        serializationTicks(frame, _cfg.gbps) + _cfg.switchLatency;
    return Tick(hops) * per_hop + localityPropagation(loc) +
           _cfg.macLatency;
}

void
ClosFabric::forward(const PacketPtr &pkt, TrafficLocality loc)
{
    NetEndpoint **route = _routes.resolve(pkt->dstNode);
    if (!route) {
        // A frame to a node the fabric does not know is the network
        // equivalent of a misdelivered packet: real fabrics drop it
        // (and a reliable transport retransmits or gives up); only a
        // simulator bug makes it fatal. Warn once, count, drop.
        if (_routes.dropsNoRoute() == 0)
            warn("%s: unattached node %u, dropping (counted in "
                 "dropsNoRoute)",
                 name().c_str(), pkt->dstNode);
        _routes.noteNoRoute();
        return;
    }

    Tick delay = pathDelay(pkt->bytes, loc);
    pkt->lat.add(LatComp::Wire, delay);
    _frames.inc();
    NetEndpoint *dst = *route;
    scheduleRel(delay, [dst, pkt] { dst->deliver(pkt); });
}

void
ClosFabric::deliver(const PacketPtr &pkt)
{
    forward(pkt, TrafficLocality::IntraCluster);
}

} // namespace netdimm
