#include "mem/MemorySystem.hh"

#include <algorithm>

namespace netdimm
{

MemorySystem::MemorySystem(EventQueue &eq, std::string name,
                           const SystemConfig &cfg)
    : SimObject(eq, std::move(name)), _cfg(cfg),
      _map(cfg.hostMem.totalBytes(), cfg.hostMem.channels,
           /*stripe_bytes=*/256, InterleaveMode::Flex)
{
    // The host geometry describes all channels together; each
    // controller owns one channel's share.
    DramGeometry per_channel = cfg.hostMem;
    per_channel.channels = 1;
    for (std::uint32_t c = 0; c < cfg.hostMem.channels; ++c) {
        _channels.push_back(std::make_unique<MemoryController>(
            eq, this->name() + ".mc" + std::to_string(c), per_channel,
            cfg.memCtrl));
    }
}

Addr
MemorySystem::attachNetDimm(std::uint64_t bytes, std::uint32_t channel,
                            MemTarget &handler)
{
    Addr base = _map.addNetDimmRegion(bytes, channel);
    _regions.push_back(RegionHandler{&handler});
    return base;
}

void
MemorySystem::routeOne(const MemRequestPtr &req)
{
    ChannelRoute route = _map.route(req->addr);
    if (route.isNetDimm) {
        ND_ASSERT(route.netDimmIndex < _regions.size());
        _regions[route.netDimmIndex].target->access(req);
    } else {
        _channels[route.channel]->access(req);
    }
}

void
MemorySystem::access(const MemRequestPtr &req)
{
    ND_ASSERT(req && req->size > 0);

    // Fast path: the whole request stays within one route (always the
    // case for NetDIMM regions, which are single-channel, and for
    // conventional accesses inside one stripe).
    ChannelRoute first = _map.route(req->addr);
    ChannelRoute last = _map.route(req->addr + req->size - 1);
    if (first.channel == last.channel &&
        first.isNetDimm == last.isNetDimm &&
        first.netDimmIndex == last.netDimmIndex) {
        routeOne(req);
        return;
    }

    // Split across stripes; join completions, reporting the latest.
    struct Join
    {
        std::uint32_t left = 0;
        Tick lastDone = 0;
        MemRequest::Completion cb;
    };
    // The original request is replaced by the parts; steal its
    // completion (move — Completion is move-only and inline).
    auto join = std::allocate_shared<Join>(PoolAlloc<Join>{});
    join->cb = std::move(req->onDone);

    Addr end = req->addr + req->size;
    // Two passes so the join count is final before any part is
    // routed, without buffering the parts in a heap-allocated vector:
    // first count the route extents, then create and route each part.
    auto partEnd = [&](Addr cursor) {
        ChannelRoute r = _map.route(cursor);
        // Extent of this route: up to the next stripe boundary for
        // conventional memory; NetDIMM regions are contiguous.
        if (r.isNetDimm) {
            return std::min<Addr>(end,
                                  _map.netDimmBase(r.netDimmIndex) +
                                      _map.netDimmSize(r.netDimmIndex));
        }
        Addr stripe = 256;
        return std::min<Addr>(end, (cursor / stripe + 1) * stripe);
    };
    std::uint32_t nparts = 0;
    for (Addr cursor = req->addr; cursor < end; cursor = partEnd(cursor))
        ++nparts;
    join->left = nparts;
    for (Addr cursor = req->addr; cursor < end;) {
        Addr part_end = partEnd(cursor);
        auto part = makeMemRequest(
            cursor, std::uint32_t(part_end - cursor), req->write,
            req->source, [join](Tick done) {
                join->lastDone = std::max(join->lastDone, done);
                if (--join->left == 0 && join->cb)
                    join->cb(join->lastDone);
            });
        routeOne(part);
        cursor = part_end;
    }
}

double
MemorySystem::hostCpuReadLatencyNs() const
{
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto &ch : _channels) {
        const auto &st = ch->sourceStats(MemSource::HostCpu);
        sum += st.readLatencyNs.sum();
        n += st.readLatencyNs.count();
    }
    return n ? sum / double(n) : 0.0;
}

} // namespace netdimm
