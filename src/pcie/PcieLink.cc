#include "pcie/PcieLink.hh"

#include <algorithm>

namespace netdimm
{

Tick
PcieLink::tlpTicks(std::uint32_t payload) const
{
    double bytes = double(payload + PcieConfig::tlpOverheadBytes);
    return Tick(bytes / PcieConfig::bytesPerTick());
}

std::pair<Tick, Tick>
PcieLink::sendTrain(std::uint32_t bytes, PcieDir dir, Tick earliest)
{
    int d = (dir == PcieDir::Downstream) ? 0 : 1;
    std::uint32_t left = bytes;
    Tick first_start = 0;
    Tick last_arrival = 0;
    bool first = true;
    do {
        std::uint32_t chunk = std::min(left, PcieConfig::maxPayloadBytes);
        Tick start = std::max({earliest, curTick(), _txFree[d]});
        Tick ser = tlpTicks(chunk);
        _txFree[d] = start + ser;
        last_arrival = start + ser + PcieConfig::propagation;
        if (first) {
            first_start = start;
            first = false;
        }
        _tlps.inc();
        _payload.inc(chunk);
        left -= chunk;
    } while (left > 0);
    return {first_start, last_arrival};
}

Tick
PcieLink::postedWrite(std::uint32_t bytes, PcieDir dir,
                      Completion onArrive)
{
    auto [start, arrival] =
        sendTrain(bytes, dir, curTick());
    if (onArrive) {
        eventq().schedule(arrival, [cb = std::move(onArrive), arrival] {
            cb(arrival);
        });
    }
    return start;
}

void
PcieLink::sendHeader(PcieDir dir, Completion onArrive)
{
    auto [s, arrival] = sendTrain(0, dir, curTick());
    (void)s;
    if (onArrive) {
        eventq().schedule(arrival, [cb = std::move(onArrive), arrival] {
            cb(arrival);
        });
    }
}

void
PcieLink::read(std::uint32_t bytes, PcieDir dir, Completion onComplete)
{
    // Request TLP (header only) in @p dir; the endpoint turns it into
    // completion TLPs in the opposite direction. Large reads split at
    // the maximum read request size, each chunk producing its own
    // completion train; we approximate by issuing one request per
    // maxReadReq chunk back to back.
    PcieDir back = (dir == PcieDir::Downstream) ? PcieDir::Upstream
                                                : PcieDir::Downstream;
    std::uint32_t nreq =
        std::max(1u, (bytes + PcieConfig::maxReadReqBytes - 1) /
                         PcieConfig::maxReadReqBytes);
    Tick req_arrival = 0;
    for (std::uint32_t i = 0; i < nreq; ++i) {
        auto [s, a] = sendTrain(0, dir, curTick());
        (void)s;
        req_arrival = std::max(req_arrival, a);
    }
    auto [cs, completion] =
        sendTrain(std::max(bytes, 1u), back, req_arrival);
    (void)cs;
    if (onComplete) {
        eventq().schedule(completion,
                          [cb = std::move(onComplete), completion] {
                              cb(completion);
                          });
    }
}

Tick
PcieLink::idealPostedLatency(std::uint32_t bytes) const
{
    std::uint32_t left = bytes;
    Tick ser = 0;
    do {
        std::uint32_t chunk = std::min(left, PcieConfig::maxPayloadBytes);
        ser += tlpTicks(chunk);
        left -= chunk;
    } while (left > 0);
    return ser + PcieConfig::propagation;
}

Tick
PcieLink::idealReadLatency(std::uint32_t bytes) const
{
    return tlpTicks(0) + PcieConfig::propagation +
           idealPostedLatency(std::max(bytes, 1u));
}

} // namespace netdimm
