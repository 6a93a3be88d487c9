#include "nvdimm/NvdimmDevice.hh"

#include <algorithm>

namespace netdimm
{

NvdimmPDevice::NvdimmPDevice(EventQueue &eq, std::string name,
                             const SystemConfig &cfg,
                             MemoryController &host_channel,
                             std::uint32_t max_ids)
    : SimObject(eq, std::move(name)), _cfg(cfg), _host(host_channel),
      _maxIds(max_ids)
{
    ND_ASSERT(max_ids > 0);
}

Tick
NvdimmPDevice::dqBurstTicks(std::uint32_t bytes) const
{
    std::uint32_t beats = (bytes + cachelineBytes - 1) / cachelineBytes;
    return Tick(beats) * DramTiming::clocks(DramTiming::tBURST);
}

void
NvdimmPDevice::access(const MemRequestPtr &req)
{
    ND_ASSERT(req && req->size > 0);
    req->issued = curTick();
    if (_inFlight >= _maxIds) {
        _idStalls.inc();
        _stalled.push_back(req);
        return;
    }
    ++_inFlight;
    start(req);
}

void
NvdimmPDevice::start(const MemRequestPtr &req)
{
    // Host MC frontend (queueing/decode) + XRD/XWR command slot. The
    // command travels on CA; writes additionally push their data on DQ
    // right behind the command.
    Tick cmd_at = curTick() + MemCtrlConfig::frontendLatency +
                  DramTiming::clocks(DramTiming::tCMD);
    if (req->write) {
        Tick slot = _host.reserveBus(cmd_at, dqBurstTicks(req->size));
        cmd_at = slot + dqBurstTicks(req->size);
    }
    Tick at_device = cmd_at + MemCtrlConfig::backendLatency;

    auto self = this;
    eventq().schedule(at_device, [self, req] {
        self->mediaAccess(req, [self, req](Tick ready) {
            self->finish(req, ready);
        });
    });

    if (req->write)
        _hostWrites.inc();
    else
        _hostReads.inc();
}

void
NvdimmPDevice::finish(const MemRequestPtr &req, Tick media_ready)
{
    Tick done;
    if (req->write) {
        // Posted from the channel's perspective; completion callback
        // fires when the media accepted the data (flush semantics).
        done = media_ready;
    } else {
        // RDY -> SEND handshake, then the data burst on the host DQ.
        Tick rdy = media_ready + NetDimmConfig::asyncProtocolOverhead;
        Tick slot = _host.reserveBus(rdy, dqBurstTicks(req->size));
        done = slot + dqBurstTicks(req->size) +
               MemCtrlConfig::backendLatency;
    }

    eventq().schedule(done, [this, req, done] {
        if (req->onDone)
            req->onDone(done);
        ND_ASSERT(_inFlight > 0);
        --_inFlight;
        if (!_stalled.empty() && _inFlight < _maxIds) {
            MemRequestPtr next = _stalled.front();
            _stalled.pop_front();
            ++_inFlight;
            start(next);
        }
    });
}

Tick
NvdimmPDevice::idealHostReadLatency() const
{
    return MemCtrlConfig::frontendLatency +
           DramTiming::clocks(DramTiming::tCMD) +
           MemCtrlConfig::backendLatency + idealMediaLatency() +
           NetDimmConfig::asyncProtocolOverhead +
           dqBurstTicks(cachelineBytes) + MemCtrlConfig::backendLatency;
}

} // namespace netdimm
