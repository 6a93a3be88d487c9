#include "netdimm/NetDimmDevice.hh"

#include <algorithm>

namespace netdimm
{

DramGeometry
NetDimmDevice::localGeometry()
{
    // One local channel; the Fig. 9 rank layout with the NetDIMM's
    // ranks.
    DramGeometry geo;
    geo.channels = 1;
    geo.ranksPerChannel = NetDimmConfig::localRanks;
    return geo;
}

NetDimmDevice::NetDimmDevice(EventQueue &eq, std::string name,
                             const SystemConfig &cfg,
                             MemoryController &host_channel)
    : NvdimmPDevice(eq, std::move(name), cfg, host_channel),
      _ncache(cfg.netdimm, cfg.seed ^ 0x9E3779B9u)
{
    _localMc = std::make_unique<MemoryController>(
        eq, this->name() + ".nmc", localGeometry(), cfg.memCtrl);
    _rowClone = std::make_unique<RowCloneEngine>(
        eq, this->name() + ".rowclone", *_localMc);
    _txRing.init(0, NicModelConfig::ringEntries);
    _rxRing.init(0, NicModelConfig::ringEntries);
    if (cfg.handler.enabled) {
        _handlers = std::make_unique<HandlerStage>(
            eq, this->name() + ".handlers", cfg, *_localMc,
            localBytes());
        _handlers->setTx([this](const PacketPtr &resp) {
            ND_ASSERT(_wire);
            _wire(resp);
        });
        _handlers->setHostRx(
            [this](const PacketPtr &pkt) { hostDeliver(pkt); });
    }
}

std::uint64_t
NetDimmDevice::localBytes() const
{
    return localGeometry().channelBytes();
}

Addr
NetDimmDevice::local(Addr host_phys) const
{
    ND_ASSERT(host_phys >= _regionBase);
    Addr off = host_phys - _regionBase;
    ND_ASSERT(off < localBytes());
    return off;
}

bool
NetDimmDevice::isRegisterAccess(Addr host_phys) const
{
    return host_phys >= _regionBase + localBytes();
}

Tick
NetDimmDevice::idealMediaLatency() const
{
    // Best case: the line sits in nCache.
    return config().netdimm.controllerLatency +
           config().netdimm.nCacheLatency;
}

void
NetDimmDevice::prefetch(Addr line_local)
{
    const NetDimmConfig &nd = config().netdimm;
    std::uint64_t cap = localBytes();
    for (std::uint32_t i = 1; i <= nd.prefetchDepth; ++i) {
        Addr a = line_local + Addr(i) * cachelineBytes;
        if (a >= cap || _ncache.probe(a))
            continue;
        _prefetches.inc();
        auto req = makeMemRequest(a, cachelineBytes, false,
                                  MemSource::Prefetch,
                                  [this, a](Tick) {
                                      _ncache.insert(a, false);
                                  });
        _localMc->access(req);
    }
}

void
NetDimmDevice::mediaRead(const MemRequestPtr &req,
                         MemRequest::Completion done)
{
    Addr base = local(req->addr);
    Addr first = base & ~Addr(cachelineBytes - 1);
    Addr last = (base + req->size - 1) & ~Addr(cachelineBytes - 1);

    std::uint32_t missing = 0;
    Addr first_miss = 0;
    for (Addr a = first; a <= last; a += cachelineBytes) {
        bool sequential = (a == _lastHostReadLine + cachelineBytes) ||
                          a != first; // inner lines of a burst
        NCache::ReadResult r = _ncache.consume(a);
        _lastHostReadLine = a;
        if (r.hit) {
            // Payload lines (header flag clear) arm the next-line
            // prefetcher; header lines do not, so header-only
            // consumers (e.g. L3 forwarding) never pollute nCache.
            if (!r.wasHeader)
                prefetch(a);
        } else {
            // A miss arms the prefetcher only when it extends a
            // sequential host read stream (the Fig. 7 DMA-buffer
            // pattern); isolated misses (descriptor polls, random
            // reads) do not.
            if (sequential)
                prefetch(a);
            if (missing == 0)
                first_miss = a;
            ++missing;
        }
    }

    Tick ctrl = config().netdimm.controllerLatency;
    if (missing == 0) {
        Tick ready = curTick() + ctrl + config().netdimm.nCacheLatency;
        eventq().schedule(ready,
                          [done = std::move(done), ready] { done(ready); });
        return;
    }
    // The completion rides the media request directly (a Completion
    // cannot nest inside another inline Completion's capture).
    auto media = makeMemRequest(first_miss, missing * cachelineBytes,
                                false, req->source, std::move(done));
    eventq().scheduleRel(ctrl, [this, media] { _localMc->access(media); });
}

void
NetDimmDevice::mediaWrite(const MemRequestPtr &req,
                          MemRequest::Completion done)
{
    Addr base = local(req->addr);
    // Snoop: keep nCache coherent with the local DRAM.
    _ncache.invalidate(base, req->size);

    // XWR is posted: the write completes toward the host once the
    // data sits in the nMC write queue. Ordering against later nNIC
    // and host reads is preserved because they flow through the same
    // controller queues; actual retirement into the DRAM proceeds in
    // the background.
    Tick ctrl = config().netdimm.controllerLatency;
    auto media = makeMemRequest(base, req->size, true, req->source,
                                nullptr);
    eventq().scheduleRel(ctrl, [this, media] { _localMc->access(media); });

    Tick accepted = curTick() + ctrl +
                    config().netdimm.asyncProtocolOverhead;
    eventq().schedule(accepted, [done = std::move(done), accepted] {
        done(accepted);
    });
}

void
NetDimmDevice::mediaAccess(const MemRequestPtr &req,
                           MemRequest::Completion done)
{
    if (isRegisterAccess(req->addr)) {
        // Device registers live in the buffer device itself: no nMC
        // round trip, just the controller pipeline.
        Tick ready = curTick() + config().netdimm.controllerLatency;
        eventq().schedule(ready,
                          [done = std::move(done), ready] { done(ready); });
        return;
    }
    if (req->write)
        mediaWrite(req, std::move(done));
    else
        mediaRead(req, std::move(done));
}

void
NetDimmDevice::transmit(const PacketPtr &pkt)
{
    // Per-kick fault rolls: the device can wedge (descriptors
    // accumulate until the driver watchdog resets it) or its DMA
    // engine can drop this one transaction (descriptor completes
    // with an error status; the transport retransmits).
    if (_hung || _powerDead)
        return;
    if (_faults) {
        if (_faults->inject(config().faults.deviceHangProb)) {
            forceHang();
            return;
        }
        if (_faults->inject(config().faults.dmaDropProb)) {
            _txDmaDrops.inc();
            if (!_txRing.empty())
                _txRing.pop(curTick());
            if (_txNotify)
                _txNotify(pkt, curTick());
            _faults->noteRecovered();
            return;
        }
    }

    Tick t0 = curTick();
    Addr desc_local = local(_txRing.descAddr(_txRing.tail()));
    Addr buf_local = local(pkt->txBufAddr);
    Tick ctrl = config().netdimm.controllerLatency;

    // nController notices the kick, fetches the descriptor via nMC.
    auto desc_req = makeMemRequest(
        desc_local, DescriptorRing::descBytes, false,
        MemSource::NetDimmNic, [this, pkt, t0, buf_local](Tick) {
            // Payload DMA entirely on the local channel.
            auto data_req = makeMemRequest(buf_local, pkt->bytes,
                                           false, MemSource::NetDimmNic,
                                           nullptr);
            // The completion captures the raw request pointer (kept
            // alive by the controller during the callback) to check
            // the poison flag without a shared_ptr cycle.
            data_req->onDone = [this, pkt, t0,
                                raw = data_req.get()](Tick t2) {
                if (raw->poisoned) {
                    // Uncorrectable ECC under the payload: the frame
                    // must not leave the machine with bad data. Drop
                    // it at the descriptor level; the transport's RTO
                    // resends from the (intact) application buffer.
                    _txPoisonDrops.inc();
                    if (!_txRing.empty())
                        _txRing.pop(curTick());
                    if (_txNotify)
                        _txNotify(pkt, curTick());
                    if (FaultDomain *d = _localMc->faultDomain())
                        d->noteRecovered();
                    return;
                }
                Tick pipe = NicModelConfig::pipelineLatency;
                pkt->lat.add(LatComp::TxDma, (t2 + pipe) - t0);
                _txFrames.inc();
                eventq().schedule(t2 + pipe, [this, pkt] {
                    ND_ASSERT(_wire);
                    // TX descriptor cleanup after transmission.
                    if (!_txRing.empty())
                        _txRing.pop(curTick());
                    _wire(pkt);
                    if (_txNotify)
                        _txNotify(pkt, curTick());
                });
            };
            _localMc->access(data_req);
        });
    eventq().scheduleRel(ctrl, [this, desc_req] {
        _localMc->access(desc_req);
    });
}

void
NetDimmDevice::reset()
{
    // A reset that clears an injected hang closes that fault's
    // ledger entry.
    if (_hung && _faults)
        _faults->noteRecovered();
    _hung = false;
    _powerDead = false;
    _resets.inc();
    _txRing.init(_txRing.base(), _txRing.entries());
    _rxRing.init(_rxRing.base(), _rxRing.entries());
}

void
NetDimmDevice::powerFail()
{
    _powerDead = true;
    _ncache.wipe();
    if (_handlers)
        _handlers->powerCycle();
}

void
NetDimmDevice::postRxBuffer(Addr buf)
{
    if (!_rxRing.full())
        _rxRing.push(buf, curTick());
}

void
NetDimmDevice::deliver(const PacketPtr &pkt)
{
    // nNIC MAC drops corrupted frames at the FCS check.
    if (pkt->corrupted) {
        _rxDrops.inc();
        return;
    }
    // A hung (or powered-off) device moves no frames either way.
    if (_hung || _powerDead) {
        _rxDrops.inc();
        return;
    }
    // The handler stage classifies at line rate in the nNIC parser;
    // a matched frame with a free run-queue slot never touches the
    // host RX ring. Overflow and non-matching frames fall through.
    if (_handlers && _handlers->offer(pkt))
        return;
    hostDeliver(pkt);
}

void
NetDimmDevice::hostDeliver(const PacketPtr &pkt)
{
    if (_rxRing.empty()) {
        _rxDrops.inc();
        return;
    }
    Tick t0 = curTick();
    Addr buf = _rxRing.pop(curTick());
    pkt->rxBufAddr = buf;
    Addr buf_local = local(buf);
    Addr desc_local = local(_rxRing.descAddr(_rxRing.head()));

    Tick pipe = NicModelConfig::pipelineLatency;
    Tick ctrl = config().netdimm.controllerLatency;

    // nNIC MAC pipeline, then nController drains the RX buffer into
    // the local DRAM. The first cacheline (the packet header) is also
    // written into nCache with the header flag set.
    scheduleRel(pipe + ctrl, [this, pkt, t0, buf_local, desc_local] {
        auto data_req = makeMemRequest(
            buf_local, pkt->bytes, true, MemSource::NetDimmNic,
            [this, pkt, t0, buf_local, desc_local](Tick) {
                _ncache.insert(buf_local, /*is_header=*/true);

                // Descriptor status writeback; the descriptor line is
                // also host-read-once, so it goes to nCache too and
                // the polling driver's next read hits SRAM instead of
                // the local DRAM. It carries the header flag so its
                // consumption never arms the prefetcher.
                auto desc_req = makeMemRequest(
                    desc_local, DescriptorRing::descBytes, true,
                    MemSource::NetDimmNic,
                    [this, pkt, t0, desc_local](Tick t3) {
                        _ncache.insert(desc_local, true);
                        pkt->lat.add(LatComp::RxDma, t3 - t0);
                        _rxFrames.inc();
                        if (_rxNotify)
                            _rxNotify(pkt, t3);
                    });
                _localMc->access(desc_req);
            });
        _localMc->access(data_req);
    });
}

void
NetDimmDevice::cloneBuffer(Addr dst, Addr src, std::uint32_t size,
                           CloneDone cb)
{
    Addr src_local = local(src);
    Addr dst_local = local(dst);
    _ncache.invalidate(dst_local, size);
    scheduleRel(config().netdimm.controllerLatency,
                [this, src_local, dst_local, size,
                 cb = std::move(cb)]() mutable {
                    _rowClone->clone(src_local, dst_local, size,
                                     std::move(cb));
                });
}

} // namespace netdimm
