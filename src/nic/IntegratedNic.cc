#include "nic/IntegratedNic.hh"

namespace netdimm
{

IntegratedNic::IntegratedNic(EventQueue &eq, std::string name,
                             const SystemConfig &cfg, Llc &llc,
                             MemTarget &mem)
    : NicDevice(eq, std::move(name), cfg), _llc(llc), _mem(mem)
{
    _txRing.init(0, NicModelConfig::ringEntries);
    _rxRing.init(0, NicModelConfig::ringEntries);
}

void
IntegratedNic::transmit(const PacketPtr &pkt)
{
    if (faultTxCheck(pkt))
        return;

    Tick t0 = curTick();
    Addr desc_addr = _txRing.descAddr(_txRing.tail());
    Tick reg = NicModelConfig::onDieRegLatency;

    // T1 status-register check + doorbell: two uncore register
    // round trips (uncached mapping).
    Tick dma_ovh = NicModelConfig::dmaEngineOverhead;
    scheduleRel(2 * reg, [this, pkt, t0, desc_addr, dma_ovh] {
        Tick t1 = curTick();
        pkt->lat.add(LatComp::IoReg, t1 - t0);

        // Descriptor fetch from memory (the driver's stores have
        // drained by DMA time; the uncore agent reads DRAM), each
        // DMA transaction paying the coherent-traversal overhead.
        scheduleRel(dma_ovh, [this, pkt, t1, desc_addr, dma_ovh] {
            auto desc = makeMemRequest(
                desc_addr, DescriptorRing::descBytes, false,
                MemSource::HostDma,
                [this, pkt, t1, dma_ovh](Tick) {
                    // Payload fetch through the LLC / memory system.
                    scheduleRel(dma_ovh, [this, pkt, t1] {
                        _llc.dmaRead(pkt->txBufAddr, pkt->bytes,
                                     MemSource::HostDma,
                                     [this, pkt, t1](Tick t3) {
                            Tick pipe = NicModelConfig::pipelineLatency;
                            pkt->lat.add(LatComp::TxDma,
                                         (t3 + pipe) - t1);
                            scheduleRel(pipe, [this, pkt] {
                                sendToWire(pkt);
                            });
                        });
                    });
                });
            _mem.access(desc);
        });
    });
}

void
IntegratedNic::rxPath(const PacketPtr &pkt)
{
    if (_rxRing.empty()) {
        dropRx(pkt);
        return;
    }
    Tick t0 = curTick();
    Addr buf = _rxRing.pop(curTick());
    pkt->rxBufAddr = buf;
    Addr desc_addr = _rxRing.descAddr(_rxRing.head());

    Tick pipe = NicModelConfig::pipelineLatency;
    Tick dma_ovh = NicModelConfig::dmaEngineOverhead;
    scheduleRel(pipe + dma_ovh, [this, pkt, t0, buf, desc_addr,
                                 dma_ovh] {
        // The on-die agent fetches the next RX descriptor from
        // memory per arrival (no descriptor-prefetch block), ...
        auto rx_desc = makeMemRequest(
            desc_addr, DescriptorRing::descBytes, false,
            MemSource::HostDma,
            [this, pkt, t0, buf, desc_addr, dma_ovh](Tick) {
                // ... lands the whole frame in the LLC (header +
                // payload), then the descriptor status writeback
                // makes it host visible; each transaction pays the
                // coherent-traversal overhead.
                scheduleRel(dma_ovh, [this, pkt, t0, buf, desc_addr,
                                      dma_ovh] {
                    _llc.dmaWrite(buf, pkt->bytes, MemSource::HostDma,
                                  [this, pkt, t0, desc_addr,
                                   dma_ovh](Tick) {
                        scheduleRel(dma_ovh, [this, pkt, t0,
                                              desc_addr] {
                            _llc.dmaWrite(desc_addr,
                                          DescriptorRing::descBytes,
                                          MemSource::HostDma,
                                          [this, pkt, t0](Tick t2) {
                                pkt->lat.add(LatComp::RxDma, t2 - t0);
                                notifyDriverRx(pkt, t2);
                            });
                        });
                    });
                });
            });
        _mem.access(rx_desc);
    });
}

} // namespace netdimm
