/**
 * @file
 * Abstract NIC device model.
 *
 * A NicDevice owns the hardware side of packet TX/RX: reacting to the
 * driver's doorbell, fetching descriptors and payload via its DMA
 * path, pushing frames onto the wire, and landing received frames in
 * host-visible memory. Concrete subclasses differ in *where* the NIC
 * sits (PCIe endpoint, on-die agent, NetDIMM buffer device) and hence
 * in the cost of every host interaction.
 */

#ifndef NETDIMM_NIC_NICDEVICE_HH
#define NETDIMM_NIC_NICDEVICE_HH

#include <deque>
#include <functional>

#include "net/Link.hh"
#include "net/Packet.hh"
#include "nic/DescriptorRing.hh"
#include "sim/Fault.hh"
#include "sim/SimObject.hh"
#include "sim/Stats.hh"
#include "sim/SystemConfig.hh"

namespace netdimm
{

class NicDevice : public SimObject, public NetEndpoint
{
  public:
    /**
     * Driver-side notification that a received packet's descriptor
     * became host visible at the given tick.
     */
    using RxNotify = std::function<void(const PacketPtr &, Tick)>;
    /** Notification that a TX frame left the NIC (ring cleanup). */
    using TxNotify = std::function<void(const PacketPtr &, Tick)>;

    NicDevice(EventQueue &eq, std::string name, const SystemConfig &cfg)
        : SimObject(eq, std::move(name)), _cfg(cfg)
    {}

    /**
     * The wire attachment: invoked when the NIC starts emitting a
     * frame. Node wiring points this at an EthLink or a ClosFabric.
     */
    void setWire(std::function<void(const PacketPtr &)> wire)
    {
        _wire = std::move(wire);
    }

    void setRxNotify(RxNotify cb) { _rxNotify = std::move(cb); }
    void setTxNotify(TxNotify cb) { _txNotify = std::move(cb); }

    /**
     * Driver handed the NIC a filled TX descriptor (doorbell). The
     * packet's txBufAddr points at the DMA buffer. The model runs
     * the full hardware TX pipeline and attributes latency into
     * pkt->lat.
     */
    virtual void transmit(const PacketPtr &pkt) = 0;

    /**
     * Driver replenishes one RX buffer (address of an RX DMA buffer
     * associated with the next free RX descriptor).
     */
    void
    postRxBuffer(Addr buf)
    {
        if (!_rxRing.full())
            _rxRing.push(buf, curTick());
    }

    /** Wire side: frame arrived (NetEndpoint). */
    void
    deliver(const PacketPtr &pkt) override
    {
        // The MAC verifies the FCS before anything else touches the
        // frame; a corrupted frame is dropped silently.
        if (pkt->corrupted) {
            dropRx(pkt);
            return;
        }
        // A hung (or powered-off) device stops moving frames in
        // either direction.
        if (_hung || _powerDead) {
            dropRx(pkt);
            return;
        }
        rxPath(pkt);
    }

    DescriptorRing &txRing() { return _txRing; }
    DescriptorRing &rxRing() { return _rxRing; }

    // -- fault injection / recovery ------------------------------------
    /** Wire this device's fault rolls to @p domain (nullptr: none).
     *  Probabilities come from the SystemConfig fault block. */
    void setFaultDomain(FaultDomain *domain) { _faults = domain; }
    FaultDomain *faultDomain() { return _faults; }

    /** True while the device ignores doorbells and drops RX. */
    bool hung() const { return _hung; }

    /** Wedge the device deterministically (tests, campaigns). */
    void
    forceHang()
    {
        _hung = true;
        _hangs.inc();
    }

    /**
     * Driver-initiated function reset: clears the hang and zeroes
     * both ring indices (descriptors in flight are discarded; the
     * driver reposts RX buffers and requeues or drops TX skbs).
     */
    virtual void
    reset()
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

    /**
     * Whole-node power failure: stop moving frames until the
     * cold-boot reset(). Unlike forceHang() no fault is booked —
     * the node-level crash domain owns the ledger entry.
     */
    void powerFail() { _powerDead = true; }

    std::uint64_t hangs() const { return _hangs.value(); }
    std::uint64_t resets() const { return _resets.value(); }
    std::uint64_t txDmaDrops() const { return _txDmaDrops.value(); }

    // -- statistics ----------------------------------------------------
    std::uint64_t txFrames() const { return _txFrames.value(); }
    std::uint64_t rxFrames() const { return _rxFrames.value(); }
    std::uint64_t rxDrops() const { return _rxDrops.value(); }

  protected:
    /** Hardware RX pipeline; ends with notifyDriverRx(). */
    virtual void rxPath(const PacketPtr &pkt) = 0;

    /** Emit the frame onto the attached wire. */
    void
    sendToWire(const PacketPtr &pkt)
    {
        ND_ASSERT(_wire);
        _txFrames.inc();
        _wire(pkt);
        // TX descriptor cleanup ("clean TX buffers after a
        // successful transmission"); the driver-side work is folded
        // into its per-packet cycles.
        if (!_txRing.empty())
            _txRing.pop(curTick());
        if (_txNotify)
            _txNotify(pkt, curTick());
    }

    /**
     * Per-doorbell fault rolls at the top of transmit(). @return true
     * when the kick was consumed by a fault: either the device just
     * wedged (descriptors accumulate until the driver watchdog
     * resets it) or the DMA engine dropped this one transaction (the
     * descriptor completes with an error status but no frame reaches
     * the wire -- the transport's RTO path absorbs the loss).
     */
    bool
    faultTxCheck(const PacketPtr &pkt)
    {
        if (_hung || _powerDead)
            return true;
        if (_faults) {
            if (_faults->inject(_cfg.faults.deviceHangProb)) {
                forceHang();
                return true;
            }
            if (_faults->inject(_cfg.faults.dmaDropProb)) {
                _txDmaDrops.inc();
                if (!_txRing.empty())
                    _txRing.pop(curTick());
                if (_txNotify)
                    _txNotify(pkt, curTick());
                // The descriptor-level error completion *is* the
                // recovery: the ring keeps moving and the transport
                // retransmits the payload.
                _faults->noteRecovered();
                return true;
            }
        }
        return false;
    }

    void
    notifyDriverRx(const PacketPtr &pkt, Tick visible)
    {
        _rxFrames.inc();
        if (_rxNotify)
            _rxNotify(pkt, visible);
    }

    void dropRx(const PacketPtr &) { _rxDrops.inc(); }

    const SystemConfig &_cfg;
    DescriptorRing _txRing;
    DescriptorRing _rxRing;

  private:
    std::function<void(const PacketPtr &)> _wire;
    RxNotify _rxNotify;
    TxNotify _txNotify;
    FaultDomain *_faults = nullptr;
    bool _hung = false;
    bool _powerDead = false;
    stats::Scalar _txFrames, _rxFrames, _rxDrops;
    stats::Scalar _hangs, _resets, _txDmaDrops;
};

} // namespace netdimm

#endif // NETDIMM_NIC_NICDEVICE_HH
