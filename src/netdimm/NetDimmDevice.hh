/**
 * @file
 * NetDIMM: the buffer device of a DIMM hosting a full NIC (Sec. 4.1,
 * Fig. 6). This class assembles the paper's components:
 *
 *  - nNIC      : the Ethernet MAC; here, the NetEndpoint personality
 *                plus the TX/RX pipelines.
 *  - nMC       : a MemoryController instance over the DIMM's local
 *                DRAM ranks (Fig. 9 geometry).
 *  - nController: arbitration + DMA functionality + nCache snooping;
 *                modelled by the controllerLatency charge on every
 *                internal hop and the routing logic in this class.
 *  - nCache    : read-once SRAM buffer for RX headers / prefetches.
 *  - nPrefetcher: next-n-line prefetcher feeding nCache on payload
 *                streams, disabled behind header lines.
 *  - RowClone  : in-memory buffer cloning (FPM/PSM/GCM).
 *
 * Host-side accesses arrive through the NVDIMM-P asynchronous
 * protocol (NvdimmPDevice base), which charges the XRD/RDY/SEND
 * handshake and host-channel DQ occupancy; this class resolves the
 * media side against nCache and the local DRAM.
 *
 * All public addresses are host-physical; the device rebases them
 * against its mapped region internally.
 */

#ifndef NETDIMM_NETDIMM_NETDIMMDEVICE_HH
#define NETDIMM_NETDIMM_NETDIMMDEVICE_HH

#include <functional>

#include "handler/HandlerStage.hh"
#include "mem/RowClone.hh"
#include "net/Link.hh"
#include "net/Packet.hh"
#include "netdimm/NCache.hh"
#include "nic/DescriptorRing.hh"
#include "nvdimm/NvdimmDevice.hh"

namespace netdimm
{

class NetDimmDevice : public NvdimmPDevice, public NetEndpoint
{
  public:
    using RxNotify = std::function<void(const PacketPtr &, Tick)>;
    using TxNotify = std::function<void(const PacketPtr &, Tick)>;
    /** Same inline per-clone callback type as RowCloneEngine. */
    using CloneDone = RowCloneEngine::Completion;

    NetDimmDevice(EventQueue &eq, std::string name,
                  const SystemConfig &cfg,
                  MemoryController &host_channel);

    /** Geometry of the local DRAM (2 ranks of the Fig. 9 layout). */
    static DramGeometry localGeometry();

    /** Local DRAM capacity exposed into the host address space. */
    std::uint64_t localBytes() const;

    /**
     * Size of the host-physical window to map: local DRAM plus one
     * trailing register page (doorbells, netdimmClone registers,
     * status words) that bypasses nMC.
     */
    std::uint64_t
    mappedBytes() const
    {
        return localBytes() + pageBytes;
    }

    /** Host-physical address of the register page. */
    Addr
    regPageAddr() const
    {
        return _regionBase + localBytes();
    }

    /** The host-physical base the MemorySystem mapped us at. */
    void setRegionBase(Addr base) { _regionBase = base; }
    Addr regionBase() const { return _regionBase; }

    // -- NIC personality ----------------------------------------------
    void setWire(std::function<void(const PacketPtr &)> wire)
    {
        _wire = std::move(wire);
    }
    void setRxNotify(RxNotify cb) { _rxNotify = std::move(cb); }
    /** TX completion (frame left nNIC or was dropped by a fault);
     *  the driver uses it to retire in-flight skbs. */
    void setTxNotify(TxNotify cb) { _txNotify = std::move(cb); }

    /**
     * The driver's descriptor kick has landed (it flushed size+flags
     * into the TX descriptor); run the hardware TX pipeline: nMC
     * descriptor fetch, local payload DMA, wire.
     */
    void transmit(const PacketPtr &pkt);

    /** Wire side: frame arrived at nNIC. */
    void deliver(const PacketPtr &pkt) override;

    /** Driver posts an RX DMA buffer (host-physical, in our region). */
    void postRxBuffer(Addr buf);

    DescriptorRing &txRing() { return _txRing; }
    DescriptorRing &rxRing() { return _rxRing; }

    // -- fault injection / recovery -------------------------------------
    /** Wire this device's fault rolls to @p domain (nullptr: none). */
    void setFaultDomain(FaultDomain *domain) { _faults = domain; }

    /** True while the buffer device ignores kicks and drops RX. */
    bool hung() const { return _hung; }

    /** Wedge the device deterministically (tests, campaigns). */
    void
    forceHang()
    {
        _hung = true;
        _hangs.inc();
    }

    /**
     * Driver-initiated reset: clears the hang and zeroes both ring
     * indices; the driver reposts RX buffers and drops or requeues
     * the in-flight TX skbs.
     */
    void reset();

    /**
     * Whole-node power failure: the device stops moving frames, the
     * nCache SRAM and the handler stage (queue, cores, match table)
     * are wiped. Distinct from an injected hang — no fault is booked
     * here; the node-level crash domain owns the ledger entry. The
     * cold-boot reset() clears the condition.
     */
    void powerFail();
    /** True between powerFail() and the cold-boot reset(). */
    bool powerDead() const { return _powerDead; }

    std::uint64_t hangs() const { return _hangs.value(); }
    std::uint64_t resets() const { return _resets.value(); }
    std::uint64_t txDmaDrops() const { return _txDmaDrops.value(); }
    /** TX frames dropped because their payload read was poisoned. */
    std::uint64_t txPoisonDrops() const
    {
        return _txPoisonDrops.value();
    }

    // -- in-memory buffer cloning ---------------------------------------
    /**
     * netdimmClone(dst, src, size): invoked after the driver's
     * register writes landed; performs the in-DRAM copy.
     */
    void cloneBuffer(Addr dst, Addr src, std::uint32_t size,
                     CloneDone cb);

    // -- component access (tests, benches) -----------------------------
    MemoryController &localMc() { return *_localMc; }
    NCache &ncache() { return _ncache; }
    RowCloneEngine &rowCloneEngine() { return *_rowClone; }
    /** Null unless cfg.handler.enabled. */
    HandlerStage *handlers() { return _handlers.get(); }

    std::uint64_t txFrames() const { return _txFrames.value(); }
    std::uint64_t rxFrames() const { return _rxFrames.value(); }
    std::uint64_t rxDrops() const { return _rxDrops.value(); }
    std::uint64_t prefetchesIssued() const { return _prefetches.value(); }

  protected:
    void mediaAccess(const MemRequestPtr &req,
                     MemRequest::Completion done) override;
    Tick idealMediaLatency() const override;

  private:
    std::unique_ptr<MemoryController> _localMc;
    NCache _ncache;
    std::unique_ptr<RowCloneEngine> _rowClone;
    std::unique_ptr<HandlerStage> _handlers;
    DescriptorRing _txRing;
    DescriptorRing _rxRing;
    Addr _regionBase = 0;

    std::function<void(const PacketPtr &)> _wire;
    RxNotify _rxNotify;
    TxNotify _txNotify;
    FaultDomain *_faults = nullptr;
    bool _hung = false;
    bool _powerDead = false;
    /** Last line the host read; detects sequential payload streams. */
    Addr _lastHostReadLine = ~Addr(0);

    stats::Scalar _txFrames, _rxFrames, _rxDrops, _prefetches;
    stats::Scalar _hangs, _resets, _txDmaDrops, _txPoisonDrops;

    /** Host-physical -> DIMM-relative. */
    Addr local(Addr host_phys) const;

    /** @return true if @p host_phys falls in the register page. */
    bool isRegisterAccess(Addr host_phys) const;

    /** nPrefetcher: stream the next n lines behind @p line_local. */
    void prefetch(Addr line_local);

    void mediaRead(const MemRequestPtr &req,
                   MemRequest::Completion done);
    void mediaWrite(const MemRequestPtr &req,
                    MemRequest::Completion done);

    /** Host RX path: ring pop + DMA into local DRAM + notify. */
    void hostDeliver(const PacketPtr &pkt);
};

} // namespace netdimm

#endif // NETDIMM_NETDIMM_NETDIMMDEVICE_HH
