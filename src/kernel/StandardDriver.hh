/**
 * @file
 * Driver for conventional NICs (dNIC / iNIC), with optional zero-copy
 * operation (the dNIC.zcpy / iNIC.zcpy configurations of Fig. 4).
 *
 * TX: SKB bookkeeping, copy of the application buffer into a DMA
 * buffer (skipped under zero copy, where the NIC DMA-reads the
 * application page directly at the cost of per-packet pin/unpin
 * management), descriptor write, doorbell (the NIC model charges the
 * register-access cost).
 *
 * RX: the NIC's descriptor writeback lands in the LLC (DDIO); the
 * polling loop detects it after a random phase, creates an SKB and
 * copies the payload to the application buffer (skipped under zero
 * copy since the posted RX buffers *are* application pages).
 */

#ifndef NETDIMM_KERNEL_STANDARDDRIVER_HH
#define NETDIMM_KERNEL_STANDARDDRIVER_HH

#include <deque>

#include "cache/Llc.hh"
#include "kernel/CopyEngine.hh"
#include "kernel/Driver.hh"
#include "kernel/PageAllocator.hh"
#include "nic/NicDevice.hh"

namespace netdimm
{

class StandardDriver : public Driver
{
  public:
    StandardDriver(EventQueue &eq, std::string name,
                   const SystemConfig &cfg, NicDevice &nic, Llc &llc,
                   CopyEngine &copy, PageAllocator &alloc,
                   bool zero_copy);

    void send(const PacketPtr &pkt) override;

  private:
    NicDevice &_nic;
    Llc &_llc;
    CopyEngine &_copy;
    PageAllocator &_alloc;
    bool _zeroCopy;

    /** Recycled TX DMA pages (copy mode). */
    std::deque<Addr> _txPool;
    /** Application RX landing buffers (copy mode). */
    std::deque<Addr> _appRxPool;

    void initRings();
    Addr takeTxBuffer();
    void kick(const PacketPtr &pkt);

  protected:
    void processRx(const PacketPtr &pkt, Tick visible,
                   std::function<void()> cpu_done) override;

    /** TX-hang watchdog fired: reset the NIC and rebuild both rings,
     *  dropping the in-flight skbs. */
    void recoverFromTxHang() override;
};

} // namespace netdimm

#endif // NETDIMM_KERNEL_STANDARDDRIVER_HH
