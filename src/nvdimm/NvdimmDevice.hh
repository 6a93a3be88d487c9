/**
 * @file
 * NVDIMM-P style asynchronous memory access (Sec. 2.2, Fig. 3).
 *
 * DDR5 allows DIMMs whose access time is non-deterministic: the host
 * memory controller issues an XRD command carrying a request ID, the
 * device raises RDY on the response pins when the data is available
 * in its buffer, the controller then issues SEND and the data returns
 * on DQ tagged with the ID. Writes push the data with the command and
 * complete inside the device.
 *
 * NvdimmPDevice is the reusable protocol engine: it charges the
 * command, handshake and DQ-burst costs against the *host* channel
 * (via MemoryController::reserveBus, so NVDIMM traffic contends with
 * conventional DIMMs on the same channel), tracks outstanding request
 * IDs, and delegates the media access itself to a subclass --
 * NetDimmDevice overrides mediaAccess() with nCache / nMC behaviour.
 */

#ifndef NETDIMM_NVDIMM_NVDIMMDEVICE_HH
#define NETDIMM_NVDIMM_NVDIMMDEVICE_HH

#include <cstdint>
#include <deque>

#include "mem/MemoryController.hh"
#include "sim/SimObject.hh"
#include "sim/Stats.hh"
#include "sim/SystemConfig.hh"

namespace netdimm
{

class NvdimmPDevice : public SimObject, public MemTarget
{
  public:
    /**
     * @param host_channel the host memory controller of the channel
     *        this DIMM is installed on.
     * @param max_ids concurrent outstanding request IDs the protocol
     *        supports.
     */
    NvdimmPDevice(EventQueue &eq, std::string name,
                  const SystemConfig &cfg,
                  MemoryController &host_channel,
                  std::uint32_t max_ids = 64);

    /**
     * Host-side access over the DDR5 channel; the request's address
     * must already be DIMM-relative (the MemorySystem routes and
     * rebases NetDIMM-region addresses before calling this).
     */
    void access(const MemRequestPtr &req) override;

    /** Zero-load host-side read latency for one cacheline. */
    Tick idealHostReadLatency() const;

    std::uint64_t hostReads() const { return _hostReads.value(); }
    std::uint64_t hostWrites() const { return _hostWrites.value(); }
    std::uint32_t outstandingIds() const { return _inFlight; }
    std::uint64_t idStalls() const { return _idStalls.value(); }

  protected:
    /**
     * Resolve @p req against the device's media (DRAM / flash /
     * nCache). @p done must be invoked with the tick at which the
     * data is ready in the buffer device (reads) or durably accepted
     * (writes).
     */
    virtual void mediaAccess(const MemRequestPtr &req,
                             MemRequest::Completion done) = 0;

    /**
     * Media latency assumed by idealHostReadLatency(); subclasses
     * refine it (e.g. nCache hit time).
     */
    virtual Tick idealMediaLatency() const = 0;

    const SystemConfig &config() const { return _cfg; }

  private:
    const SystemConfig &_cfg;
    MemoryController &_host;
    std::uint32_t _maxIds;
    std::uint32_t _inFlight = 0;
    std::deque<MemRequestPtr> _stalled;

    stats::Scalar _hostReads, _hostWrites, _idStalls;

    void start(const MemRequestPtr &req);
    void finish(const MemRequestPtr &req, Tick media_ready);
    Tick dqBurstTicks(std::uint32_t bytes) const;
};

} // namespace netdimm

#endif // NETDIMM_NVDIMM_NVDIMMDEVICE_HH
