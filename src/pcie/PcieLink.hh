/**
 * @file
 * Analytical PCIe link model after Neugebauer et al. [59] and Alian
 * et al. [20] (the models the paper's methodology cites).
 *
 * A transaction is one or more TLPs. Each TLP pays framing overhead
 * (transaction + data-link + physical layer, ~26B) and serializes at
 * the lane-rate times encoding efficiency; each traversal of the link
 * (root complex <-> endpoint) pays a fixed propagation covering PHY,
 * link and transaction layer pipelines on both sides. Non-posted
 * reads cost a request traversal plus completions with payload split
 * at the maximum payload size.
 *
 * Per-direction serialization occupancy bounds the usable bandwidth,
 * reproducing the protocol-efficiency ceiling PCIe is known for.
 */

#ifndef NETDIMM_PCIE_PCIELINK_HH
#define NETDIMM_PCIE_PCIELINK_HH

#include "sim/InlineFunction.hh"
#include "sim/SimObject.hh"
#include "sim/Stats.hh"
#include "sim/SystemConfig.hh"

namespace netdimm
{

/** Direction of a TLP: downstream = root complex -> endpoint. */
enum class PcieDir
{
    Downstream,
    Upstream,
};

class PcieLink : public SimObject
{
  public:
    /** Per-TLP completion; inline storage, no heap (hot path). */
    using Completion = InlineFunction<void(Tick), 80>;

    using SimObject::SimObject;

    /**
     * Posted memory write (MWr): @p bytes of payload travel in
     * @p dir; @p onArrive fires when the last TLP lands. The sender
     * does not wait (posted semantics); the returned tick is when the
     * first TLP started serializing (for occupancy accounting).
     */
    Tick postedWrite(std::uint32_t bytes, PcieDir dir,
                     Completion onArrive);

    /**
     * Non-posted read: a read request travels in @p dir, completions
     * with @p bytes of payload return in the opposite direction.
     * @p onComplete fires when the last completion lands.
     */
    void read(std::uint32_t bytes, PcieDir dir, Completion onComplete);

    /** CPU MMIO register read round-trip (4B, downstream request). */
    void mmioRead(Completion onComplete)
    {
        read(4, PcieDir::Downstream, std::move(onComplete));
    }

    /** CPU MMIO register write (posted, 4B downstream). */
    Tick
    mmioWrite(Completion onArrive)
    {
        return postedWrite(4, PcieDir::Downstream, std::move(onArrive));
    }

    /**
     * Header-only TLP (read request / message) in @p dir; @p onArrive
     * fires when it lands on the far side. Building block for DMA
     * engines that service the read at the host before returning
     * completions with payload.
     */
    void sendHeader(PcieDir dir, Completion onArrive);

    /** Zero-load latency of a posted write carrying @p bytes. */
    Tick idealPostedLatency(std::uint32_t bytes) const;
    /** Zero-load latency of a read returning @p bytes. */
    Tick idealReadLatency(std::uint32_t bytes) const;

    std::uint64_t tlpsSent() const { return _tlps.value(); }
    std::uint64_t payloadBytes() const { return _payload.value(); }

  private:
    /** Per-direction transmitter-free time: [0]=down, [1]=up. */
    Tick _txFree[2] = {0, 0};

    stats::Scalar _tlps;
    stats::Scalar _payload;

    /** Serialization time of one TLP carrying @p payload bytes. */
    Tick tlpTicks(std::uint32_t payload) const;

    /**
     * Send a TLP train carrying @p bytes split at the maximum
     * payload size, starting no earlier than @p earliest; returns
     * (first-start, last-arrival).
     */
    std::pair<Tick, Tick> sendTrain(std::uint32_t bytes, PcieDir dir,
                                    Tick earliest);
};

} // namespace netdimm

#endif // NETDIMM_PCIE_PCIELINK_HH
