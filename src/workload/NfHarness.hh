/**
 * @file
 * Network-function harness: L3 Forwarding (L3F) and Deep Packet
 * Inspection (DPI), the two ends of the packet-processing spectrum
 * used in Fig. 12(b).
 *
 * The harness claims the NIC's RX notification directly (a userspace
 * NF bypasses the copying stack): on packet arrival it polls the
 * descriptor, reads the packet header (L3F) or the entire payload
 * (DPI) through the CPU cache hierarchy, then forwards the frame
 * *from the same DMA buffer* -- no copy. On NetDIMM the payload of
 * an L3F-forwarded packet therefore never crosses the host memory
 * channel; on iNIC/dNIC it was already pushed into the LLC by DDIO
 * and churns the host memory system as it is evicted.
 */

#ifndef NETDIMM_WORKLOAD_NFHARNESS_HH
#define NETDIMM_WORKLOAD_NFHARNESS_HH

#include "kernel/Node.hh"
#include "sim/SimObject.hh"
#include "sim/Stats.hh"

namespace netdimm
{

/** Which network function runs on the node under test. */
enum class NfKind
{
    L3Forward,
    DeepInspect,
};

/** @return printable NF name ("L3F" / "DPI"). */
const char *nfKindName(NfKind k);

class NfHarness : public SimObject
{
  public:
    /**
     * @param node the node under test (its NIC RX path is claimed).
     * @param kind header-only or full-payload processing.
     */
    NfHarness(EventQueue &eq, std::string name, Node &node,
              NfKind kind);

    std::uint64_t processed() const { return _processed.value(); }
    std::uint64_t forwarded() const { return _forwarded.value(); }
    /** Mean RX-visible to forwarded latency, ns. */
    double meanProcessNs() const { return _procNs.mean(); }

  private:
    Node &_node;
    NfKind _kind;

    stats::Scalar _processed, _forwarded;
    stats::Average _procNs;

    void onRxVisible(const PacketPtr &pkt, Tick visible);
    void forward(const PacketPtr &pkt, Tick t0);
};

} // namespace netdimm

#endif // NETDIMM_WORKLOAD_NFHARNESS_HH
