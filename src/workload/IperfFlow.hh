/**
 * @file
 * iperf-style bulk TCP flow between two nodes.
 *
 * Self-clocking window transport: the sender keeps up to `window`
 * MTU-sized segments in flight; the receiver acknowledges each
 * delivered segment with a 64B ACK, and every ACK releases the next
 * segment. Throughput therefore adapts to the receiver's processing
 * capability -- the property the paper leans on to explain Fig. 5
 * ("TCP flows from iperf regulate the transmission rate based on the
 * processing capability of the receiver node").
 */

#ifndef NETDIMM_WORKLOAD_IPERFFLOW_HH
#define NETDIMM_WORKLOAD_IPERFFLOW_HH

#include <memory>
#include <vector>

#include "kernel/Node.hh"
#include "sim/SimObject.hh"
#include "sim/Stats.hh"
#include "transport/TransportHost.hh"

namespace netdimm
{

class IperfFlow : public SimObject
{
  public:
    /**
     * @param sender / @p receiver the two connected nodes; their
     *        receive handlers are claimed by the flow.
     * @param segment_bytes payload per segment (MTU by default).
     * @param window segments in flight (across all streams).
     * @param parallel parallel streams (iperf -P); each stream hashes
     *        to its own receive context, like RSS spreading
     *        connections over cores.
     */
    IperfFlow(EventQueue &eq, std::string name, Node &sender,
              Node &receiver, std::uint32_t segment_bytes = 1460,
              std::uint32_t window = 32, std::uint32_t parallel = 1);

    /**
     * Run the flow over the reliable transport (src/transport)
     * instead of the raw self-clocking exchange: each parallel
     * stream becomes one TransportFlow with go-back-N retransmission
     * and DCQCN-style rate control, so the flow survives lossy links
     * and finite switch queues. Must be called before start().
     */
    void enableReliable(const TransportConfig &cfg);

    void start();
    void stop() { _running = false; }

    bool reliable() const { return !_flows.empty(); }

    std::uint64_t deliveredBytes() const { return _bytes.value(); }
    std::uint64_t deliveredSegments() const { return _segs.value(); }

    /** Total retransmitted segments (reliable mode only). */
    std::uint64_t retransmissions() const;
    /** Total ECN echoes seen by the senders (reliable mode only). */
    std::uint64_t ecnEchoes() const;
    /** Total RTO firings across streams (reliable mode only). */
    std::uint64_t timeouts() const;
    /** Bytes handed to the senders (reliable mode only). */
    std::uint64_t enqueuedBytes() const;
    /** Streams that gave up after max retries (reliable mode only). */
    std::uint32_t abortedFlows() const;

    /** Mean segment delivery latency (born to delivered), us. */
    double meanLatencyUs() const { return _latencyUs.mean(); }

    /** Goodput measured at the receiver since start(), Gbps. */
    double goodputGbps() const;

  private:
    Node &_sender;
    Node &_receiver;
    std::uint32_t _segBytes;
    std::uint32_t _window;
    std::uint32_t _parallel;
    std::uint64_t _seq = 0;
    bool _running = false;
    Tick _startTick = 0;

    /** Reliable-mode plumbing; empty in raw mode. */
    std::unique_ptr<TransportHost> _txHost, _rxHost;
    std::vector<std::unique_ptr<TransportFlow>> _flows;

    stats::Scalar _bytes, _segs;
    stats::Average _latencyUs;

    void sendSegment();
};

} // namespace netdimm

#endif // NETDIMM_WORKLOAD_IPERFFLOW_HH
