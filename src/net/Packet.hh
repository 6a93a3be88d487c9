/**
 * @file
 * Network packet plus the per-packet latency attribution used to
 * regenerate the paper's breakdown figures (Fig. 4 / Fig. 11).
 */

#ifndef NETDIMM_NET_PACKET_HH
#define NETDIMM_NET_PACKET_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "mem/MemRequest.hh"
#include "sim/EventQueue.hh"
#include "sim/Pool.hh"
#include "sim/SystemConfig.hh"
#include "sim/Ticks.hh"

namespace netdimm
{

/**
 * Latency components reported in Fig. 11. Driver cycles not part of a
 * named bar are attributed to the nearest phase (txCopy/rxCopy carry
 * SKB allocation, IoReg carries polling detection), matching how the
 * paper folds its breakdown.
 */
enum class LatComp : std::size_t
{
    TxCopy = 0,    ///< app -> DMA buffer copy + SKB/alloc work
    TxFlush,       ///< NetDIMM cacheline flushes before TX
    IoReg,         ///< CPU <-> NIC register accesses + poll detection
    TxDma,         ///< NIC fetching descriptor + packet data
    Wire,          ///< serialization + propagation + switching
    RxDma,         ///< NIC writing packet + descriptor toward host
    RxInvalidate,  ///< NetDIMM cache invalidate before descriptor read
    RxCopy,        ///< DMA buffer -> app copy (or in-memory clone)
    NumComps,
};

constexpr std::size_t numLatComps =
    static_cast<std::size_t>(LatComp::NumComps);

/** @return display name matching the paper's legend. */
const char *latCompName(LatComp c);

/**
 * RPC opcode carried by serving-workload packets; the NetDIMM match
 * table dispatches on it (src/handler). None marks ordinary traffic.
 */
enum class RpcOp : std::uint8_t
{
    None = 0,
    Get,  ///< KV lookup request
    Put,  ///< KV update request
    Resp, ///< server -> client response
    // -- replicated serving tier (src/workload RpcServingLoad) --------
    ReplPut,  ///< coordinator -> backup replica write
    ReplAck,  ///< backup -> coordinator replication confirm
    SyncData, ///< peer -> restarting node shard re-sync batch
};

/** Accumulated per-component latency of one packet's one-way trip. */
struct LatencyBreakdown
{
    std::array<Tick, numLatComps> comp{};

    void
    add(LatComp c, Tick t)
    {
        comp[static_cast<std::size_t>(c)] += t;
    }

    Tick
    get(LatComp c) const
    {
        return comp[static_cast<std::size_t>(c)];
    }

    Tick
    total() const
    {
        Tick sum = 0;
        for (Tick t : comp)
            sum += t;
        return sum;
    }

    LatencyBreakdown &
    operator+=(const LatencyBreakdown &o)
    {
        for (std::size_t i = 0; i < numLatComps; ++i)
            comp[i] += o.comp[i];
        return *this;
    }
};

/**
 * A network packet travelling between nodes. Payload contents are not
 * modelled; sizes and addresses are.
 */
struct Packet
{
    std::uint64_t id = 0;
    /** L2 payload size in bytes (what the benchmarks sweep). */
    std::uint32_t bytes = 0;
    /** Source / destination node ids in the fabric. */
    std::uint32_t srcNode = 0;
    std::uint32_t dstNode = 0;
    /** Flow identifier (socket / connection). */
    std::uint64_t flowId = 0;
    /** Tick the application handed the payload to the stack. */
    Tick born = 0;
    /** Tick the payload became visible to the remote application. */
    Tick delivered = 0;
    /** Application source buffer (sender side). */
    Addr appSrcAddr = 0;
    /** Application destination buffer (receiver side). */
    Addr appDstAddr = 0;
    /** Host-physical address of the TX DMA buffer (sender side). */
    Addr txBufAddr = 0;
    /** Host-physical address of the RX DMA buffer (receiver side). */
    Addr rxBufAddr = 0;
    /** PCIe share of the one-way latency (pcie.overh in Fig. 4). */
    Tick pcieTicks = 0;
    LatencyBreakdown lat{};

    // -- transport header (src/transport) -----------------------------
    /** Per-flow sequence number of a data segment. */
    std::uint64_t seq = 0;
    /** Next expected sequence number (cumulative ACK). */
    std::uint64_t ackSeq = 0;
    /** This frame is a transport acknowledgment. */
    bool isAck = false;
    /** Congestion-experienced mark set by a switch egress queue. */
    bool ecnMarked = false;
    /** ACK echoes an ECN mark back to the sender. */
    bool ecnEcho = false;
    /** Frame corrupted in flight; the receiving MAC drops it (FCS). */
    bool corrupted = false;
    /** This segment is a retransmission. */
    bool retransmit = false;

    // -- RPC header (src/workload/RpcServingLoad, src/handler) --------
    /** RPC opcode; None for non-RPC traffic. */
    RpcOp rpcOp = RpcOp::None;
    /** Request key: correlates a response with its request and
     *  addresses the KV store (hashed). */
    std::uint64_t rpcKey = 0;
    /**
     * Absolute tick after which the client no longer counts the
     * response as useful (0 = no deadline). Deadline-aware server
     * admission drops already-dead requests instead of serving them.
     */
    Tick rpcDeadline = 0;
    /**
     * Logical KV key of serving traffic; 0 for other traffic.
     * Distinct from rpcKey, which stays the unique per-request
     * correlation id (and the simulated DRAM address seed).
     */
    std::uint64_t rpcKvKey = 0;
    /** Value version carried by PUT / replication / response
     *  traffic; 0 = unversioned (e.g. a handler-served reply). */
    std::uint64_t rpcVersion = 0;

    /** Number of cachelines the payload spans (1..24 for <= MTU). */
    std::uint32_t
    lines() const
    {
        return (bytes + cachelineBytes - 1) / cachelineBytes;
    }

    Tick oneWayLatency() const { return delivered - born; }
};

using PacketPtr = std::shared_ptr<Packet>;

/**
 * Pool-aware factory: the packet and its shared_ptr control block
 * live in one free-list-recycled allocation (see sim/Pool.hh), so
 * steady-state packet churn does not touch the heap.
 *
 * The id comes from @p eq's per-simulation allocator, so a cell's
 * packet ids are a pure function of its own history — independent of
 * other simulations in the process and of which sweep worker runs it.
 */
inline PacketPtr
makePacket(EventQueue &eq, std::uint32_t bytes, std::uint32_t src = 0,
           std::uint32_t dst = 1)
{
    auto p = std::allocate_shared<Packet>(PoolAlloc<Packet>{});
    p->id = eq.allocPacketId();
    p->bytes = bytes;
    p->srcNode = src;
    p->dstNode = dst;
    return p;
}

/**
 * Queue-less factory for unit tests and standalone packet crafting.
 * Ids count up per thread, so concurrent sweep cells never contend;
 * simulation code must use the EventQueue overload instead so ids
 * stay instance-scoped.
 */
inline PacketPtr
makePacket(std::uint32_t bytes, std::uint32_t src = 0,
           std::uint32_t dst = 1)
{
    thread_local std::uint64_t nextId = 1;
    auto p = std::allocate_shared<Packet>(PoolAlloc<Packet>{});
    p->id = nextId++;
    p->bytes = bytes;
    p->srcNode = src;
    p->dstNode = dst;
    return p;
}

} // namespace netdimm

#endif // NETDIMM_NET_PACKET_HH
