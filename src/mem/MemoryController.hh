/**
 * @file
 * Event-driven DDR memory controller model.
 *
 * One controller owns one channel. Requests split into cacheline
 * beats; an FR-FCFS-flavoured scheduler (row hits first within a
 * small scan window, reads prioritized over writes until the write
 * queue crosses its drain watermark) issues beats against per-bank
 * open-row state. The data bus serializes beats at tBURST, which is
 * what bounds the channel at its nominal bandwidth (19.2GB/s for
 * DDR4-2400).
 *
 * Two extra interfaces exist for NetDIMM:
 *  - reserveBus(): the asynchronous NVDIMM-P protocol engine claims
 *    DQ slots for XRD/SEND transfers so NetDIMM traffic contends for
 *    host channel bandwidth with conventional DIMM traffic (Fig. 10).
 *  - occupyBank(): the RowClone engine blocks a bank while an
 *    in-memory copy is in flight.
 */

#ifndef NETDIMM_MEM_MEMORYCONTROLLER_HH
#define NETDIMM_MEM_MEMORYCONTROLLER_HH

#include <cstdint>
#include <vector>

#include "mem/AddressMap.hh"
#include "mem/MemRequest.hh"
#include "sim/Fault.hh"
#include "sim/SimObject.hh"
#include "sim/Stats.hh"
#include "sim/SystemConfig.hh"

namespace netdimm
{

/** Anything that can service memory requests. */
class MemTarget
{
  public:
    virtual ~MemTarget() = default;
    /** Submit a request; completion arrives via req->onDone. */
    virtual void access(const MemRequestPtr &req) = 0;
};

/** Per-source latency/throughput accounting. */
struct MemSourceStats
{
    stats::Average readLatencyNs;
    stats::Average writeLatencyNs;
    stats::Scalar bytesRead;
    stats::Scalar bytesWritten;
};

class MemoryController : public SimObject, public MemTarget
{
  public:
    /**
     * @param eq event queue.
     * @param name instance name.
     * @param geo geometry of the DIMMs on this channel.
     * @param cfg queueing parameters.
     */
    MemoryController(EventQueue &eq, std::string name,
                     const DramGeometry &geo, const MemCtrlConfig &cfg);
    ~MemoryController() override;

    void access(const MemRequestPtr &req) override;

    /**
     * Claim an exclusive data-bus window of @p duration ticks no
     * earlier than @p earliest. Used by the NVDIMM-P async engine.
     * @return start tick of the granted window.
     */
    Tick reserveBus(Tick earliest, Tick duration);

    /**
     * Keep (rank, bank) unavailable until @p until; RowClone uses
     * this while rows are being copied inside the DRAM.
     */
    void occupyBank(std::uint32_t rank, std::uint32_t bank, Tick until);

    /** Per-beat issue trace hook: (tick, line addr, write, source). */
    using TraceHook =
        std::function<void(Tick, Addr, bool, MemSource)>;

    /** Install @p hook; pass nullptr to disable. Used by Fig. 7. */
    void setTraceHook(TraceHook hook) { _trace = std::move(hook); }

    /**
     * Enable ECC fault injection: per-beat correctable (in-line
     * scrub delay) and uncorrectable (request poisoned) error rolls
     * against @p domain with the probabilities in @p cfg. Pass
     * nullptr to disable. Both pointers must outlive the controller.
     */
    void
    setFaultInjection(FaultDomain *domain, const FaultModelConfig *cfg)
    {
        _faultDomain = domain;
        _faultCfg = domain ? cfg : nullptr;
    }

    /** The domain ECC faults roll against (nullptr when disabled);
     *  consumers use it to credit recoveries for poisoned lines they
     *  absorbed. */
    FaultDomain *faultDomain() { return _faultDomain; }

    /** Decoded view of this channel's DIMM geometry. */
    const DimmDecoder &decoder() const { return _decoder; }

    /** Idle-channel read latency for a single beat (row closed). */
    Tick idleReadLatency() const;

    // -- statistics ---------------------------------------------------
    const MemSourceStats &sourceStats(MemSource s) const
    {
        return _stats[std::size_t(s)];
    }
    std::uint64_t rowHits() const { return _rowHits.value(); }
    std::uint64_t rowMisses() const { return _rowMisses.value(); }
    std::uint64_t beatsServiced() const { return _beats.value(); }
    /** Beats issued for the handler requestor class. */
    std::uint64_t handlerBeats() const { return _handlerBeats.value(); }
    /** Data-bus ticks consumed by handler-class beats. */
    Tick handlerBusTicks() const { return _handlerBusTicks; }
    /** Handler share of all bus occupancy so far, in [0, 1]. */
    double
    handlerBusFraction() const
    {
        return _busBusyTicks
                   ? double(_handlerBusTicks) / double(_busBusyTicks)
                   : 0.0;
    }
    /** ECC errors corrected in line (scrub delay charged). */
    std::uint64_t eccCorrectable() const
    {
        return _eccCorrectable.value();
    }
    /** Uncorrectable ECC errors (requests poisoned). */
    std::uint64_t eccUncorrectable() const
    {
        return _eccUncorrectable.value();
    }
    /** Mean read latency across every source, ns. */
    double meanReadLatencyNs() const;
    /** Channel data-bus utilization in [0, 1] since construction. */
    double busUtilization() const;

  private:
    struct Parent
    {
        MemRequestPtr req;
        std::uint32_t beatsLeft;
        Tick lastDone = 0;
    };
    using ParentPtr = std::shared_ptr<Parent>;

    struct Beat
    {
        ParentPtr parent;
        DramAddress da;
        Addr lineAddr;
        std::uint64_t row;     ///< rowId(da), decoded once at enqueue
        std::uint32_t bankIdx; ///< rank * banksPerDevice + bank
        bool write;
        bool handler; ///< handler requestor class (MemArbPolicy)
        Tick ready; ///< earliest schedulable tick (frontend applied)
    };

    /**
     * FIFO of beats with amortized-zero steady-state allocation: a
     * vector plus a head cursor. pickBeat() erases inside a small
     * window at the front (shifting at most that window), and the
     * dead prefix is reclaimed when the queue drains or outgrows
     * half the buffer. A deque frees and reallocates its chunks
     * every time the queue length oscillates around a chunk
     * boundary, which showed up as the dominant steady-state
     * allocation source in the replay profile.
     */
    class BeatQueue
    {
      public:
        std::size_t size() const { return _buf.size() - _head; }
        bool empty() const { return _head == _buf.size(); }
        Beat &operator[](std::size_t i) { return _buf[_head + i]; }
        const Beat &
        operator[](std::size_t i) const
        {
            return _buf[_head + i];
        }
        Beat *begin() { return _buf.data() + _head; }
        Beat *end() { return _buf.data() + _buf.size(); }
        const Beat *begin() const { return _buf.data() + _head; }
        const Beat *end() const { return _buf.data() + _buf.size(); }

        void push_back(Beat b) { _buf.push_back(std::move(b)); }

        /** Remove element @p i (front-relative), preserving order. */
        void
        erase(std::size_t i)
        {
            for (std::size_t pos = _head + i; pos > _head; --pos)
                _buf[pos] = std::move(_buf[pos - 1]);
            ++_head;
            if (_head == _buf.size()) {
                _buf.clear(); // capacity retained
                _head = 0;
            } else if (_head > 64 && _head > _buf.size() / 2) {
                _buf.erase(_buf.begin(),
                           _buf.begin() + std::ptrdiff_t(_head));
                _head = 0;
            }
        }

      private:
        std::vector<Beat> _buf;
        std::size_t _head = 0;
    };

    struct BankState
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        /**
         * Earliest tick the next column command (CAS) may issue to
         * this bank; successive hits to an open row pipeline at tCCD
         * while their data bursts stream on the shared bus.
         */
        Tick nextCasAt = 0;
    };

    const DramGeometry _geo;
    const MemCtrlConfig _cfg;
    DimmDecoder _decoder;

    std::vector<BankState> _banks; ///< [rank * banksPerDevice + bank]
    Tick _busReady = 0;
    Tick _busBusyTicks = 0; ///< accumulated bus occupancy
    BeatQueue _readQ;
    BeatQueue _writeQ;
    bool _draining = false;
    bool _serviceScheduled = false;
    Tick _serviceAt = 0; ///< tick of the earliest pending service event

    // -- handler-class arbitration state ------------------------------
    /** Handler beats currently queued (both queues). When zero,
     *  service() issues eagerly and the picker's scan stops once the
     *  host candidate is settled. */
    std::size_t _handlerQueued = 0;
    /** Fair policy: next contended pick goes to the handler class.
     *  Mutated by the (logically const) candidate selection. */
    mutable bool _fairNext = false;
    /** StaticCap budget numerator, clamped share in [0.01, 1]. */
    Tick _handlerBusTicks = 0;
    double _handlerShare = 1.0;

    TraceHook _trace;
    FaultDomain *_faultDomain = nullptr;
    const FaultModelConfig *_faultCfg = nullptr;
    std::size_t _probeId = 0;
    std::vector<MemSourceStats> _stats;
    stats::Scalar _rowHits;
    stats::Scalar _rowMisses;
    stats::Scalar _beats;
    stats::Scalar _handlerBeats;
    stats::Scalar _eccCorrectable;
    stats::Scalar _eccUncorrectable;

    void scheduleService(Tick when);
    void service();
    /** Pick the next beat to issue; returns false if nothing ready. */
    bool pickBeat(Beat &out);
    /** Class-aware pick inside @p q; npos when nothing issuable. */
    std::size_t pickClassAware(const BeatQueue &q) const;
    /** StaticCap: first tick the handler class is under budget. */
    Tick capAllowedTick() const;
    /** True when StaticCap admits a handler beat right now. */
    bool capAllowsHandler() const
    {
        return capAllowedTick() <= curTick();
    }
    /** Earliest future work in @p q, cap-blocking accounted. */
    Tick queueNext(const BeatQueue &q) const;
    void issueBeat(const Beat &beat);
    void finishBeat(const Beat &beat, Tick done);
};

} // namespace netdimm

#endif // NETDIMM_MEM_MEMORYCONTROLLER_HH
