/**
 * @file
 * Driver base class: the polling, bare-metal network drivers of
 * Sec. 5.1. A driver owns the software side of TX (buffer handling,
 * descriptor kick) and RX (polling detection, SKB creation, copy or
 * clone, delivery to the application).
 */

#ifndef NETDIMM_KERNEL_DRIVER_HH
#define NETDIMM_KERNEL_DRIVER_HH

#include <algorithm>
#include <deque>
#include <functional>
#include <unordered_map>

#include "kernel/Skb.hh"
#include "net/Packet.hh"
#include "nic/DescriptorRing.hh"
#include "sim/Random.hh"
#include "sim/SimObject.hh"
#include "sim/Stats.hh"
#include "sim/SystemConfig.hh"

namespace netdimm
{

class Driver : public SimObject
{
  public:
    /** Packet payload became visible to the application at tick. */
    using RxHandler = std::function<void(const PacketPtr &, Tick)>;

    Driver(EventQueue &eq, std::string name, const SystemConfig &cfg)
        : SimObject(eq, std::move(name)), _cfg(cfg),
          _rng(cfg.seed ^ 0xD1B54A32D192ED03ull),
          _rxCtx(CpuConfig::cores)
    {
        _probeId = eq.registerHealthProbe(this->name(), [this] {
            return outstandingWork();
        });
    }

    ~Driver() override { eventq().unregisterHealthProbe(_probeId); }

    /**
     * Application hands a payload to the stack. pkt->appSrc/bytes
     * must be set; the driver stamps pkt->born.
     */
    virtual void send(const PacketPtr &pkt) = 0;

    void setRxHandler(RxHandler h) { _rxHandler = std::move(h); }

    std::uint64_t txPackets() const { return _txPkts.value(); }
    std::uint64_t rxPackets() const { return _rxPkts.value(); }

    // -- TX-hang watchdog statistics ------------------------------------
    /** Hangs detected and recovered by the TX watchdog. */
    std::uint64_t txHangRecoveries() const { return _txHangs.value(); }
    /** In-flight skbs dropped across device resets (the transport
     *  layer retransmits them). */
    std::uint64_t skbsDroppedOnReset() const
    {
        return _skbsDropped.value();
    }
    /** Stall-to-recovery latency samples, in microseconds. */
    const stats::Average &recoveryLatencyUs() const
    {
        return _recoveryUs;
    }

    // -- whole-node lifecycle (DESIGN.md §15) ---------------------------
    /**
     * Power failure: the in-flight skbs are gone, pending RX work
     * dies with the cores, and nothing reaches the application until
     * powerRestore(). In-flight completion events keep firing but
     * find their work discarded.
     */
    void
    powerFail()
    {
        dropInflightTx();
        for (RxContext &ctx : _rxCtx)
            ctx.pending.clear();
        _powerDead = true;
        eventq().heartbeat(_probeId);
    }

    /** Lift the power-fail RX blackout (restart path, after
     *  coldBoot() rebuilt the rings). */
    void powerRestore() { _powerDead = false; }

    /**
     * Cold boot after a whole-node restart: reset the device,
     * rebuild both rings and repost RX buffers — the same recipe
     * the TX-hang watchdog recovery uses.
     */
    void coldBoot() { recoverFromTxHang(); }

  protected:
    const SystemConfig &_cfg;
    Random _rng;

    /**
     * RX completions are processed by per-core contexts (one RSS
     * queue / NAPI instance per core): packets of one flow serialize
     * behind each other on their core, which is what makes receive
     * throughput sensitive to per-packet CPU cost -- and to memory
     * pressure stretching the copies (Fig. 5). A context frees when
     * the *CPU* part of RX processing ends: after the copy for the
     * conventional stack, but right after issuing netdimmClone for
     * NetDIMM (the in-memory clone runs without the core).
     */
    void
    dispatchRx(const PacketPtr &pkt, Tick visible)
    {
        std::size_t c = std::size_t(pkt->flowId) % _rxCtx.size();
        RxContext &ctx = _rxCtx[c];
        ctx.pending.emplace_back(pkt, visible);
        eventq().heartbeat(_probeId);
        if (!ctx.busy)
            startNextRx(c);
    }

    /**
     * One packet's RX software path. Implementations must invoke
     * @p cpu_done exactly once, when the core is free to pick up the
     * next completion.
     */
    virtual void processRx(const PacketPtr &pkt, Tick visible,
                           std::function<void()> cpu_done) = 0;

    void
    deliverToApp(const PacketPtr &pkt, Tick t)
    {
        // An RX chain that was in flight when the node lost power
        // completes into a dead host: the frame is gone.
        if (_powerDead)
            return;
        pkt->delivered = t;
        _rxPkts.inc();
        if (_rxHandler)
            _rxHandler(pkt, t);
    }

    void countTx() { _txPkts.inc(); }

    /**
     * Random phase of the polling loop at the moment data became
     * visible: uniform over one loop iteration.
     */
    Tick
    pollPhase()
    {
        Tick iter = CpuConfig::cycles(CpuConfig::pollIterationCycles);
        return iter ? _rng.uniformInt(0, iter - 1) : 0;
    }

    /**
     * Tick at which the software notices an RX completion that
     * became visible at @p visible: the polling phase in Polling
     * mode, or interrupt delivery (with moderation batching) in
     * Interrupt mode.
     */
    Tick
    noticeAt(Tick visible)
    {
        switch (_cfg.sw.notify) {
          case NotifyMode::Polling:
            return visible + pollPhase();
          case NotifyMode::AdaptivePolling: {
            // Inside the post-activity window the loop is spinning:
            // polling-cost detection; afterwards the core has gone
            // back to sleep and an interrupt must wake it.
            bool polling = visible <= _adaptiveUntil;
            Tick noticed = polling ? visible + pollPhase()
                                   : interruptNotice(visible);
            _adaptiveUntil = noticed + _cfg.sw.adaptivePollWindow;
            return noticed;
          }
          case NotifyMode::Interrupt:
            return interruptNotice(visible);
        }
        return visible;
    }

    /** Per-packet full-kernel-stack surcharge (0 in bare-metal mode). */
    Tick
    kernelStackDelay() const
    {
        return CpuConfig::cycles(_cfg.sw.kernelStackCycles);
    }

    /** Socket lookup/create for a flow (per-connection zone memo). */
    SocketPtr
    socketFor(std::uint64_t flow_id)
    {
        auto it = _sockets.find(flow_id);
        if (it != _sockets.end())
            return it->second;
        auto s = std::make_shared<Socket>();
        s->id = flow_id;
        _sockets.emplace(flow_id, s);
        return s;
    }

    // -- e1000-style TX-hang watchdog -----------------------------------
    //
    // The driver cannot see inside the device; what it *can* see is
    // the TX ring's head/tail watermarks. While TX work is
    // outstanding a periodic watchdog checks the ring's progress
    // age; once it exceeds txHangTimeout the device is declared hung
    // and recoverFromTxHang() resets it, reinitializes the rings,
    // and drops the in-flight skbs (stat-counted; a reliable
    // transport retransmits them). The watchdog self-disarms when
    // TX goes idle so a finished simulation still drains naturally.

    /** Name the TX ring the watchdog supervises (call once). */
    void superviseTxRing(DescriptorRing *ring) { _watchedRing = ring; }

    /** Track a kicked skb until the device reports TX completion. */
    void
    trackTx(const PacketPtr &pkt)
    {
        _inflightTx.push_back(pkt);
        eventq().heartbeat(_probeId);
        armWatchdog();
    }

    /** The device retired @p pkt (sent, or dropped with an error). */
    void
    completeTx(const PacketPtr &pkt)
    {
        auto it = std::find(_inflightTx.begin(), _inflightTx.end(),
                            pkt);
        if (it != _inflightTx.end())
            _inflightTx.erase(it);
        eventq().heartbeat(_probeId);
    }

    /**
     * Device-specific recovery: reset the device, reinitialize the
     * rings, repost RX buffers. The base class has already counted
     * the hang and sampled the recovery latency.
     */
    virtual void recoverFromTxHang() {}

    /** Drop every in-flight skb (device reset); @return how many. */
    std::uint32_t
    dropInflightTx()
    {
        auto n = std::uint32_t(_inflightTx.size());
        _inflightTx.clear();
        _skbsDropped.inc(n);
        return n;
    }

  private:
    struct RxContext
    {
        std::deque<std::pair<PacketPtr, Tick>> pending;
        bool busy = false;
    };

    RxHandler _rxHandler;
    stats::Scalar _txPkts, _rxPkts;
    std::unordered_map<std::uint64_t, SocketPtr> _sockets;
    std::vector<RxContext> _rxCtx;
    Tick _intrHoldoffUntil = 0;
    Tick _intrDelivery = 0;
    Tick _adaptiveUntil = 0;

    DescriptorRing *_watchedRing = nullptr;
    bool _watchdogArmed = false;
    bool _powerDead = false;
    std::deque<PacketPtr> _inflightTx;
    std::size_t _probeId = 0;
    stats::Scalar _txHangs, _skbsDropped;
    stats::Average _recoveryUs;

    /** Liveness probe: work the driver holds that needs events. */
    std::uint64_t
    outstandingWork() const
    {
        std::uint64_t n = _inflightTx.size();
        for (const RxContext &ctx : _rxCtx)
            n += ctx.pending.size();
        return n;
    }

    void
    armWatchdog()
    {
        if (_watchdogArmed || _watchedRing == nullptr)
            return;
        _watchdogArmed = true;
        scheduleRel(_cfg.faults.watchdogPeriod,
                    [this] { watchdogTick(); });
    }

    void
    watchdogTick()
    {
        _watchdogArmed = false;
        // A powered-off node runs no watchdog; the restart path
        // rebuilds the rings itself and TX re-arms on first use.
        if (_watchedRing == nullptr || _powerDead)
            return;
        // TX idle: disarm; the next trackTx() re-arms. This keeps
        // the event queue drainable once traffic stops.
        if (_watchedRing->empty() && _inflightTx.empty())
            return;
        if (_watchedRing->stalled(curTick(),
                                  _cfg.faults.txHangTimeout)) {
            _txHangs.inc();
            _recoveryUs.sample(
                ticksToUs(curTick() - _watchedRing->lastProgress()));
            warn("%s: TX ring stalled for %0.1f us (head %u, tail "
                 "%u); resetting device",
                 name().c_str(),
                 ticksToUs(curTick() - _watchedRing->lastProgress()),
                 _watchedRing->head(), _watchedRing->tail());
            recoverFromTxHang();
        }
        armWatchdog();
    }

    Tick
    interruptNotice(Tick visible)
    {
        if (visible >= _intrHoldoffUntil) {
            // A fresh interrupt fires and re-arms the moderation
            // holdoff window.
            _intrHoldoffUntil = visible + _cfg.sw.interruptModeration;
            _intrDelivery = visible + _cfg.sw.interruptLatency;
        }
        // Completions inside the holdoff are picked up by the
        // already-scheduled handler invocation.
        return std::max(visible, _intrDelivery);
    }

    void
    startNextRx(std::size_t c)
    {
        RxContext &ctx = _rxCtx[c];
        if (ctx.pending.empty()) {
            ctx.busy = false;
            return;
        }
        ctx.busy = true;
        auto [pkt, visible] = ctx.pending.front();
        ctx.pending.pop_front();
        processRx(pkt, visible, [this, c] { startNextRx(c); });
    }
};

} // namespace netdimm

#endif // NETDIMM_KERNEL_DRIVER_HH
