#include "handler/HandlerStage.hh"

#include <algorithm>

namespace netdimm
{

HandlerStage::HandlerStage(EventQueue &eq, std::string name,
                           const SystemConfig &cfg,
                           MemTarget &local_mem,
                           std::uint64_t local_bytes)
    : SimObject(eq, std::move(name)), _cfg(cfg.handler),
      _localBytes(local_bytes)
{
    ND_ASSERT(_cfg.cores > 0 && _cfg.runQueueDepth > 0);
    _cores.resize(_cfg.cores);
    _kv.buckets = 1ull << 15;
    _kv.slots = 1ull << 15;
    _kv.valueBytes = 256;
    _counterSlots = 4096;
    carveRegions();
    _env = std::make_unique<HandlerEnv>(eq, local_mem, _cfg, _kv,
                                        _counterBase, _counterSlots);
    registerKernel(makeFilterKernel());
    registerKernel(makeCounterKernel());
    registerKernel(makeKvKernel());
}

void
HandlerStage::carveRegions()
{
    // Data structures live at the top of the local DRAM, below the
    // RX/TX buffer space the driver manages at the bottom.
    Addr p = _localBytes;
    std::uint64_t values =
        _kv.slots * std::uint64_t(_kv.valueStride());
    std::uint64_t buckets = _kv.buckets * cachelineBytes;
    std::uint64_t counters = _counterSlots * cachelineBytes;
    ND_ASSERT(values + buckets + counters < _localBytes / 2);
    p -= values;
    _kv.valueBase = p;
    p -= buckets;
    _kv.bucketBase = p;
    p -= counters;
    _counterBase = p;
}

void
HandlerStage::configureKv(std::uint64_t buckets, std::uint64_t slots,
                          std::uint32_t value_bytes)
{
    ND_ASSERT(buckets > 0 && slots > 0 && value_bytes > 0);
    _kv.buckets = buckets;
    _kv.slots = slots;
    _kv.valueBytes = value_bytes;
    carveRegions();
}

void
HandlerStage::setFaultInjection(FaultDomain *domain,
                                const FaultModelConfig *fc)
{
    _faults = domain;
    if (!domain || !fc) {
        _faults = nullptr;
        _hangProb = _crashProb = 0.0;
        _env->setFaults(nullptr, 0.0);
        return;
    }
    _hangProb = fc->handlerHangProb;
    _crashProb = fc->handlerCrashProb;
    _crashDetectCycles = fc->handlerCrashDetectCycles;
    _stallTimeout = fc->handlerStallTimeout;
    _watchdogPeriod = fc->handlerWatchdogPeriod;
    _env->setFaults(domain, fc->kvCorruptProb);
}

void
HandlerStage::registerKernel(std::unique_ptr<HandlerKernel> kernel)
{
    ND_ASSERT(kernel);
    for (auto &k : _kernels) {
        if (std::string(k->name()) == kernel->name()) {
            k = std::move(kernel);
            return;
        }
    }
    _kernels.push_back(std::move(kernel));
}

HandlerKernel *
HandlerStage::kernel(const std::string &name)
{
    for (auto &k : _kernels)
        if (name == k->name())
            return k.get();
    return nullptr;
}

bool
HandlerStage::offer(const PacketPtr &pkt)
{
    if (_table.empty())
        return false;
    const MatchRule *rule = _table.lookup(*pkt);
    if (!rule)
        return false;
    HandlerKernel *k = kernel(rule->kernel);
    ND_ASSERT(k); // a rule must reference a registered kernel

    if (_busyCores >= _cfg.cores &&
        _queue.size() >= _cfg.runQueueDepth) {
        _overflows.inc();
        return false;
    }

    _accepted.inc();
    _queue.push_back({pkt, k});
    if (_queue.size() > _maxQueue.value())
        _maxQueue.inc(_queue.size() - _maxQueue.value());
    tryDispatch();
    return true;
}

void
HandlerStage::tryDispatch()
{
    while (_busyCores < _cfg.cores && !_queue.empty()) {
        Pending p = std::move(_queue.front());
        _queue.pop_front();
        // Deadline-aware admission: a frame that cannot make its
        // deadline anyway is shed here, before it burns a core. The
        // client's timeout/retry machinery owns the request now.
        if (_cfg.dropExpiredAtDispatch && p.pkt->rpcDeadline != 0 &&
            curTick() + _cfg.dispatchMargin >= p.pkt->rpcDeadline) {
            _shedExpired.inc();
            continue;
        }
        std::size_t core = 0;
        while (core < _cores.size() && _cores[core].busy)
            ++core;
        ND_ASSERT(core < _cores.size());
        ++_busyCores;
        startInvocation(core, std::move(p));
    }
}

void
HandlerStage::startInvocation(std::size_t core, Pending p)
{
    Core &c = _cores[core];
    c.busy = true;
    c.startTick = curTick();
    c.pkt = p.pkt;

    // Fault rolls: exactly two uniforms per invocation whenever a
    // domain is wired, so the schedule never depends on the
    // configured probabilities (zero-rate rows stay bit-identical).
    bool hang = false, crash = false;
    if (_faults) {
        double u1 = _faults->uniform();
        double u2 = _faults->uniform();
        hang = u1 < _hangProb;
        crash = !hang && u2 < _crashProb;
        if (hang || crash)
            _faults->noteInjected();
    }

    if (hang) {
        // The core wedges mid-dispatch: no kernel, no completion.
        // Only the watchdog can free it.
        c.hung = true;
        _hangFaults.inc();
        armWatchdog();
        return;
    }

    // nNIC pipeline hands the frame over, nController routes it to
    // the core, the core runs the dispatch trampoline; then the
    // kernel body (cycles + memory accesses) runs to completion.
    Tick lead = NicModelConfig::pipelineLatency +
                NetDimmConfig::controllerLatency +
                _cfg.cycles(_cfg.dispatchCycles);
    if (crash) {
        // The kernel traps partway through: no memory traffic, the
        // frame bounces to the host once the trap is detected.
        c.crashed = true;
        _crashFaults.inc();
        armWatchdog();
        scheduleRel(lead + _cfg.cycles(_crashDetectCycles),
                    [this, core, gen = c.gen] {
                        abortInvocation(core, gen);
                    });
        return;
    }

    if (_faults)
        armWatchdog();
    scheduleRel(lead, [this, p = std::move(p), core, gen = c.gen] {
        p.kernel->run(*_env, p.pkt,
                      [this, core, gen](HandlerResult r) {
                          finishInvocation(core, gen, r);
                      });
    });
}

void
HandlerStage::finishInvocation(std::size_t core, std::uint64_t gen,
                               HandlerResult r)
{
    Core &c = _cores[core];
    if (c.gen != gen)
        return; // watchdog reset this core mid-invocation
    _invocations.inc();
    PacketPtr pkt = c.pkt;
    releaseCore(core);

    switch (r.verdict) {
      case HandlerVerdict::Drop:
        _drops.inc();
        break;
      case HandlerVerdict::Deliver:
        if (r.corruptNack) {
            // Checksum verify failed: NACK, serve from the
            // authoritative host store. This is the one recovery
            // note for the injected corruption.
            _corruptNacks.inc();
            _faultFallbacks.inc();
            if (_faults)
                _faults->noteRecovered();
        } else {
            _toHost.inc();
        }
        ND_ASSERT(_hostRx);
        _hostRx(pkt);
        break;
      case HandlerVerdict::Reply: {
        _replies.inc();
        PacketPtr resp =
            makePacket(eventq(), std::max(r.replyBytes, 64u),
                       pkt->dstNode, pkt->srcNode);
        resp->flowId = pkt->flowId;
        resp->rpcOp = RpcOp::Resp;
        resp->rpcKey = pkt->rpcKey;
        // Logical KV key rides along; the version stays 0 — the
        // handler serves from on-DIMM state and carries no
        // replication metadata (cluster clients treat a version-0
        // reply as unversioned).
        resp->rpcKvKey = pkt->rpcKvKey;
        resp->born = curTick();
        // The reply leaves through the nNIC TX pipeline; no host
        // descriptor, no driver, no DMA.
        const Tick pipe = NicModelConfig::pipelineLatency;
        eventq().scheduleRel(pipe, [this, resp] {
            ND_ASSERT(_tx);
            _tx(resp);
        });
        break;
      }
    }

    tryDispatch();
}

void
HandlerStage::powerCycle()
{
    _queue.clear();
    for (std::size_t i = 0; i < _cores.size(); ++i) {
        Core &c = _cores[i];
        if (!c.busy)
            continue;
        bool faulted = c.hung || c.crashed;
        releaseCore(i);
        if (faulted && _faults)
            _faults->noteRecovered();
    }
    _table.clear();
}

void
HandlerStage::abortInvocation(std::size_t core, std::uint64_t gen)
{
    Core &c = _cores[core];
    if (c.gen != gen)
        return; // the watchdog beat the trap to it and recovered
    PacketPtr pkt = c.pkt;
    releaseCore(core);
    // Host-path fallback recovers the crash: the one recovery note
    // for this injected fault.
    _faultFallbacks.inc();
    if (_faults)
        _faults->noteRecovered();
    ND_ASSERT(_hostRx);
    _hostRx(pkt);
    tryDispatch();
}

void
HandlerStage::releaseCore(std::size_t core)
{
    Core &c = _cores[core];
    ND_ASSERT(c.busy && _busyCores > 0);
    _busyTicks += curTick() - c.startTick;
    c.busy = false;
    c.hung = false;
    c.crashed = false;
    c.pkt.reset();
    ++c.gen;
    --_busyCores;
}

void
HandlerStage::armWatchdog()
{
    if (_watchdogArmed || _stallTimeout == 0 || _watchdogPeriod == 0)
        return;
    _watchdogArmed = true;
    scheduleRel(_watchdogPeriod, [this] { watchdogTick(); });
}

void
HandlerStage::watchdogTick()
{
    // Mirrors the PR 2 e1000 TX-hang watchdog: detect a stalled
    // core, drain the run queue to the host (the stage is suspect),
    // reset the core, rescue its frame onto the host path, book the
    // recovery against the injected fault.
    Tick now = curTick();
    for (std::size_t i = 0; i < _cores.size(); ++i) {
        Core &c = _cores[i];
        if (!c.busy || now - c.startTick < _stallTimeout)
            continue;
        _watchdogResets.inc();
        while (!_queue.empty()) {
            Pending p = std::move(_queue.front());
            _queue.pop_front();
            _drainedToHost.inc();
            ND_ASSERT(_hostRx);
            _hostRx(p.pkt);
        }
        PacketPtr rescued = c.pkt;
        bool faulted = c.hung || c.crashed;
        releaseCore(i);
        _faultFallbacks.inc();
        ND_ASSERT(_hostRx);
        _hostRx(rescued);
        // Exactly one recovery per injected fault: the watchdog
        // books hangs (and crashes it beat to the trap); a falsely
        // reset healthy invocation injected nothing, so its rescue
        // books nothing — the generation bump silences its stale
        // completion instead.
        if (faulted && _faults)
            _faults->noteRecovered();
    }
    if (_busyCores > 0 || !_queue.empty())
        scheduleRel(_watchdogPeriod, [this] { watchdogTick(); });
    else
        _watchdogArmed = false;
}

double
HandlerStage::coreUtilization() const
{
    Tick now = curTick();
    if (now == 0)
        return 0.0;
    return double(_busyTicks) / (double(now) * double(_cfg.cores));
}

} // namespace netdimm
