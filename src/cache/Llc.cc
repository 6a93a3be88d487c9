#include "cache/Llc.hh"

#include <algorithm>

namespace netdimm
{

Llc::Llc(EventQueue &eq, std::string name, const CacheConfig &cfg,
         MemTarget &downstream)
    : SimObject(eq, std::move(name)), _cfg(cfg), _downstream(downstream)
{
    _ddioWays = std::max(
        1u, std::uint32_t(double(cfg.assoc) * cfg.ddioFraction + 0.5));
    _lines.resize(std::size_t(numSets) * cfg.assoc);
}

std::uint32_t
Llc::setIndex(Addr addr) const
{
    return std::uint32_t((addr / cachelineBytes) % numSets);
}

Llc::Line *
Llc::findLine(Addr addr)
{
    Addr tag = addr / cachelineBytes;
    std::uint32_t set = setIndex(addr);
    for (std::uint32_t w = 0; w < _cfg.assoc; ++w) {
        Line &l = _lines[std::size_t(set) * _cfg.assoc + w];
        if (l.valid && l.tag == tag)
            return &l;
    }
    return nullptr;
}

const Llc::Line *
Llc::findLine(Addr addr) const
{
    return const_cast<Llc *>(this)->findLine(addr);
}

void
Llc::touch(Line &line)
{
    line.lastUse = ++_useClock;
}

Llc::Line &
Llc::victim(std::uint32_t set, bool ddio_only, MemSource src)
{
    std::uint32_t ways = ddio_only ? _ddioWays : _cfg.assoc;
    Line *best = nullptr;
    for (std::uint32_t w = 0; w < ways; ++w) {
        Line &l = _lines[std::size_t(set) * _cfg.assoc + w];
        if (!l.valid)
            return l;
        if (!best || l.lastUse < best->lastUse)
            best = &l;
    }
    ND_ASSERT(best);
    if (best->dirty) {
        _writebacks.inc();
        auto wb = makeMemRequest(best->tag * cachelineBytes,
                                 cachelineBytes, true, src);
        _downstream.access(wb);
    }
    if (best->ddio) {
        // A DMA-inserted line evicted before the CPU consumed it:
        // DMA leakage [68]; the CPU will later fetch it from DRAM.
        _ddioLeaks.inc();
    }
    best->valid = false;
    return *best;
}

void
Llc::access(const MemRequestPtr &req)
{
    // Split into lines; all hits complete after the hit latency, any
    // miss extends completion until its fill returns.
    struct Join
    {
        std::uint32_t left = 0;
        Tick lastDone = 0;
        MemRequest::Completion cb;
        EventQueue *eq;
    };
    std::uint32_t nlines = 0;
    forEachLine(req->addr, req->size, [&](Addr) { ++nlines; });

    // Single-line fast path (the common case for cacheline-sized
    // traffic): no join state, the completion rides the hit event or
    // the fill request directly. Event ordering matches the generic
    // path exactly: one schedule on a hit, none on a miss.
    if (nlines == 1) {
        Addr a = (req->addr / cachelineBytes) * cachelineBytes;
        Line *l = findLine(a);
        if (l) {
            _hits.inc();
            touch(*l);
            l->ddio = false;
            if (req->write)
                l->dirty = true;
            Tick done = curTick() + hitLatency();
            eventq().schedule(done,
                              [cb = std::move(req->onDone), done] {
                                  if (cb)
                                      cb(done);
                              });
            return;
        }
        _misses.inc();
        bool is_write = req->write;
        MemSource src = req->source;
        // The completion is too large to nest inside the fill's own
        // inline completion; park it behind one pooled pointer.
        auto cbp = std::allocate_shared<MemRequest::Completion>(
            PoolAlloc<MemRequest::Completion>{}, std::move(req->onDone));
        auto fill = makeMemRequest(
            a, cachelineBytes, false, src,
            [this, a, is_write, src, cbp](Tick t) {
                std::uint32_t set = setIndex(a);
                Line &v = victim(set, false, src);
                v.valid = true;
                v.tag = a / cachelineBytes;
                v.dirty = is_write;
                v.ddio = false;
                touch(v);
                if (*cbp)
                    (*cbp)(t + hitLatency());
            });
        _downstream.access(fill);
        return;
    }

    // The cache owns the request's completion from here on; steal it
    // (move — Completion is move-only and inline).
    auto join = std::allocate_shared<Join>(PoolAlloc<Join>{});
    join->cb = std::move(req->onDone);
    join->eq = &eventq();
    join->left = nlines;

    auto lineDone = [join](Tick t) {
        join->lastDone = std::max(join->lastDone, t);
        if (--join->left == 0 && join->cb)
            join->cb(join->lastDone);
    };

    forEachLine(req->addr, req->size, [&](Addr a) {
        Line *l = findLine(a);
        if (l) {
            _hits.inc();
            touch(*l);
            l->ddio = false;
            if (req->write)
                l->dirty = true;
            Tick done = curTick() + hitLatency();
            eventq().schedule(done, [lineDone, done] { lineDone(done); });
            return;
        }
        _misses.inc();
        // Fill from memory, then install.
        bool is_write = req->write;
        MemSource src = req->source;
        auto fill = makeMemRequest(
            a, cachelineBytes, false, src,
            [this, a, is_write, src, lineDone](Tick t) {
                std::uint32_t set = setIndex(a);
                Line &v = victim(set, false, src);
                v.valid = true;
                v.tag = a / cachelineBytes;
                v.dirty = is_write;
                v.ddio = false;
                touch(v);
                lineDone(t + hitLatency());
            });
        _downstream.access(fill);
    });
}

void
Llc::dmaWrite(Addr addr, std::uint32_t size, MemSource src,
              Completion cb)
{
    if (!_cfg.ddioEnabled) {
        // Pre-DDIO platform: DMA writes go straight to DRAM.
        invalidate(addr, size);
        auto wr = makeMemRequest(addr, size, true, src,
                                 std::move(cb));
        _downstream.access(wr);
        return;
    }
    forEachLine(addr, size, [&](Addr a) {
        Line *l = findLine(a);
        if (!l) {
            std::uint32_t set = setIndex(a);
            Line &v = victim(set, /*ddio_only=*/true, src);
            v.valid = true;
            v.tag = a / cachelineBytes;
            l = &v;
        }
        l->dirty = true;
        l->ddio = true;
        touch(*l);
        _ddioInserts.inc();
    });
    Tick done = curTick() + hitLatency();
    if (cb)
        eventq().schedule(done, [cb = std::move(cb), done] { cb(done); });
}

void
Llc::dmaRead(Addr addr, std::uint32_t size, MemSource src,
             Completion cb)
{
    if (!_cfg.ddioEnabled) {
        auto rd = makeMemRequest(addr, size, false, src,
                                 std::move(cb));
        _downstream.access(rd);
        return;
    }
    // Count resident vs. missing lines; missing lines come from DRAM.
    std::uint32_t missing = 0;
    Addr miss_first = 0;
    forEachLine(addr, size, [&](Addr a) {
        Line *l = findLine(a);
        if (l) {
            _hits.inc();
            touch(*l);
        } else {
            _misses.inc();
            if (missing == 0)
                miss_first = a;
            ++missing;
        }
    });
    if (missing == 0) {
        Tick done = curTick() + hitLatency();
        if (cb) {
            eventq().schedule(done,
                              [cb = std::move(cb), done] { cb(done); });
        }
        return;
    }
    auto req = makeMemRequest(miss_first, missing * cachelineBytes,
                              false, src, std::move(cb));
    _downstream.access(req);
}

void
Llc::flush(Addr addr, std::uint32_t size, MemSource src, Completion cb)
{
    std::uint32_t dirty = 0;
    Addr first_dirty = 0;
    forEachLine(addr, size, [&](Addr a) {
        Line *l = findLine(a);
        if (l && l->dirty) {
            if (dirty == 0)
                first_dirty = a;
            ++dirty;
            l->dirty = false;
            _writebacks.inc();
        }
    });
    if (dirty == 0) {
        Tick done = curTick() + hitLatency();
        if (cb) {
            eventq().schedule(done,
                              [cb = std::move(cb), done] { cb(done); });
        }
        return;
    }
    auto wb = makeMemRequest(first_dirty, dirty * cachelineBytes, true,
                             src, std::move(cb));
    _downstream.access(wb);
}

void
Llc::invalidate(Addr addr, std::uint32_t size)
{
    forEachLine(addr, size, [&](Addr a) {
        Line *l = findLine(a);
        if (l)
            l->valid = false;
    });
}

bool
Llc::probe(Addr addr) const
{
    return findLine(addr) != nullptr;
}

} // namespace netdimm
