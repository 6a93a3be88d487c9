#include "flow/FluidSolver.hh"

#include <algorithm>

namespace netdimm
{

FluidSolver::FluidSolver(EventQueue &eq, std::string name, Tick period)
    : SimObject(eq, std::move(name)),
      _period(period ? period : TransportConfig::rateIncreaseInterval)
{
    ND_ASSERT(_period > 0);
}

FluidLink &
FluidSolver::addLink(std::string name, const EthConfig &cfg,
                     std::uint32_t ref_frame_bytes)
{
    _links.push_back(std::make_unique<FluidLink>(
        std::move(name), cfg, ref_frame_bytes));
    return *_links.back();
}

FluidFlow &
FluidSolver::addFlow(std::uint64_t id, const TransportConfig &cfg,
                     std::vector<FluidLink *> path,
                     std::uint64_t total_bytes, const DcqcnState *seed)
{
    ND_ASSERT(!path.empty());
    ND_ASSERT(_flows.find(id) == _flows.end());
    FluidFlow &f = _flows[id];
    // A demoted flow may carry an id below the live ones.
    _active.insert(liveSlot(id), &f);
    f.id = id;
    f.cfg = cfg;
    f.path = std::move(path);
    f.totalBytes = total_bytes;
    if (seed)
        f.cc = *seed;
    else
        f.cc.init(cfg);
    f.startTick = curTick();
    pushArrivalRates();
    return f;
}

FluidFlow *
FluidSolver::findFlow(std::uint64_t id)
{
    auto it = _flows.find(id);
    return it == _flows.end() ? nullptr : &it->second;
}

FluidFlow
FluidSolver::removeFlow(std::uint64_t id)
{
    auto it = _flows.find(id);
    ND_ASSERT(it != _flows.end());
    auto live = liveSlot(id);
    if (live != _active.end() && *live == &it->second)
        _active.erase(live);
    FluidFlow out = std::move(it->second);
    _removedDelivered += out.deliveredBytes;
    _flows.erase(it);
    pushArrivalRates();
    return out;
}

void
FluidSolver::start(Tick horizon)
{
    ND_ASSERT(!_started);
    _started = true;
    _horizon = horizon;
    _lastRound = curTick();
    pushArrivalRates();
    Tick first = std::min(curTick() + _period, _horizon);
    eventq().schedule(first, [this] { round(); },
                      EventPriority::Fluid);
}

std::vector<FluidFlow *>::iterator
FluidSolver::liveSlot(std::uint64_t id)
{
    return std::lower_bound(
        _active.begin(), _active.end(), id,
        [](const FluidFlow *f, std::uint64_t key) { return f->id < key; });
}

double
FluidSolver::totalDeliveredBytes() const
{
    double sum = _removedDelivered;
    for (const auto &[id, f] : _flows)
        sum += f.deliveredBytes;
    return sum;
}

void
FluidSolver::pushArrivalRates()
{
    // Aggregate next-interval arrival rate per link, in wire Gbps.
    // A finished (or fully-offered) flow no longer arrives; its
    // backlog keeps draining inside the link integrals. Flows are
    // summed in id order, so every link's double sum is the same
    // whatever order the flows were added in.
    for (const FluidFlow *f : _active) {
        if (f->totalBytes && f->offeredBytes >= double(f->totalBytes))
            continue;
        for (FluidLink *l : f->path)
            l->addArrivalGbps(f->cc.rateGbps * l->wireFactor());
    }
    for (auto &l : _links)
        l->commitArrivals();
}

void
FluidSolver::round()
{
    Tick now = curTick();
    Tick dt = now - _lastRound;
    _lastRound = now;
    ++_rounds;

    // 1. Exact backlog integration over the closed interval, and
    //    each link's congestion signal for this round.
    for (auto &l : _links)
        l->advanceTo(now);

    // 2.+3. Per-flow ledger advance and rate control. A flow that
    // completes drops out of the live list, which is compacted in
    // place.
    std::size_t kept = 0;
    for (FluidFlow *live : _active) {
        FluidFlow &f = *live;

        // Offered bytes this window, at the rate chosen last round.
        double arr = f.cc.rateGbps / 8000.0 * double(dt);
        if (f.totalBytes) {
            double room =
                std::max(0.0, double(f.totalBytes) - f.offeredBytes);
            arr = std::min(arr, room);
        }
        f.offeredBytes += arr;

        // Bottleneck shares: the path link that delivered the
        // smallest fraction of its pool governs this flow's
        // progress; drops anywhere on the path return bytes.
        double fDel = 1.0;
        double fDrop = 0.0;
        bool congested = false;
        for (FluidLink *l : f.path) {
            fDel = std::min(fDel, l->deliveredShare());
            fDrop = std::max(fDrop, l->droppedShare());
            // The ECN signal carries the same feedback lag a
            // packet-level sender experiences: a mark reflects the
            // enqueue-time depth and only reaches the sender after
            // the marked frame has drained the backlog ahead of it.
            congested = congested || l->congestionSignal();
        }
        fDrop = std::min(fDrop, 1.0 - fDel);

        double pool = f.backlogBytes + arr;
        f.deliveredBytes += pool * fDel;
        // Go-back-N recovery in rate space: dropped bytes go back
        // to the unsent ledger and will be re-offered.
        f.offeredBytes -= pool * fDrop;
        f.backlogBytes = pool * (1.0 - fDel - fDrop);

        if (f.totalBytes &&
            f.deliveredBytes >= double(f.totalBytes) - 0.25) {
            // Snap the ledger shut so conservation is exact.
            f.deliveredBytes = double(f.totalBytes);
            f.offeredBytes = double(f.totalBytes);
            f.backlogBytes = 0.0;
            f.done = true;
            f.doneTick = now;
            ++_completed;
            continue;
        }

        // Congestion feedback: same law, same clock as the packet
        // transport. A flow samples marks at most as often as its
        // own frames arrive (segment serialization at its current
        // rate), so a sea of slow flows does not cut in lockstep
        // every round the way a naive fluid controller would.
        if (congested && now >= f.nextCutEligible) {
            // Sampling gap at the pre-cut rate: the frames whose
            // marks gate the *next* cut are already in flight at the
            // rate the flow had when this cut landed.
            Tick gap = serializationTicks(
                f.cfg.segmentBytes,
                std::max(f.cc.rateGbps, f.cfg.minRateGbps));
            if (f.cc.cut(f.cfg, now)) {
                ++_cuts;
                // The packet analogue cuts at the first marked frame
                // after the gap expires, i.e. with sub-round
                // precision. Rounds only sample eligibility every
                // _period, so carry the sampling overshoot (capped
                // at one round) into the next gap: the average cut
                // cadence then equals the gap exactly instead of
                // quantizing up or down to round multiples.
                Tick over =
                    std::min(now - f.nextCutEligible, _period);
                if (f.nextCutEligible == 0)
                    over = 0;
                f.nextCutEligible = now + gap - over;
            }
        }
        f.cc.timerRound(f.cfg);
        _active[kept++] = live;
    }
    _active.resize(kept);

    // 4. Push the new rates down for the next interval.
    pushArrivalRates();

    if (now < _horizon) {
        Tick next = std::min(now + _period, _horizon);
        eventq().schedule(next, [this] { round(); },
                          EventPriority::Fluid);
    }
}

} // namespace netdimm
