/**
 * @file
 * Discrete-event simulation core.
 *
 * A single EventQueue orders callbacks by (tick, priority, insertion
 * sequence). Components schedule lambdas; the queue advances simulated
 * time to the next event's timestamp and invokes it. Determinism is
 * guaranteed by the total ordering: two events at the same tick and
 * priority run in insertion order.
 *
 * Hot-path layout (zero steady-state allocation):
 *
 *  - Callbacks are InlineFunction, not std::function: captures live
 *    in fixed inline storage, a too-large capture is a compile error,
 *    so scheduling never touches the heap.
 *  - Callbacks are stored in slab-allocated slots recycled through a
 *    free list. The heap orders small POD keys (tick, prio, seq,
 *    slot, gen) only, so sift operations never move closures, and
 *    dispatch invokes the callback IN its slot (disarmed first, freed
 *    after it returns), never copying the capture anywhere.
 *  - A handle encodes (generation << 32 | slot). deschedule() is an
 *    O(1) generation check + flag write (the heap entry is skipped
 *    lazily when it surfaces); a recycled slot bumps its generation,
 *    so a stale handle can never cancel the slot's next tenant.
 */

#ifndef NETDIMM_SIM_EVENTQUEUE_HH
#define NETDIMM_SIM_EVENTQUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/InlineFunction.hh"
#include "sim/Logging.hh"
#include "sim/Ticks.hh"

namespace netdimm
{

/** Relative ordering of events scheduled for the same tick. */
enum class EventPriority : int
{
    /** DRAM / link state maintenance runs before consumers. */
    Maintenance = 0,
    /** Fluid-model solver rounds (src/flow) integrate link backlogs
     *  up to the tick before packet-level consumers sample them. */
    Fluid = 5,
    /** Default priority for most component events. */
    Default = 10,
    /** Statistic sampling runs after the tick's functional events. */
    Stats = 20,
};

/**
 * Inline capture budget for event callbacks. Sized for the largest
 * capture in src/ (the NetDIMM cloneBuffer trampoline: a moved
 * CloneDone completion plus the clone extents, 128 bytes); the
 * static_assert inside InlineFunction keeps it honest.
 */
constexpr std::size_t eventCaptureBytes = 128;

/**
 * A time-ordered queue of callbacks driving the simulation.
 *
 * The queue is not thread safe; a simulation is a single-threaded
 * deterministic run.
 */
class EventQueue
{
  public:
    using Callback = InlineFunction<void(), eventCaptureBytes>;

    /** Never returned by schedule(); deschedule(invalid) is a no-op. */
    static constexpr std::uint64_t invalidHandle = 0;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** @return the current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p fn to run at absolute time @p when. The callable
     * is constructed directly in its pooled slot (no intermediate
     * Callback move); capture-size limits are enforced by
     * Callback's static_assert at instantiation.
     *
     * @param when absolute tick, must be >= curTick().
     * @param fn callback to invoke.
     * @param prio same-tick ordering class.
     * @return a handle usable with deschedule().
     */
    template <typename F>
    std::uint64_t
    schedule(Tick when, F &&fn,
             EventPriority prio = EventPriority::Default)
    {
        if (when < _curTick)
            panic("scheduling event in the past (%llu < %llu)",
                  (unsigned long long)when,
                  (unsigned long long)_curTick);
        std::uint32_t idx = allocSlot();
        Slot &s = slotRef(idx);
        if constexpr (std::is_same_v<std::decay_t<F>, Callback>)
            s.cb = std::forward<F>(fn);
        else
            s.cb.emplace(std::forward<F>(fn));
        s.armed = true;
        std::uint64_t seq = _nextSeq++;
        heapPush(Entry{
            when,
            (std::uint64_t(static_cast<std::int32_t>(prio)) << 56) |
                seq,
            idx, s.gen});
        ++_livePending;
        return (std::uint64_t(s.gen) << 32) | idx;
    }

    /** Schedule @p fn to run @p delta ticks from now. */
    template <typename F>
    std::uint64_t
    scheduleRel(Tick delta, F &&fn,
                EventPriority prio = EventPriority::Default)
    {
        return schedule(_curTick + delta, std::forward<F>(fn), prio);
    }

    /**
     * Cancel a previously scheduled event: O(1), frees the slot and
     * destroys the capture immediately. Cancelling an event that
     * already ran (or was already cancelled) is a harmless no-op —
     * the slot's generation has moved on, so the stale handle cannot
     * touch whatever event occupies the slot now.
     */
    void deschedule(std::uint64_t handle);

    /** @return true when no events remain pending. */
    bool empty() const { return _livePending == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t pendingEvents() const { return _livePending; }

    /**
     * Run events until the queue drains or @p limit is reached.
     *
     * @param limit stop once the next event is strictly after this
     *              tick; the clock is left at the last executed
     *              event's time.
     * @return number of events executed.
     */
    std::uint64_t run(Tick limit = maxTick);

    /**
     * Bounded execution for co-simulation / sharded drivers: run
     * every event with when <= @p horizon, then advance the clock to
     * exactly @p horizon even if the queue went idle earlier. Unlike
     * run(), draining before the horizon is a normal outcome (the
     * next work may arrive from outside this queue), so no health
     * check fires. Re-entrant: successive calls with growing horizons
     * resume where the previous one stopped; a horizon before
     * curTick() is a no-op, and a horizon equal to curTick() runs
     * only events scheduled at exactly the current tick.
     *
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick horizon);

    /**
     * Tick of the earliest pending event, or maxTick when none is
     * pending. Prunes cancelled entries, so it is not const.
     */
    Tick peekNextTick();

    /**
     * Run exactly one event if any is pending.
     * @return true if an event was executed.
     */
    bool step();

    /** Total events executed since construction. */
    std::uint64_t executedEvents() const { return _executed; }

    // -- per-simulation id allocation -------------------------------------
    //
    // Mutable id state lives on the queue, not in a process global, so
    // a simulation's ids depend only on its own history: the same cell
    // run twice in one process (or concurrently on two threads) mints
    // the same ids, which is what keeps sweep output independent of
    // cell execution order.

    /** Mint the next packet id for this simulation (first id is 1). */
    std::uint64_t allocPacketId() { return _nextPacketId++; }

    /** Packet ids minted so far. */
    std::uint64_t packetIdsAllocated() const { return _nextPacketId - 1; }

    // -- pool statistics -------------------------------------------------

    /** Event slots ever materialized (high-water, slabs never shrink). */
    std::size_t
    slotCapacity() const
    {
        return _slabs.size() * slabSize;
    }

    /**
     * Slab allocations since construction. Constant once the queue
     * reaches its high-water occupancy: the no-steady-state-allocation
     * tests assert this stops moving.
     */
    std::uint64_t slabAllocations() const { return _slabAllocs; }

    // -- simulation health ----------------------------------------------
    //
    // Components register a liveness probe reporting how much work
    // they still hold (queued requests, in-flight skbs). When run()
    // drains the queue while some probe reports outstanding work, the
    // simulation has deadlocked: nothing can ever finish that work
    // because no event remains to drive it. A max-tick watchdog
    // independently bounds runaway simulations (e.g. a retry loop
    // rescheduling itself forever).

    /**
     * Register a liveness probe. @p outstanding reports work items
     * the component holds that still need events to complete.
     * @return a probe id for heartbeat()/unregisterHealthProbe().
     */
    std::size_t registerHealthProbe(std::string name,
                                    std::function<std::uint64_t()>
                                        outstanding);

    /** Deactivate a probe (owner is being destroyed). */
    void unregisterHealthProbe(std::size_t id);

    /**
     * Record that the probed component made forward progress.
     * Ignored for out-of-range or unregistered probe ids.
     */
    void
    heartbeat(std::size_t id)
    {
        if (id < _probes.size() && _probes[id].active)
            _probes[id].lastBeat = _curTick;
    }

    /**
     * Last heartbeat tick of probe @p id (0 if never beaten, out of
     * range, or unregistered).
     */
    Tick
    lastHeartbeat(std::size_t id) const
    {
        return id < _probes.size() && _probes[id].active
                   ? _probes[id].lastBeat
                   : 0;
    }

    /**
     * Evaluate all probes now. Counts (and warns about) a deadlock
     * when any active probe reports outstanding work; run() calls
     * this automatically whenever the queue drains.
     * @return true when no outstanding work is reported.
     */
    bool checkHealth();

    /** Deadlocks detected by checkHealth() so far. */
    std::uint64_t deadlocksDetected() const { return _deadlocks; }

    /**
     * Arm the max-tick watchdog: run() refuses to advance past
     * @p limit and flags the overrun instead of spinning forever.
     * 0 disarms.
     */
    void
    setTickLimit(Tick limit)
    {
        _tickLimit = limit;
        _tickLimitHit = false;
    }

    /** True when run() stopped at the max-tick watchdog. */
    bool tickLimitExceeded() const { return _tickLimitHit; }

  private:
    /**
     * POD heap key. The heap never holds the callback: sift
     * operations shuffle 24-byte keys, and a dead key (cancelled or
     * stale generation) is dropped when it reaches the top. Priority
     * and sequence share one word -- (prio << 56) | seq -- so the
     * (when, prio, seq) total order costs two compares; 2^56 events
     * at a billion events per second is two years of wall clock, so
     * the sequence field cannot overflow into the priority bits.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t prioSeq;
        std::uint32_t slot;
        std::uint32_t gen;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return prioSeq > o.prioSeq;
        }
    };

    /** One pooled event: the callback plus its recycling metadata. */
    struct Slot
    {
        Callback cb;
        /** Bumped on every free; 0 is never a live generation. */
        std::uint32_t gen = 1;
        std::uint32_t nextFree = 0;
        bool armed = false;
    };

    struct HealthProbe
    {
        std::string name;
        std::function<std::uint64_t()> outstanding;
        Tick lastBeat = 0;
        bool active = false;
    };

    static constexpr std::uint32_t noSlot = 0xffffffffu;
    static constexpr std::uint32_t slabSize = 256;

    /**
     * 4-ary implicit min-heap of POD entries. Half the levels of a
     * binary heap and four children per cache-line pair make the
     * pop-heavy dispatch loop measurably faster than
     * std::priority_queue; the comparator is the same strict total
     * order, so pop order (hence simulation output) is unchanged.
     */
    std::vector<Entry> _heap;
    /** Slab storage: stable addresses, grows by whole slabs. */
    std::vector<std::unique_ptr<Slot[]>> _slabs;
    std::uint32_t _freeHead = noSlot;
    std::size_t _livePending = 0;
    std::uint64_t _slabAllocs = 0;

    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _nextPacketId = 1;

    std::vector<HealthProbe> _probes;
    std::uint64_t _deadlocks = 0;
    Tick _tickLimit = 0;
    bool _tickLimitHit = false;

    Slot &
    slotRef(std::uint32_t idx)
    {
        return _slabs[idx / slabSize][idx % slabSize];
    }

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t idx);
    void growSlab();

    void heapPush(const Entry &e);
    void heapPop();

    /** Drop cancelled / stale entries off the top of the heap. */
    void skipDead();

    /** Shared core of run()/runUntil(). */
    std::uint64_t runLoop(Tick limit, bool health_on_drain);

    /** Pop and run the (live) top entry. */
    void dispatchTop();
};

} // namespace netdimm

#endif // NETDIMM_SIM_EVENTQUEUE_HH
