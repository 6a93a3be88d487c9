/**
 * @file
 * Shared types of the end-to-end benchmark: one iteration's result,
 * the span recorder used by the traced run, and the four workloads.
 *
 * Every workload is a fixed amount of simulated work derived from
 * the seed. One call runs it once from a cold start (fresh event
 * queues, drained object pools), so repeated calls in one process
 * must produce identical digests and counts; main.cpp checks that.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <vector>

namespace perfbench
{

/** Heap allocations made through global operator new so far. */
std::uint64_t heapAllocs();

inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Workload size: Full for measurement, Tiny for the self-test. */
enum class Size
{
    Full,
    Tiny,
};

/**
 * What one run of a workload produced. Host times are in seconds;
 * `counts` holds the host-independent per-layer metrics, which must
 * repeat exactly run to run.
 */
struct IterResult
{
    double setupS = 0.0; ///< start to the first dispatched event
    double runS = 0.0;   ///< the simulated work after set-up
    double genS = 0.0;   ///< input synthesis (part of set-up)
    double nodeBuildS = 0.0;
    double fabricBuildS = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed output check. */
    std::vector<std::string> failures;
    std::map<std::string, double> counts;
    /** Allocation count; exact on single-threaded workloads only. */
    double allocsPerEvent = 0.0;
    /** Digest of the simulated outputs (histograms + counters). */
    std::string digest;

    /** Record an output check: attempted += n, failed += bad. */
    void
    check(std::uint64_t n, std::uint64_t bad, const std::string &what)
    {
        attempted += n;
        failed += bad;
        if (bad)
            failures.push_back(what + ": " + std::to_string(bad) +
                               " of " + std::to_string(n) + " failed");
    }
};

// -- spans ---------------------------------------------------------------

/** std::allocator over malloc, so span storage is not counted as a
 *  simulator allocation (the traced run must count what the untraced
 *  run counts). */
template <typename T>
struct MallocAlloc
{
    using value_type = T;
    MallocAlloc() = default;
    template <typename U>
    MallocAlloc(const MallocAlloc<U> &)
    {
    }
    T *
    allocate(std::size_t n)
    {
        if (void *p = std::malloc(n * sizeof(T)))
            return static_cast<T *>(p);
        throw std::bad_alloc();
    }
    void deallocate(T *p, std::size_t) { std::free(p); }
    bool operator==(const MallocAlloc &) const { return true; }
};

/** One closed span. Names are string literals, compared by address. */
struct SpanRec
{
    const char *name = nullptr;
    /** (buffer << 32 | index) of the enclosing span; ~0 for a root. */
    std::uint64_t parent = ~std::uint64_t(0);
    std::uint64_t id = 0; ///< packet id where the span is per packet
    std::int64_t t0 = 0, t1 = 0;
};

/**
 * In-memory span log of a traced run: one buffer per recording
 * thread, nesting tracked per thread. Written out at exit.
 */
class SpanLog
{
  public:
    struct Buf
    {
        std::uint32_t index = 0;
        std::vector<SpanRec, MallocAlloc<SpanRec>> recs;
        std::vector<std::uint32_t, MallocAlloc<std::uint32_t>> open;
        /** Parent of this thread's root spans (cross-thread link). */
        std::uint64_t rootParent = ~std::uint64_t(0);
    };

    /** Buffer for the calling thread; its roots hang off @p parent. */
    Buf *
    newBuf(std::uint64_t parent)
    {
        std::lock_guard<std::mutex> g(_mutex);
        _bufs.push_back(std::make_unique<Buf>());
        Buf *b = _bufs.back().get();
        b->index = std::uint32_t(_bufs.size() - 1);
        b->rootParent = parent;
        b->recs.reserve(1 << 16);
        return b;
    }

    const std::vector<std::unique_ptr<Buf>> &bufs() const { return _bufs; }

  private:
    std::mutex _mutex;
    std::vector<std::unique_ptr<Buf>> _bufs;
};

/** The calling thread's span buffer; null when tracing is off. */
extern thread_local SpanLog::Buf *tlSpans;

/** Handle of the innermost open span on this thread (for children
 *  started on other threads). */
inline std::uint64_t
currentSpan()
{
    SpanLog::Buf *b = tlSpans;
    if (!b || b->open.empty())
        return b ? b->rootParent : ~std::uint64_t(0);
    return (std::uint64_t(b->index) << 32) | b->open.back();
}

/** Scoped span; a no-op when the thread is not recording. */
class Span
{
  public:
    explicit Span(const char *name, std::uint64_t id = 0)
        : _buf(tlSpans)
    {
        if (!_buf)
            return;
        SpanRec r;
        r.name = name;
        r.id = id;
        r.parent = currentSpan();
        _idx = std::uint32_t(_buf->recs.size());
        _buf->open.push_back(_idx);
        r.t0 = nowNs();
        _buf->recs.push_back(r);
    }
    ~Span()
    {
        if (!_buf)
            return;
        _buf->recs[_idx].t1 = nowNs();
        _buf->open.pop_back();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog::Buf *_buf;
    std::uint32_t _idx = 0;
};

/** Point this thread's spans at a fresh buffer of @p log for the
 *  scope (no-op when @p log is null). */
class SpanThread
{
  public:
    SpanThread(SpanLog *log, std::uint64_t parent)
        : _prev(tlSpans)
    {
        if (log)
            tlSpans = log->newBuf(parent);
    }
    ~SpanThread() { tlSpans = _prev; }
    SpanThread(const SpanThread &) = delete;
    SpanThread &operator=(const SpanThread &) = delete;

  private:
    SpanLog::Buf *_prev;
};

// -- workloads -------------------------------------------------------------

struct RunOptions
{
    std::uint64_t seed = 1;
    Size size = Size::Full;
    /** Span log of a traced run; null when untraced. */
    SpanLog *spans = nullptr;
    /** Self-test: swallow one replay frame on the wire. */
    bool plantUndelivered = false;
};

/** Each runs its workload once. */
IterResult runReplay(const RunOptions &o);
IterResult runPdes(const RunOptions &o);
IterResult runServingCell(const RunOptions &o);
IterResult runCongestion(const RunOptions &o);

/** Fig. 11 NetDIMM-vs-dNIC reduction gap, percentage points. */
double paperErrorPp(std::map<std::string, double> *counts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
