/**
 * @file
 * Benchmark program: runs one workload repeatedly for a fixed host
 * time and prints its metrics as one JSON line (run.py turns it into
 * the benchmark's result).
 *
 *   netdimm_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     [--size full|tiny] [--spans FILE]
 *                     [--plant-undelivered]
 *
 * Each repetition runs the workload's fixed simulated work from a
 * cold start. Host times are medians over the repetitions. Every
 * repetition must reproduce the first one's digest and counts; a
 * mismatch is a failed operation.
 *
 * With --trace 1 repetitions alternate untraced and traced. Traced
 * repetitions record spans around the benchmark's calls into each
 * layer; their digests and counts must equal the untraced ones, and
 * the report gives self time per span name and the tracing overhead.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <sys/resource.h>
#include <thread>

#include "bench.hh"
#include "sim/Logging.hh"
#include "sim/Pool.hh"

namespace perfbench
{
thread_local SpanLog::Buf *tlSpans = nullptr;
} // namespace perfbench

using namespace perfbench;

namespace
{

struct Workload
{
    const char *name;
    IterResult (*run)(const RunOptions &);
    /** Allocation counts repeat exactly (single-threaded). */
    bool exactAllocs;
};

const Workload kWorkloads[] = {
    {"replay", runReplay, true},
    {"pdes", runPdes, false},
    {"serving", runServingCell, false},
    {"congestion", runCongestion, true},
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double>
column(const std::vector<IterResult> &runs, double IterResult::*field)
{
    std::vector<double> v;
    for (const IterResult &r : runs)
        v.push_back(r.*field);
    return v;
}

/** Nearest-rank percentile of a sorted sample. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::size_t rank = std::size_t(std::ceil(q * double(sorted.size())));
    return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) -
                  1];
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Digest of a run's simulated outputs: its own digest text plus
 *  every host-independent count, printed exactly. */
std::string
fullDigest(const IterResult &r, bool withAllocs)
{
    std::string text = r.digest;
    char buf[96];
    for (const auto &[k, v] : r.counts) {
        std::snprintf(buf, sizeof(buf), "%s=%.17g;", k.c_str(), v);
        text += buf;
    }
    if (withAllocs) {
        std::snprintf(buf, sizeof(buf), "allocs_per_event=%.17g;",
                      r.allocsPerEvent);
        text += buf;
    }
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, fnv1a(text));
    return buf;
}

/** What differs between two repetitions' outputs. */
std::string
firstDifference(const IterResult &a, const IterResult &b)
{
    if (a.digest != b.digest)
        return "digest " + a.digest + " vs " + b.digest;
    for (const auto &[k, v] : a.counts) {
        auto it = b.counts.find(k);
        if (it == b.counts.end() || it->second != v)
            return k + " " + std::to_string(v) + " vs " +
                   (it == b.counts.end() ? std::string("missing")
                                         : std::to_string(it->second));
    }
    if (a.counts.size() != b.counts.size())
        return "count names";
    return "allocs_per_event " + std::to_string(a.allocsPerEvent) + " vs " +
           std::to_string(b.allocsPerEvent);
}

/** Unit of a metric, from its name's suffix. */
const char *
unitOf(const std::string &name)
{
    auto ends = [&name](const char *suffix) {
        std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends("_ns") || name.find("_ns.") != std::string::npos)
        return "ns";
    if (ends("_us"))
        return "us";
    if (ends("_per_s"))
        return "1/s";
    if (ends("_s"))
        return "s";
    if (ends("_pp"))
        return "pp";
    if (ends("_mb"))
        return "MB";
    if (ends("_bytes") || ends("_bytes_per_item"))
        return "B";
    if (ends("_pct") || name.find("_pct.") != std::string::npos)
        return "%";
    if (ends("_frac") || ends("_ratio") || ends("_util") ||
        ends("imbalance") || ends("overhead"))
        return "ratio";
    return "count";
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            o += '\\';
        o += (ch == '\n') ? ' ' : ch;
    }
    return o;
}

/** Per-span-name aggregate of one traced repetition. */
struct SpanStats
{
    std::uint64_t calls = 0;
    double totalS = 0.0, selfS = 0.0;
    std::vector<double> durNs;
};

std::map<std::string, SpanStats>
aggregateSpans(const SpanLog &log)
{
    std::map<std::string, SpanStats> out;
    for (const auto &b : log.bufs()) {
        std::vector<double> childNs(b->recs.size(), 0.0);
        for (const SpanRec &r : b->recs) {
            if (r.parent != ~std::uint64_t(0) &&
                (r.parent >> 32) == b->index)
                childNs[r.parent & 0xffffffffu] += double(r.t1 - r.t0);
        }
        for (std::size_t i = 0; i < b->recs.size(); ++i) {
            const SpanRec &r = b->recs[i];
            SpanStats &s = out[r.name];
            double d = double(r.t1 - r.t0);
            ++s.calls;
            s.totalS += d * 1e-9;
            s.selfS += (d - childNs[i]) * 1e-9;
            s.durNs.push_back(d);
        }
    }
    for (auto &[name, s] : out)
        std::sort(s.durNs.begin(), s.durNs.end());
    return out;
}

void
writeSpans(const SpanLog &log, const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write spans to %s\n", path);
        return;
    }
    std::int64_t base = INT64_MAX;
    for (const auto &b : log.bufs())
        for (const SpanRec &r : b->recs)
            base = std::min(base, r.t0);
    std::fprintf(f, "thread,index,name,parent,id,start_ns,end_ns\n");
    for (const auto &b : log.bufs())
        for (std::size_t i = 0; i < b->recs.size(); ++i) {
            const SpanRec &r = b->recs[i];
            long long parent =
                r.parent == ~std::uint64_t(0) ? -1 : (long long)r.parent;
            std::fprintf(f, "%u,%zu,%s,%lld,%" PRIu64 ",%" PRId64
                            ",%" PRId64 "\n",
                         b->index, i, r.name, parent, r.id, r.t0 - base,
                         r.t1 - base);
        }
    std::fclose(f);
}

std::string
fingerprint()
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"hw_threads\": %u, \"compiler\": \"%s %s\", "
                  "\"build_type\": \"%s\"}",
                  std::thread::hardware_concurrency(),
#if defined(__clang__)
                  "clang",
#elif defined(__GNUC__)
                  "gcc",
#else
                  "unknown",
#endif
                  __VERSION__, PERFBENCH_BUILD_TYPE);
    return buf;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload {replay|pdes|serving|congestion} "
                 "--seed N --seconds S --trace 0|1 [--size full|tiny] "
                 "[--spans FILE] [--plant-undelivered]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    netdimm::setQuiet(true);
    const Workload *wl = nullptr;
    RunOptions opt;
    bool haveSeed = false;
    double seconds = -1;
    int trace = -1;
    const char *spansPath = nullptr;
    for (int a = 1; a < argc; ++a) {
        std::string k = argv[a];
        if (k == "--plant-undelivered") {
            opt.plantUndelivered = true;
            continue;
        }
        if (a + 1 >= argc)
            return usage(argv[0]);
        std::string v = argv[++a];
        char *end = nullptr;
        if (k == "--workload") {
            for (const Workload &w : kWorkloads)
                if (v == w.name)
                    wl = &w;
        } else if (k == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = true;
            if (*end || v.empty() || v[0] == '-')
                return usage(argv[0]);
        } else if (k == "--seconds") {
            seconds = std::strtod(v.c_str(), &end);
            if (*end || !(seconds > 0))
                return usage(argv[0]);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return usage(argv[0]);
            trace = v == "1";
        } else if (k == "--size") {
            if (v != "full" && v != "tiny")
                return usage(argv[0]);
            opt.size = v == "tiny" ? Size::Tiny : Size::Full;
        } else if (k == "--spans") {
            spansPath = argv[a];
        } else {
            return usage(argv[0]);
        }
    }
    if (!wl || !haveSeed || seconds < 0 || trace < 0)
        return usage(argv[0]);

    // -- repetitions ------------------------------------------------------
    // Repetition 0 is a warm-up: its output checks count, but its host
    // times and its allocation count (first-use statics) are not used.
    const std::size_t minIters = 1 + (trace ? 4 : 3);
    std::vector<IterResult> plain, traced;
    std::unique_ptr<SpanLog> lastLog;
    std::string refDigest;
    std::uint64_t attempted = 0, failed = 0;
    std::set<std::string> failures;
    auto tStart = std::chrono::steady_clock::now();
    for (std::size_t i = 0;
         i < minIters || secondsSince(tStart) < seconds; ++i) {
        bool tracedIter = trace && i > 0 && i % 2 == 0;
        IterResult r;
        if (tracedIter) {
            auto log = std::make_unique<SpanLog>();
            {
                SpanThread st(log.get(), ~std::uint64_t(0));
                RunOptions tracedOpt = opt;
                tracedOpt.spans = log.get();
                r = wl->run(tracedOpt);
            }
            lastLog = std::move(log);
        } else {
            r = wl->run(opt);
        }
        netdimm::drainObjectPools();

        attempted += r.attempted;
        failed += r.failed;
        for (const std::string &f : r.failures)
            failures.insert(f);
        if (i == 0)
            continue;
        std::string d = fullDigest(r, wl->exactAllocs);
        ++attempted;
        if (refDigest.empty()) {
            refDigest = d;
        } else if (d != refDigest) {
            ++failed;
            failures.insert(std::string(tracedIter ? "traced" : "untraced") +
                            " repetition differs from the first: " +
                            firstDifference(plain.front(), r));
        }
        (tracedIter ? traced : plain).push_back(std::move(r));
    }

    // -- metrics ------------------------------------------------------------
    auto med = [&plain](double IterResult::*field) {
        return median(column(plain, field));
    };
    const IterResult &first = plain.front();
    std::map<std::string, double> metrics;
    double runS = med(&IterResult::runS);
    if (!trace) {
        struct rusage ru;
        getrusage(RUSAGE_SELF, &ru);
        metrics["setup_s"] = med(&IterResult::setupS);
        metrics["run_s"] = runS;
        metrics["peak_rss_mb"] = double(ru.ru_maxrss) / 1024.0;
        // Deterministic; measured once, outside the timed repetitions,
        // where the workload does not run the Fig. 11 probe itself.
        auto own = first.counts.find("paper_err_pp");
        double err = own != first.counts.end() ? own->second
                                               : paperErrorPp(nullptr);
        metrics["paper_err_pp"] = err;
    } else {
        for (const auto &[k, v] : first.counts)
            metrics[k] = v;
        double events = first.counts.count("sim.events")
                            ? first.counts.at("sim.events")
                            : 0.0;
        metrics["sim.events_per_s"] = runS > 0 ? events / runS : 0.0;
        metrics["sim.allocs_per_event"] = first.allocsPerEvent;
        metrics["workload.gen_s"] = med(&IterResult::genS);
        metrics["kernel.node_build_s"] = med(&IterResult::nodeBuildS);
        metrics["net.fabric_build_s"] = med(&IterResult::fabricBuildS);
        double tracedRunS = median(column(traced, &IterResult::runS));
        metrics["trace.overhead"] = runS > 0 ? tracedRunS / runS : 0.0;
        std::map<std::string, SpanStats> spans = aggregateSpans(*lastLog);
        auto callNs = [&spans](const char *name, double q) {
            auto it = spans.find(name);
            return it == spans.end() ? 0.0 : percentile(it->second.durNs, q);
        };
        metrics["kernel.send_ns.p50"] = callNs("Node::sendPacket", 0.50);
        metrics["kernel.send_ns.p99"] = callNs("Node::sendPacket", 0.99);
        metrics["net.forward_ns.p50"] = callNs("ClosFabric::forward", 0.50);
        metrics["net.forward_ns.p99"] = callNs("ClosFabric::forward", 0.99);
        metrics["net.send_ns.p50"] = callNs("EthLink::send", 0.50);
        metrics["net.send_ns.p99"] = callNs("EthLink::send", 0.99);
        std::uint64_t nspans = 0;
        std::printf("%-36s %10s %10s %10s %10s %10s\n", "span", "calls",
                    "total_s", "self_s", "p50_ns", "p99_ns");
        for (const auto &[name, s] : spans) {
            nspans += s.calls;
            std::printf("%-36s %10" PRIu64 " %10.4f %10.4f %10.0f %10.0f\n",
                        name.c_str(), s.calls, s.totalS, s.selfS,
                        percentile(s.durNs, 0.50), percentile(s.durNs, 0.99));
        }
        metrics["trace.spans"] = double(nspans);
        std::printf("tracing overhead: traced run_s %.4f / untraced %.4f\n",
                    tracedRunS, runS);
        if (spansPath)
            writeSpans(*lastLog, spansPath);
    }

    // -- report ---------------------------------------------------------------
    for (const std::string &f : failures)
        std::printf("FAILED: %s\n", f.c_str());
    for (auto [label, field] : {std::pair{"setup_s", &IterResult::setupS},
                                std::pair{"run_s", &IterResult::runS}}) {
        std::vector<double> v = column(plain, field);
        std::sort(v.begin(), v.end());
        std::printf("%s over %zu untraced repetitions: q1 %.6f median %.6f "
                    "q3 %.6f\n",
                    label, v.size(), percentile(v, 0.25), median(v),
                    percentile(v, 0.75));
    }
    std::printf("workload %s seed %" PRIu64 ": %zu untraced + %zu traced "
                "repetitions, digest %s\n",
                wl->name, opt.seed, plain.size(), traced.size(),
                refDigest.c_str());
    std::string json = "{\"workload\": \"" + std::string(wl->name) +
                       "\", \"fingerprint\": " + fingerprint() +
                       ", \"digest\": \"" + refDigest +
                       "\", \"repetitions\": " +
                       std::to_string(plain.size() + traced.size()) +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"failures\": [";
    bool firstF = true;
    for (const std::string &f : failures) {
        json += (firstF ? "\"" : ", \"") + jsonEscape(f) + "\"";
        firstF = false;
    }
    json += "], \"metrics\": {";
    char buf[160];
    bool firstM = true;
    for (const auto &[name, value] : metrics) {
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      firstM ? "" : ", ", name.c_str(), value,
                      unitOf(name));
        json += buf;
        firstM = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
