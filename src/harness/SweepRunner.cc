#include "harness/SweepRunner.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/Logging.hh"

namespace netdimm
{

SweepRunner::SweepRunner(unsigned jobs)
    : _jobs(jobs != 0 ? jobs : std::thread::hardware_concurrency())
{
    if (_jobs == 0)
        _jobs = 1; // hardware_concurrency() may report 0
    _cellsByWorker.assign(_jobs, 0);
    _workers.reserve(_jobs);
    for (unsigned w = 0; w < _jobs; ++w)
        _workers.emplace_back([this, w] { workerMain(w); });
}

SweepRunner::~SweepRunner()
{
    {
        std::lock_guard<std::mutex> g(_m);
        _shutdown = true;
    }
    _cv.notify_all();
    for (std::thread &t : _workers)
        t.join();
}

void
SweepRunner::workerMain(unsigned worker)
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lk(_m);
            _cv.wait(lk,
                     [this] { return _shutdown || !_queue.empty(); });
            if (_queue.empty())
                return; // shutdown with nothing left to do
            job = std::move(_queue.front());
            _queue.pop_front();
        }
        job(worker);
    }
}

std::uint64_t
SweepRunner::cellsExecuted() const
{
    // Each slot is written only by its owning worker; snapshot reads
    // here happen while workers are idle (between sweeps).
    std::uint64_t total = 0;
    for (std::uint64_t c : _cellsByWorker)
        total += c;
    return total;
}

void
SweepRunner::runErased(std::size_t n,
                       const std::function<void(std::size_t)> &exec,
                       const std::function<const std::string &(
                           std::size_t)> &label)
{
    if (n == 0)
        return;

    // Completion + failure accounting, shared by the n jobs.
    std::mutex done_m;
    std::condition_variable done_cv;
    std::size_t done = 0;
    std::size_t firstFailed = n; // n = no failure
    std::string failLabel;
    std::string failWhat;

    {
        std::lock_guard<std::mutex> g(_m);
        for (std::size_t i = 0; i < n; ++i) {
            _queue.emplace_back([&, i](unsigned worker) {
                std::string what;
                bool failed = false;
                try {
                    exec(i);
                } catch (const std::exception &e) {
                    failed = true;
                    what = e.what();
                } catch (...) {
                    failed = true;
                    what = "unknown exception";
                }
                ++_cellsByWorker[worker];
                std::lock_guard<std::mutex> dg(done_m);
                // Keep the FIRST failing cell in grid order so the
                // report does not depend on worker interleaving.
                if (failed && i < firstFailed) {
                    firstFailed = i;
                    failLabel = label(i);
                    failWhat = what;
                }
                if (++done == n)
                    done_cv.notify_all();
            });
        }
    }
    _cv.notify_all();

    std::unique_lock<std::mutex> lk(done_m);
    done_cv.wait(lk, [&] { return done == n; });

    if (firstFailed != n)
        throw SweepCellError(firstFailed, failLabel, failWhat);
}

std::vector<WorkerPoolStats>
SweepRunner::drainWorkerPools()
{
    std::vector<WorkerPoolStats> out(_jobs);

    // Rendezvous: enqueue one drain job per worker; a worker that
    // claims one blocks until all _jobs are claimed, so each worker
    // takes exactly one and drains exactly its own pools.
    std::mutex m;
    std::condition_variable cv;
    unsigned arrived = 0;
    std::size_t finished = 0;

    {
        std::lock_guard<std::mutex> g(_m);
        for (unsigned j = 0; j < _jobs; ++j) {
            _queue.emplace_back([&](unsigned worker) {
                {
                    std::unique_lock<std::mutex> lk(m);
                    if (++arrived == _jobs)
                        cv.notify_all();
                    else
                        cv.wait(lk,
                                [&] { return arrived == _jobs; });
                }
                WorkerPoolStats ws;
                ws.worker = worker;
                ws.pools = drainObjectPools();
                ws.cells = _cellsByWorker[worker];
                std::lock_guard<std::mutex> lk(m);
                out[worker] = ws;
                if (++finished == _jobs)
                    cv.notify_all();
            });
        }
    }
    _cv.notify_all();

    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return finished == _jobs; });
    return out;
}

bool
tryParseSweepCli(const std::vector<std::string> &args,
                 const std::vector<std::string> &extra_flags,
                 SweepCli &out, std::string &error)
{
    auto allowed = [&](const std::string &flag) {
        return std::find(extra_flags.begin(), extra_flags.end(), flag) !=
               extra_flags.end();
    };
    SweepCli cli;
    for (std::size_t a = 0; a < args.size(); ++a) {
        const std::string &arg = args[a];
        if (arg == "--short") {
            cli.shortMode = true;
            continue;
        }
        if (arg == "--jobs") {
            if (a + 1 >= args.size()) {
                error = "--jobs requires a value";
                return false;
            }
            const std::string &v = args[++a];
            char *end = nullptr;
            long n = std::strtol(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0' || n < 1) {
                error = "--jobs must be a positive integer (got '" +
                        v + "')";
                return false;
            }
            cli.jobs = unsigned(n);
            continue;
        }
        if (arg == "--shards" && allowed(arg)) {
            if (a + 1 >= args.size()) {
                error = "--shards requires a value";
                return false;
            }
            const std::string &v = args[++a];
            char *end = nullptr;
            long n = std::strtol(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0' || n < 1) {
                error = "--shards must be a positive integer (got '" +
                        v + "')";
                return false;
            }
            cli.shards = unsigned(n);
            continue;
        }
        if (!allowed(arg)) {
            error = "unknown argument '" + arg + "'";
            return false;
        }
        cli.rest.push_back(arg);
    }
    if (cli.jobs == 0) {
        cli.jobs = std::thread::hardware_concurrency();
        if (cli.jobs == 0)
            cli.jobs = 1;
    }
    out = cli;
    return true;
}

SweepCli
parseSweepCli(int argc, char **argv,
              const std::vector<std::string> &extra_flags)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    SweepCli cli;
    std::string error;
    if (!tryParseSweepCli(args, extra_flags, cli, error))
        exitWithUsage(argc, argv, error, extra_flags);
    return cli;
}

void
exitWithUsage(int argc, char **argv, const std::string &error,
              const std::vector<std::string> &extra_flags)
{
    std::string usage = "usage: ";
    usage += argc > 0 ? argv[0] : "bench";
    usage += " [--short] [--jobs N]";
    for (const std::string &f : extra_flags)
        usage += " [" + (f == "--shards" ? f + " N" : f) + "]";
    std::fprintf(stderr, "%s: %s\n%s\n", argc > 0 ? argv[0] : "bench",
                 error.c_str(), usage.c_str());
    std::exit(2);
}

void
requireNoArgs(int argc, char **argv)
{
    if (argc <= 1)
        return;
    std::fprintf(stderr, "%s: unknown argument '%s'\nusage: %s\n",
                 argv[0], argv[1], argv[0]);
    std::exit(2);
}

} // namespace netdimm
