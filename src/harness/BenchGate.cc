#include "harness/BenchGate.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

namespace netdimm
{

bool
tryParseGateCli(const std::vector<std::string> &args,
                const std::vector<std::string> &extra_flags,
                GateCli &out, std::string &error)
{
    GateCli cli = out;
    std::vector<std::string> rest;
    for (std::size_t a = 0; a < args.size(); ++a) {
        const std::string &arg = args[a];
        std::string *path = arg == "--out"        ? &cli.outPath
                            : arg == "--baseline" ? &cli.baselinePath
                                                  : nullptr;
        if (!path && arg != "--tolerance") {
            rest.push_back(arg);
            continue;
        }
        if (a + 1 >= args.size()) {
            error = arg + " requires a value";
            return false;
        }
        const std::string &v = args[++a];
        if (path) {
            *path = v;
            continue;
        }
        char *end = nullptr;
        cli.tolerance = std::strtod(v.c_str(), &end);
        // Written to also reject nan: at 1 or above the floor is <= 0
        // and the gate could never fail.
        if (end == v.c_str() || *end != '\0' ||
            !(cli.tolerance >= 0.0 && cli.tolerance < 1.0)) {
            error = "--tolerance must be a number in [0, 1) (got '" +
                    v + "')";
            return false;
        }
    }
    if (!tryParseSweepCli(rest, extra_flags, cli.sweep, error))
        return false;
    out = cli;
    return true;
}

GateCli
parseGateCli(int argc, char **argv, const char *default_out,
             const std::vector<std::string> &extra_flags)
{
    GateCli cli;
    cli.outPath = default_out;
    std::string error;
    if (!tryParseGateCli({argv + 1, argv + argc}, extra_flags, cli,
                         error)) {
        std::vector<std::string> flags = extra_flags;
        flags.insert(flags.end(),
                     {"--out FILE", "--baseline FILE", "--tolerance F"});
        exitWithUsage(argc, argv, error, flags);
    }
    return cli;
}

double
wallSeconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

long
peakRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

int
checkBaseline(const std::string &path, double tolerance,
              const std::vector<GateMetric> &metrics)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    const double floor = 1.0 - tolerance;
    int rc = 0;
    for (const GateMetric &m : metrics) {
        // The number after `"key":`; 0 (not positive) when absent.
        std::string needle = std::string("\"") + m.key + "\":";
        std::size_t at = text.find(needle);
        double base = at == std::string::npos
                          ? 0.0
                          : std::strtod(text.c_str() + at +
                                            needle.size(),
                                        nullptr);
        if (!(base > 0)) {
            std::fprintf(stderr, "baseline missing key %s\n", m.key);
            return 2;
        }
        std::printf("check   : %s %.3g vs baseline %.3g "
                    "(%.2fx, floor %.2fx)\n",
                    m.key, m.current, base, m.current / base, floor);
        if (m.current < floor * base) {
            std::fprintf(stderr,
                         "FAIL: %s regressed beyond %.0f%% "
                         "tolerance\n",
                         m.key, tolerance * 100);
            rc = 1;
        }
    }
    if (rc == 0)
        std::printf("baseline check passed\n");
    return rc;
}

} // namespace netdimm
