/**
 * @file
 * What the self-gating perf harnesses (`sim_speedup`, `pdes_scale`,
 * `hybrid_fidelity`) share: the `--out` / `--baseline` /
 * `--tolerance` command line, the host wall-clock and peak-RSS
 * probes, and the check of a run against a committed baseline JSON.
 * Each bench keeps its own result JSON, hard floors and exit order.
 */

#ifndef NETDIMM_HARNESS_BENCHGATE_HH
#define NETDIMM_HARNESS_BENCHGATE_HH

#include <chrono>
#include <string>
#include <vector>

#include "harness/SweepRunner.hh"

namespace netdimm
{

/** Command line of a self-gating bench. */
struct GateCli
{
    std::string outPath;      ///< `--out FILE`: the result JSON
    std::string baselinePath; ///< `--baseline FILE`; empty = no check
    double tolerance = 0.20;  ///< `--tolerance F`, in [0, 1)
    SweepCli sweep;           ///< the rest, allowlisted flags in `rest`
};

/**
 * Testable parser core: peels `--out`, `--baseline` and `--tolerance`
 * from @p args (argv[1..argc)) and hands the rest to tryParseSweepCli
 * with the allowlist @p extra_flags. Fields whose flag is absent keep
 * the values @p out holds. On a missing value, a tolerance that is
 * not a number in [0, 1), or a sweep-CLI error, returns false with a
 * diagnostic in @p error and leaves @p out untouched.
 */
bool tryParseGateCli(const std::vector<std::string> &args,
                     const std::vector<std::string> &extra_flags,
                     GateCli &out, std::string &error);

/** Parse argv with `outPath` defaulting to @p default_out; on error
 *  print it with a usage line to stderr and exit with status 2. */
GateCli parseGateCli(int argc, char **argv, const char *default_out,
                     const std::vector<std::string> &extra_flags = {});

/** Host seconds elapsed since @p t0 on the steady clock. */
double wallSeconds(std::chrono::steady_clock::time_point t0);

/** Peak resident set size of this process so far, in KB. */
long peakRssKb();

/** One gated metric: its baseline JSON key and this run's value. */
struct GateMetric
{
    const char *key;
    double current;
};

/**
 * Compare each metric with `"key": <number>` in the baseline JSON at
 * @p path, printing one `check   :` line per metric, then `baseline
 * check passed` when every metric reaches (1 - @p tolerance) x its
 * baseline. Returns 0 on pass, 1 when a metric is below its floor,
 * and 2 when the file cannot be read or a key is missing or not
 * positive.
 */
int checkBaseline(const std::string &path, double tolerance,
                  const std::vector<GateMetric> &metrics);

} // namespace netdimm

#endif // NETDIMM_HARNESS_BENCHGATE_HH
