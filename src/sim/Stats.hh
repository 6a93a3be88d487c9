/**
 * @file
 * Lightweight statistics package.
 *
 * Components expose Scalar / Average / Quantile stats; benches and
 * examples read them directly or through a StatGroup dump. Bucketed
 * latency distributions use the mergeable harness/LatencyHistogram,
 * the repo's one histogram. The design
 * intentionally avoids a global registry: every stat belongs to the
 * component that owns it, and a StatGroup is just a named collection
 * used for pretty-printing.
 */

#ifndef NETDIMM_SIM_STATS_HH
#define NETDIMM_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "sim/Logging.hh"

namespace netdimm::stats
{

/** A monotonically accumulating counter. */
class Scalar
{
  public:
    void inc(std::uint64_t n = 1) { _value += n; }
    void reset() { _value = 0; }
    std::uint64_t value() const { return _value; }

  private:
    std::uint64_t _value = 0;
};

/** Running mean / min / max / stddev over double samples. */
class Average
{
  public:
    void
    sample(double v)
    {
        ++_n;
        _sum += v;
        _sumSq += v * v;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }

    void
    reset()
    {
        _n = 0;
        _sum = _sumSq = 0.0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
    }

    std::uint64_t count() const { return _n; }
    double sum() const { return _sum; }
    double mean() const { return _n ? _sum / double(_n) : 0.0; }
    double min() const { return _n ? _min : 0.0; }
    double max() const { return _n ? _max : 0.0; }

    double
    stddev() const
    {
        if (_n < 2)
            return 0.0;
        double m = mean();
        double var = _sumSq / double(_n) - m * m;
        return var > 0.0 ? std::sqrt(var) : 0.0;
    }

  private:
    std::uint64_t _n = 0;
    double _sum = 0.0;
    double _sumSq = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/**
 * Sample store with exact quantiles; used where the paper reports
 * per-packet latency distributions. Memory-bounded via reservoir
 * sampling beyond a cap.
 */
class Quantile
{
  public:
    explicit Quantile(std::size_t cap = 1u << 20) : _cap(cap) {}

    void
    sample(double v)
    {
        ++_n;
        _mean.sample(v);
        if (_samples.size() < _cap) {
            _samples.push_back(v);
        } else {
            // Reservoir replacement keeps an unbiased subsample; the
            // index derives from a deterministic integer hash of the
            // running sample count.
            std::uint64_t h = _n * 0x9E3779B97F4A7C15ull;
            h ^= h >> 33;
            std::uint64_t j = h % _n;
            if (j < _cap)
                _samples[std::size_t(j)] = v;
        }
    }

    std::uint64_t count() const { return _n; }
    double mean() const { return _mean.mean(); }
    double min() const { return _mean.min(); }
    double max() const { return _mean.max(); }

    /** Quantile q in [0,1]; interpolated between order statistics. */
    double percentile(double q) const;

  private:
    std::size_t _cap;
    std::uint64_t _n = 0;
    Average _mean;
    mutable std::vector<double> _samples;
};

/** A name/value pair list for printing component stats uniformly. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    void
    add(const std::string &key, double value, const std::string &unit = "")
    {
        _rows.push_back({key, value, unit});
    }

    void print(std::ostream &os) const;
    const std::string &name() const { return _name; }

  private:
    struct Row
    {
        std::string key;
        double value;
        std::string unit;
    };
    std::string _name;
    std::vector<Row> _rows;
};

} // namespace netdimm::stats

#endif // NETDIMM_SIM_STATS_HH
