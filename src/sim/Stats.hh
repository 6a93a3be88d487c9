/**
 * @file
 * Lightweight statistics package.
 *
 * Components expose Scalar / Average stats; benches and examples
 * read them directly or through a StatGroup dump. Percentiles come
 * from the mergeable harness/LatencyHistogram, the repo's one
 * histogram. The design intentionally avoids a global registry:
 * every stat belongs to the component that owns it, and a StatGroup
 * is just a named collection used for pretty-printing.
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
