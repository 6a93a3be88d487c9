/**
 * @file
 * Log-binned, mergeable latency histogram — the shared percentile
 * engine of the benches (HDR-histogram flavoured).
 *
 * Values (ticks, or any non-negative integer unit) land in buckets
 * whose width grows with magnitude: values below 2^subBucketBits are
 * exact; above that, each power-of-two range splits into
 * 2^(subBucketBits-1) linear sub-buckets, bounding the relative
 * quantization error at 2^-(subBucketBits-1) (~1.6% at the default 7
 * bits). count/min/max/sum are exact, so mean() carries no binning
 * error at all.
 *
 * The repo's one percentile estimator: O(1) memory regardless of
 * sample count, O(buckets) percentile reads, and merge() lets sweep
 * cells aggregate deterministically (results merge in grid order, so
 * tables stay byte-identical at any --jobs).
 */

#ifndef NETDIMM_HARNESS_LATENCYHISTOGRAM_HH
#define NETDIMM_HARNESS_LATENCYHISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace netdimm
{

class LatencyHistogram
{
  public:
    /** @param sub_bucket_bits linear resolution per octave; relative
     *        error is bounded by 2^-(sub_bucket_bits-1). */
    explicit LatencyHistogram(std::uint32_t sub_bucket_bits = 7);

    void sample(std::uint64_t value);

    /** Add @p other's population; geometries must match. */
    void merge(const LatencyHistogram &other);

    void reset();

    std::uint64_t count() const { return _count; }
    std::uint64_t minValue() const { return _count ? _min : 0; }
    std::uint64_t maxValue() const { return _count ? _max : 0; }
    /** Exact sum of all samples (no binning error). */
    std::uint64_t sum() const { return _sum; }
    double mean() const
    {
        return _count ? double(_sum) / double(_count) : 0.0;
    }

    /**
     * Value at quantile @p q in [0, 1], linearly interpolated inside
     * the covering bucket and clamped to the exact observed range.
     */
    double percentile(double q) const;

    /** Fraction of samples strictly above @p threshold (straddling
     *  bucket pro-rated); the SLO-violation estimator. */
    double fractionAbove(double threshold) const;

    /**
     * Fraction of samples at or below @p deadline ticks — the
     * goodput estimator (complement of fractionAbove). A deadline of
     * 0 means "no deadline": every sample counts. Empty histograms
     * report 0.0.
     */
    double fractionWithinDeadline(std::uint64_t deadline) const;

    /**
     * Compact exact digest of the population: geometry, count,
     * min/max/sum and every non-empty (bucket, count) pair. Two
     * histograms fed identical samples produce identical digests, so
     * golden checks can compare byte-for-byte.
     */
    std::string digest() const;

  private:
    std::uint32_t _subBits;
    std::uint64_t _count = 0;
    std::uint64_t _min = ~std::uint64_t(0);
    std::uint64_t _max = 0;
    std::uint64_t _sum = 0;
    std::vector<std::uint64_t> _buckets;

    std::size_t bucketIndex(std::uint64_t v) const;
    /** Inclusive lower edge of bucket @p i. */
    std::uint64_t bucketLow(std::size_t i) const;
    /** Exclusive upper edge of bucket @p i. */
    std::uint64_t bucketHigh(std::size_t i) const;
};

} // namespace netdimm

#endif // NETDIMM_HARNESS_LATENCYHISTOGRAM_HH
