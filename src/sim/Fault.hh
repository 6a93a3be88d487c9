/**
 * @file
 * Generic fault-injection framework.
 *
 * Every layer that can fail (memory ECC, RowClone, device DMA
 * engines, links) draws its fault decisions from a named FaultDomain
 * owned by a FaultRegistry. A domain's PCG32 stream is derived from
 * the registry's master seed and the domain's *name*, so the fault
 * schedule of every domain is a pure function of (master seed, name):
 * the same SystemConfig seed reproduces the same faults bit-for-bit
 * regardless of component construction order, and one domain's
 * consumption never perturbs another's.
 *
 * Domains also carry the recovery ledger: every injected fault must
 * eventually be counted recovered or unrecovered by the component
 * that absorbed (or failed to absorb) it, so a campaign can assert
 * `unrecovered == 0`.
 */

#ifndef NETDIMM_SIM_FAULT_HH
#define NETDIMM_SIM_FAULT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "sim/Random.hh"
#include "sim/Stats.hh"

namespace netdimm
{

/** One named source of faults with a private deterministic stream. */
class FaultDomain
{
  public:
    FaultDomain(std::string name, std::uint64_t master_seed);

    const std::string &name() const { return _name; }

    /**
     * One Bernoulli fault decision with probability @p prob. Counts
     * the injection on a hit. Always consumes exactly one draw, so
     * the schedule is independent of the configured probability.
     */
    bool
    inject(double prob)
    {
        return classify(uniform() < prob);
    }

    /**
     * Uniform double in [0, 1) from this domain's private stream, for
     * callers that split one draw across several outcomes (e.g. the
     * link injector's drop-vs-corrupt decision). Pair with
     * noteInjected() when the draw lands on a fault.
     */
    double
    uniform()
    {
        _decisions.inc();
        return _rng.uniformDouble();
    }

    /** Record that a uniform() draw resolved to an injected fault. */
    void noteInjected() { _injected.inc(); }

    // -- recovery ledger -------------------------------------------------
    void noteRecovered(std::uint64_t n = 1) { _recovered.inc(n); }
    void noteUnrecovered(std::uint64_t n = 1) { _unrecovered.inc(n); }

    std::uint64_t decisions() const { return _decisions.value(); }
    std::uint64_t injected() const { return _injected.value(); }
    std::uint64_t recovered() const { return _recovered.value(); }
    std::uint64_t unrecovered() const { return _unrecovered.value(); }

    /** True when every injected fault was recovered and none were
     *  declared unrecoverable. */
    bool
    ledgerClosed() const
    {
        return injected() == recovered() && unrecovered() == 0;
    }

  private:
    bool
    classify(bool hit)
    {
        if (hit)
            _injected.inc();
        return hit;
    }

    std::string _name;
    Random _rng;
    stats::Scalar _decisions, _injected, _recovered, _unrecovered;
};

/**
 * Owns the FaultDomains of one simulated system; seeded once from
 * SystemConfig::seed so link, memory, and device fault schedules all
 * derive from a single master seed.
 */
class FaultRegistry
{
  public:
    explicit FaultRegistry(std::uint64_t master_seed)
        : _master(master_seed)
    {}

    std::uint64_t masterSeed() const { return _master; }

    /** Create-or-get the domain named @p name. */
    FaultDomain &domain(const std::string &name);

    /** @return the domain named @p name, or nullptr. */
    const FaultDomain *find(const std::string &name) const;

    // -- aggregate ledger ------------------------------------------------
    std::uint64_t injected() const;
    std::uint64_t recovered() const;
    std::uint64_t unrecovered() const;

    /** True when every domain's ledger is closed: all injected
     *  faults recovered, nothing unrecoverable. */
    bool ledgerClosed() const;

    /** One line per domain: decisions/injected/recovered/unrecovered. */
    void print(std::ostream &os) const;

  private:
    std::uint64_t _master;
    std::map<std::string, std::unique_ptr<FaultDomain>> _domains;
};

} // namespace netdimm

#endif // NETDIMM_SIM_FAULT_HH
