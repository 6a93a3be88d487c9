/**
 * @file
 * Probabilistic link fault injection.
 *
 * A FaultInjector attaches to an EthLink (LinkFaultHook) and makes
 * independent, seeded per-frame decisions to drop or corrupt frames,
 * so loss can be studied even without congestion.
 *
 * Decisions draw from a FaultDomain the caller owns: a named domain
 * of a FaultRegistry, so link faults derive from the same master seed
 * as memory and device faults and land in the same recovery ledger,
 * or a standalone FaultDomain built from its own seed. Either way the
 * same domain name and seed reproduce the same drop pattern
 * bit-for-bit.
 */

#ifndef NETDIMM_TRANSPORT_FAULTINJECTOR_HH
#define NETDIMM_TRANSPORT_FAULTINJECTOR_HH

#include "net/Link.hh"
#include "sim/Fault.hh"
#include "sim/Stats.hh"

namespace netdimm
{

class FaultInjector : public LinkFaultHook
{
  public:
    /**
     * Drop a frame with @p drop_prob and corrupt it with
     * @p corrupt_prob, drawing from @p domain, which must outlive the
     * hook.
     */
    FaultInjector(FaultDomain &domain, double drop_prob,
                  double corrupt_prob)
        : _domain(&domain), _dropProb(drop_prob),
          _corruptProb(corrupt_prob)
    {
        ND_ASSERT(_dropProb >= 0.0 && _dropProb <= 1.0);
        ND_ASSERT(_corruptProb >= 0.0 && _corruptProb <= 1.0);
    }

    Verdict
    judge(const PacketPtr &) override
    {
        // One uniform draw per frame keeps the stream consumption
        // independent of the configured probabilities.
        double u = _domain->uniform();
        if (u < _dropProb) {
            _drops.inc();
            _domain->noteInjected();
            return Verdict::Drop;
        }
        if (u < _dropProb + _corruptProb) {
            _corruptions.inc();
            _domain->noteInjected();
            return Verdict::Corrupt;
        }
        return Verdict::Deliver;
    }

    /** The domain decisions roll against (never null). */
    FaultDomain *domain() { return _domain; }

    std::uint64_t framesDropped() const { return _drops.value(); }
    std::uint64_t framesCorrupted() const
    {
        return _corruptions.value();
    }

  private:
    FaultDomain *_domain;
    double _dropProb;
    double _corruptProb;
    stats::Scalar _drops, _corruptions;
};

} // namespace netdimm

#endif // NETDIMM_TRANSPORT_FAULTINJECTOR_HH
