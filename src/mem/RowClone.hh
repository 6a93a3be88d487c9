/**
 * @file
 * In-memory bulk copy (RowClone) engine, Sec. 4.1 / Fig. 8.
 *
 * Given source and destination addresses inside the NetDIMM local
 * DRAM, the engine picks the fastest applicable mode:
 *
 *  - FPM (fast parallel mode): source and destination rows share a
 *    bank sub-array; two back-to-back activations copy a whole row.
 *  - PSM (pipeline serial mode): different banks on the same rank;
 *    cacheline-granular transfers pipeline over the DRAM-internal bus.
 *  - GCM (general cloning mode): anything else; the buffer device
 *    reads the source and writes it back, like a local DMA engine.
 *
 * While a clone is in flight the involved banks are blocked via
 * MemoryController::occupyBank(), and PSM/GCM claim local-bus slots,
 * so clones contend with concurrent nNIC / host traffic.
 */

#ifndef NETDIMM_MEM_ROWCLONE_HH
#define NETDIMM_MEM_ROWCLONE_HH

#include "mem/MemoryController.hh"
#include "sim/InlineFunction.hh"
#include "sim/SimObject.hh"
#include "sim/Stats.hh"
#include "sim/SystemConfig.hh"

namespace netdimm
{

/** Which RowClone mechanism served a copy. */
enum class CloneMode
{
    FPM,
    PSM,
    GCM,
    /** The copy aborted (injected fault); no data was moved and the
     *  caller must fall back to a conventional copy. */
    Failed,
};

/** @return printable mode name. */
const char *cloneModeName(CloneMode m);

class RowCloneEngine : public SimObject
{
  public:
    /** Inline per-clone completion (hot on the NetDIMM rx path). */
    using Completion = InlineFunction<void(Tick, CloneMode), 80>;

    RowCloneEngine(EventQueue &eq, std::string name,
                   MemoryController &local_mc);

    /**
     * Copy @p size bytes from @p src to @p dst (both DIMM-relative
     * addresses in the NetDIMM local DRAM).
     *
     * @param cb invoked at completion with (finish tick, mode used).
     */
    void clone(Addr src, Addr dst, std::uint32_t size, Completion cb);

    /** Mode that clone() would use for this address pair. */
    CloneMode selectMode(Addr src, Addr dst) const;

    /** Pure latency of a clone (no contention), for unit tests. */
    Tick idealLatency(Addr src, Addr dst, std::uint32_t size) const;

    /**
     * Enable clone-failure injection: each clone() aborts with
     * probability @p fail_prob and completes as CloneMode::Failed
     * after the setup/verify time, leaving the fallback to the
     * caller. @p domain must outlive the engine; nullptr disables.
     */
    void
    setFaultInjection(FaultDomain *domain, double fail_prob)
    {
        _faultDomain = domain;
        _failProb = fail_prob;
    }

    /** Domain clone failures roll against (nullptr when disabled);
     *  callers use it to credit their fallback as a recovery. */
    FaultDomain *faultDomain() { return _faultDomain; }

    // -- statistics ----------------------------------------------------
    std::uint64_t fpmClones() const { return _fpm.value(); }
    std::uint64_t psmClones() const { return _psm.value(); }
    std::uint64_t gcmClones() const { return _gcm.value(); }
    std::uint64_t bytesCloned() const { return _bytes.value(); }
    std::uint64_t failedClones() const { return _failed.value(); }

  private:
    MemoryController &_mc;
    FaultDomain *_faultDomain = nullptr;
    double _failProb = 0.0;

    stats::Scalar _fpm, _psm, _gcm, _bytes, _failed;

    Tick modeLatency(CloneMode m, Addr src, std::uint32_t size) const;
};

} // namespace netdimm

#endif // NETDIMM_MEM_ROWCLONE_HH
