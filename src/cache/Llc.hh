/**
 * @file
 * Last-level cache with Data Direct I/O (Sec. 2.1).
 *
 * Demand accesses from the cores use the full associativity; DMA
 * writes from a DDIO-enabled NIC allocate only into a restricted
 * subset of ways (~10% of capacity). When the DDIO ways of a set are
 * exhausted the oldest DDIO line is evicted -- if it was never read
 * by the CPU this is counted as DMA leakage [68], the effect that
 * motivates NetDIMM's header/payload split.
 *
 * The model tracks tags only (no data); timing comes from the hit
 * latency and the downstream memory system.
 */

#ifndef NETDIMM_CACHE_LLC_HH
#define NETDIMM_CACHE_LLC_HH

#include <cstdint>
#include <vector>

#include "mem/MemoryController.hh"
#include "mem/MemorySystem.hh"
#include "sim/SimObject.hh"
#include "sim/Stats.hh"
#include "sim/SystemConfig.hh"

namespace netdimm
{

class Llc : public SimObject, public MemTarget
{
  public:
    /** Same inline callback type as MemRequest::Completion. */
    using Completion = MemRequest::Completion;

    Llc(EventQueue &eq, std::string name, const CacheConfig &cfg,
        MemTarget &downstream);

    /** Core-side demand access (read or write allocate). */
    void access(const MemRequestPtr &req) override;

    /** DDIO allocate-write from a NIC DMA engine. */
    void dmaWrite(Addr addr, std::uint32_t size, MemSource src,
                  Completion cb);

    /** DMA read: served from the LLC when resident, else memory. */
    void dmaRead(Addr addr, std::uint32_t size, MemSource src,
                 Completion cb);

    /**
     * Write back (clwb-style) the lines covering [addr, addr+size) to
     * memory; clean/absent lines cost only the probe. Lines remain
     * valid and clean.
     */
    void flush(Addr addr, std::uint32_t size, MemSource src,
               Completion cb);

    /** Drop the lines covering the range without writeback. */
    void invalidate(Addr addr, std::uint32_t size);

    /** @return true if the line holding @p addr is resident. */
    bool probe(Addr addr) const;

    /** LLC hit latency in ticks. */
    static constexpr Tick
    hitLatency()
    {
        return CpuConfig::cycles(CacheConfig::hitCycles);
    }

    // -- statistics ----------------------------------------------------
    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }
    std::uint64_t ddioInserts() const { return _ddioInserts.value(); }
    std::uint64_t ddioLeaks() const { return _ddioLeaks.value(); }
    std::uint64_t writebacks() const { return _writebacks.value(); }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        bool ddio = false;     ///< inserted by DMA, not yet CPU-read
        std::uint64_t lastUse = 0;
    };

    const CacheConfig _cfg;
    MemTarget &_downstream;
    static constexpr std::uint32_t numSets = std::uint32_t(
        CacheConfig::sizeBytes / cachelineBytes / CacheConfig::assoc);
    static_assert(numSets > 0);
    std::uint32_t _ddioWays;
    std::vector<Line> _lines; ///< numSets * assoc, row-major by set
    std::uint64_t _useClock = 0;

    stats::Scalar _hits, _misses, _ddioInserts, _ddioLeaks, _writebacks;

    std::uint32_t setIndex(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    /**
     * Choose a victim within the set; @p ddio_only restricts the
     * choice to the DDIO way subset. Issues a writeback if dirty.
     */
    Line &victim(std::uint32_t set, bool ddio_only, MemSource src);
    void touch(Line &line);

    /** Iterate cacheline-aligned subranges of [addr, addr+size). */
    template <typename Fn>
    void
    forEachLine(Addr addr, std::uint32_t size, Fn &&fn)
    {
        Addr first = addr & ~Addr(cachelineBytes - 1);
        Addr last = (addr + size - 1) & ~Addr(cachelineBytes - 1);
        for (Addr a = first; a <= last; a += cachelineBytes)
            fn(a);
    }
};

} // namespace netdimm

#endif // NETDIMM_CACHE_LLC_HH
