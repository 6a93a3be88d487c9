/**
 * @file
 * Physical address decoding.
 *
 * Two concerns live here:
 *
 * 1. DramAddress decoding inside one DIMM/rank set, following the
 *    paper's Fig. 9: 1KB rows, 128 rows per sub-array, 512 sub-arrays
 *    per bank, 16 banks. Consecutive 4KB pages stripe over 32
 *    (bank, sub-array-half) slots, so pages sharing a bank+sub-array
 *    recur every 128KB -- the property the sub-array-aware allocator
 *    relies on (Sec. 4.2.1).
 *
 * 2. Channel interleaving across the host's physical address space
 *    (Sec. 2.3): single-channel, multi-channel, and flex mode, where
 *    the conventional-DIMM region interleaves over host channels
 *    while each NetDIMM's region maps contiguously to one channel
 *    (Fig. 10).
 */

#ifndef NETDIMM_MEM_ADDRESSMAP_HH
#define NETDIMM_MEM_ADDRESSMAP_HH

#include <cstdint>
#include <vector>

#include "mem/MemRequest.hh"
#include "sim/SystemConfig.hh"

namespace netdimm
{

/** Fully decoded DRAM coordinates of an address within a DIMM. */
struct DramAddress
{
    std::uint32_t rank = 0;
    std::uint32_t bank = 0;
    std::uint32_t subArray = 0;
    std::uint32_t row = 0;        ///< row within the sub-array
    std::uint32_t column = 0;     ///< byte offset within the row

    /** Globally unique row id within the DIMM (for open-row checks). */
    std::uint64_t
    rowId(const DramGeometry &geo) const
    {
        std::uint64_t sa = std::uint64_t(bank) * geo.subArraysPerBank +
                           subArray;
        std::uint64_t r = (std::uint64_t(rank) *
                           (std::uint64_t(geo.banksPerDevice) *
                            geo.subArraysPerBank) + sa) *
                          geo.rowsPerSubArray + row;
        return r;
    }

    bool
    sameSubArray(const DramAddress &o) const
    {
        return rank == o.rank && bank == o.bank && subArray == o.subArray;
    }

    bool sameBank(const DramAddress &o) const
    {
        return rank == o.rank && bank == o.bank;
    }
};

/**
 * Decoder for one DIMM's internal geometry (used for both host DIMMs
 * and the NetDIMM local DRAM).
 */
class DimmDecoder
{
  public:
    explicit DimmDecoder(const DramGeometry &geo);

    /** Decode a DIMM-relative byte address. */
    DramAddress decode(Addr addr) const;

    /**
     * Inverse mapping for the allocator: the DIMM-relative address of
     * the @p page_slot'th 4KB page residing on (@p rank, @p bank,
     * @p sub_array).
     */
    Addr pageAddress(std::uint32_t rank, std::uint32_t bank,
                     std::uint32_t sub_array,
                     std::uint32_t page_slot) const;

    /** Number of 4KB pages each sub-array holds. */
    std::uint32_t pagesPerSubArray() const { return _pagesPerSubArray; }

    /** Distinct (bank, sub-array) pairs per rank. */
    std::uint32_t subArraysPerRank() const { return _subArraysPerRank; }

    /** Stride (bytes) between pages sharing a bank+sub-array. */
    std::uint64_t sameSubArrayStride() const { return _slotStride; }

    const DramGeometry &geometry() const { return _geo; }

  private:
    DramGeometry _geo;
    std::uint32_t _pagesPerSubArray; ///< e.g. 32
    std::uint32_t _slots;            ///< pages interleaved before repeat
    std::uint64_t _slotStride;       ///< _slots * pageBytes, e.g. 128KB
    std::uint32_t _subArraysPerRank;
    std::uint64_t _rankBytes;

    /**
     * Shift/mask fast path: every divisor in decode() is a power of
     * two for realistic geometries (the reference Fig. 9 layout
     * included), which turns the eight divisions in the generic
     * decode into shifts. Falls back to div/mod otherwise; both paths
     * compute identical coordinates.
     */
    bool _pow2 = false;
    std::uint32_t _rankShift = 0;
    std::uint32_t _slotsShift = 0;
    std::uint32_t _ppsaShift = 0;  ///< log2(_pagesPerSubArray)
    std::uint32_t _banksShift = 0; ///< log2(banksPerDevice)
    std::uint32_t _rowShift = 0;   ///< log2(rowBytes)
    std::uint32_t _rowsPerPage = 0;
};

/** Channel interleaving policy (Sec. 2.3). */
enum class InterleaveMode
{
    Single, ///< channel bits in MSBs; sequential addrs on one channel
    Multi,  ///< sequential addresses stripe across channels
    Flex,   ///< part multi-channel, part single-channel (Fig. 10)
};

/** Routing target of a host physical address. */
struct ChannelRoute
{
    /** Index of the host memory channel the access uses. */
    std::uint32_t channel = 0;
    /** True if the address belongs to a NetDIMM local region. */
    bool isNetDimm = false;
    /** Which NetDIMM (valid when isNetDimm). */
    std::uint32_t netDimmIndex = 0;
    /** Address relative to the owning DIMM's base. */
    Addr dimmOffset = 0;
};

/**
 * Host physical address map in flex mode: conventional DRAM occupies
 * [0, convBytes) striped over all channels; each NetDIMM i occupies a
 * contiguous window after it, routed single-channel to the channel it
 * is installed on.
 */
class HostAddressMap
{
  public:
    /**
     * @param conv_bytes capacity of the interleaved conventional region.
     * @param channels number of host channels.
     * @param stripe_bytes interleave granularity for the multi region.
     * @param mode interleaving mode for the conventional region.
     */
    HostAddressMap(std::uint64_t conv_bytes, std::uint32_t channels,
                   std::uint32_t stripe_bytes = 256,
                   InterleaveMode mode = InterleaveMode::Flex);

    /**
     * Append a NetDIMM local region of @p bytes installed on host
     * channel @p channel.
     * @return base host physical address of the region.
     */
    Addr addNetDimmRegion(std::uint64_t bytes, std::uint32_t channel);

    /** Route a host physical address to a channel / NetDIMM region. */
    ChannelRoute route(Addr addr) const;

    /** Base address of NetDIMM region @p idx. */
    Addr netDimmBase(std::uint32_t idx) const;
    /** Size of NetDIMM region @p idx. */
    std::uint64_t netDimmSize(std::uint32_t idx) const;
    /** Total number of registered NetDIMM regions. */
    std::uint32_t numNetDimmRegions() const
    {
        return std::uint32_t(_regions.size());
    }

    InterleaveMode mode() const { return _mode; }

  private:
    struct Region
    {
        Addr base;
        std::uint64_t size;
        std::uint32_t channel;
    };

    std::uint64_t _convBytes;
    std::uint32_t _channels;
    std::uint32_t _stripeBytes;
    InterleaveMode _mode;
    std::vector<Region> _regions;
    Addr _nextBase;
};

} // namespace netdimm

#endif // NETDIMM_MEM_ADDRESSMAP_HH
