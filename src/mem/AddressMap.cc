#include "mem/AddressMap.hh"

#include "sim/Logging.hh"

namespace netdimm
{

DimmDecoder::DimmDecoder(const DramGeometry &geo) : _geo(geo)
{
    constexpr std::uint64_t sub_array_bytes =
        std::uint64_t(DramGeometry::rowsPerSubArray) *
        DramGeometry::rowBytes;
    static_assert(sub_array_bytes > 0 && sub_array_bytes % pageBytes == 0);
    _pagesPerSubArray = std::uint32_t(sub_array_bytes / pageBytes);
    // Consecutive pages stripe over this many (bank, sub-array-slice)
    // slots before wrapping back; Fig. 9(c) shows 32 slots for the
    // reference geometry, giving the 128KB same-sub-array stride.
    _slots = _pagesPerSubArray;
    _slotStride = std::uint64_t(_slots) * pageBytes;
    _subArraysPerRank = geo.banksPerDevice * geo.subArraysPerBank;
    _rankBytes = std::uint64_t(_subArraysPerRank) * sub_array_bytes;

    auto pow2 = [](std::uint64_t v) { return v && !(v & (v - 1)); };
    auto log2u = [](std::uint64_t v) {
        std::uint32_t s = 0;
        while ((std::uint64_t(1) << s) < v)
            ++s;
        return s;
    };
    _pow2 = pow2(_rankBytes) && pow2(_slots) &&
            pow2(_pagesPerSubArray) && pow2(_subArraysPerRank) &&
            pow2(geo.banksPerDevice) && pow2(geo.rowBytes) &&
            pow2(geo.ranksPerChannel);
    if (_pow2) {
        _rankShift = log2u(_rankBytes);
        _slotsShift = log2u(_slots);
        _ppsaShift = log2u(_pagesPerSubArray);
        _banksShift = log2u(geo.banksPerDevice);
        _rowShift = log2u(geo.rowBytes);
    }
    _rowsPerPage = pageBytes / geo.rowBytes;
}

DramAddress
DimmDecoder::decode(Addr addr) const
{
    DramAddress out;
    if (_pow2) {
        out.rank = std::uint32_t(addr >> _rankShift) &
                   (_geo.ranksPerChannel - 1);
        Addr in_rank = addr & (_rankBytes - 1);
        static_assert(pageBytes == 4096, "page shift below assumes 4KB");
        std::uint64_t page_idx = in_rank >> 12;
        std::uint32_t page_off = std::uint32_t(in_rank) & (pageBytes - 1);
        std::uint32_t slot = std::uint32_t(page_idx) & (_slots - 1);
        std::uint64_t group = page_idx >> _slotsShift;
        std::uint32_t page_slot =
            std::uint32_t(group) & (_pagesPerSubArray - 1);
        std::uint64_t sa_group = group >> _ppsaShift;
        std::uint32_t sa_global =
            std::uint32_t((sa_group << _slotsShift) + slot) &
            (_subArraysPerRank - 1);
        out.bank = sa_global & (_geo.banksPerDevice - 1);
        out.subArray = sa_global >> _banksShift;
        out.row = page_slot * _rowsPerPage + (page_off >> _rowShift);
        out.column = page_off & (_geo.rowBytes - 1);
        return out;
    }
    out.rank = std::uint32_t(addr / _rankBytes) % _geo.ranksPerChannel;
    Addr in_rank = addr % _rankBytes;

    std::uint64_t page_idx = in_rank / pageBytes;
    std::uint32_t page_off = std::uint32_t(in_rank % pageBytes);

    // Page striping: low bits pick the slot, the next bits pick which
    // page *within* the sub-array, the rest pick the sub-array group.
    std::uint32_t slot = std::uint32_t(page_idx % _slots);
    std::uint64_t group = page_idx / _slots;
    std::uint32_t page_slot = std::uint32_t(group % _pagesPerSubArray);
    std::uint64_t sa_group = group / _pagesPerSubArray;

    std::uint32_t sa_global =
        std::uint32_t((sa_group * _slots + slot) % _subArraysPerRank);

    out.bank = sa_global % _geo.banksPerDevice;
    out.subArray = sa_global / _geo.banksPerDevice;

    std::uint32_t rows_per_page = pageBytes / _geo.rowBytes;
    std::uint32_t row_in_page = page_off / _geo.rowBytes;
    out.row = page_slot * rows_per_page + row_in_page;
    out.column = page_off % _geo.rowBytes;
    return out;
}

Addr
DimmDecoder::pageAddress(std::uint32_t rank, std::uint32_t bank,
                         std::uint32_t sub_array,
                         std::uint32_t page_slot) const
{
    ND_ASSERT(rank < _geo.ranksPerChannel);
    ND_ASSERT(bank < _geo.banksPerDevice);
    ND_ASSERT(sub_array < _geo.subArraysPerBank);
    ND_ASSERT(page_slot < _pagesPerSubArray);

    std::uint32_t sa_global = sub_array * _geo.banksPerDevice + bank;
    std::uint32_t slot = sa_global % _slots;
    std::uint64_t sa_group = sa_global / _slots;
    std::uint64_t group = sa_group * _pagesPerSubArray + page_slot;
    std::uint64_t page_idx = group * _slots + slot;
    return Addr(rank) * _rankBytes + page_idx * pageBytes;
}

HostAddressMap::HostAddressMap(std::uint64_t conv_bytes,
                               std::uint32_t channels,
                               std::uint32_t stripe_bytes,
                               InterleaveMode mode)
    : _convBytes(conv_bytes), _channels(channels),
      _stripeBytes(stripe_bytes), _mode(mode), _nextBase(conv_bytes)
{
    ND_ASSERT(channels > 0 && stripe_bytes > 0);
}

Addr
HostAddressMap::addNetDimmRegion(std::uint64_t bytes,
                                 std::uint32_t channel)
{
    ND_ASSERT(channel < _channels);
    if (_mode == InterleaveMode::Multi) {
        panic("NetDIMM regions require Single or Flex interleaving "
              "(Sec. 4.2.1): the NetDIMM local channel is not visible "
              "to nNIC under multi-channel striping");
    }
    Region r{_nextBase, bytes, channel};
    _regions.push_back(r);
    _nextBase += bytes;
    return r.base;
}

ChannelRoute
HostAddressMap::route(Addr addr) const
{
    ChannelRoute out;
    if (addr < _convBytes) {
        switch (_mode) {
          case InterleaveMode::Single:
            out.channel = std::uint32_t(
                addr / ((_convBytes + _channels - 1) / _channels));
            break;
          case InterleaveMode::Multi:
          case InterleaveMode::Flex:
            out.channel =
                std::uint32_t((addr / _stripeBytes) % _channels);
            break;
        }
        out.dimmOffset = addr; // controllers re-normalize as needed
        return out;
    }
    for (std::uint32_t i = 0; i < _regions.size(); ++i) {
        const Region &r = _regions[i];
        if (addr >= r.base && addr < r.base + r.size) {
            out.channel = r.channel;
            out.isNetDimm = true;
            out.netDimmIndex = i;
            out.dimmOffset = addr - r.base;
            return out;
        }
    }
    panic("address %#llx outside the mapped physical space",
          (unsigned long long)addr);
}

Addr
HostAddressMap::netDimmBase(std::uint32_t idx) const
{
    ND_ASSERT(idx < _regions.size());
    return _regions[idx].base;
}

std::uint64_t
HostAddressMap::netDimmSize(std::uint32_t idx) const
{
    ND_ASSERT(idx < _regions.size());
    return _regions[idx].size;
}

} // namespace netdimm
