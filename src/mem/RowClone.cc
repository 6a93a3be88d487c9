#include "mem/RowClone.hh"

#include <algorithm>

namespace netdimm
{

const char *
cloneModeName(CloneMode m)
{
    switch (m) {
      case CloneMode::FPM:
        return "FPM";
      case CloneMode::PSM:
        return "PSM";
      case CloneMode::GCM:
        return "GCM";
      case CloneMode::Failed:
        return "FAIL";
    }
    return "?";
}

RowCloneEngine::RowCloneEngine(EventQueue &eq, std::string name,
                               MemoryController &local_mc)
    : SimObject(eq, std::move(name)), _mc(local_mc)
{
}

CloneMode
RowCloneEngine::selectMode(Addr src, Addr dst) const
{
    const DimmDecoder &dec = _mc.decoder();
    DramAddress s = dec.decode(src);
    DramAddress d = dec.decode(dst);

    std::uint32_t row_bytes = dec.geometry().rowBytes;
    bool row_aligned = (src % row_bytes) == (dst % row_bytes);

    if (s.sameSubArray(d) && row_aligned && s.row != d.row)
        return CloneMode::FPM;
    if (s.rank == d.rank && s.bank != d.bank)
        return CloneMode::PSM;
    return CloneMode::GCM;
}

Tick
RowCloneEngine::modeLatency(CloneMode m, Addr src,
                            std::uint32_t size) const
{
    std::uint32_t row_bytes = _mc.decoder().geometry().rowBytes;
    std::uint32_t lines =
        (size + cachelineBytes - 1) / cachelineBytes;
    switch (m) {
      case CloneMode::FPM: {
        // Whole rows are copied regardless of how much of the row the
        // buffer occupies.
        Addr first_row = src / row_bytes;
        Addr last_row = (src + size - 1) / row_bytes;
        auto rows = std::uint32_t(last_row - first_row + 1);
        return Tick(rows) * RowCloneConfig::fpmPerRow;
      }
      case CloneMode::PSM:
        return RowCloneConfig::psmSetup +
               Tick(lines) * RowCloneConfig::psmPerLine;
      case CloneMode::GCM:
        return RowCloneConfig::gcmSetup +
               Tick(lines) * RowCloneConfig::gcmPerLine;
      case CloneMode::Failed:
        break;
    }
    return 0;
}

Tick
RowCloneEngine::idealLatency(Addr src, Addr dst,
                             std::uint32_t size) const
{
    return modeLatency(selectMode(src, dst), src, size);
}

void
RowCloneEngine::clone(Addr src, Addr dst, std::uint32_t size,
                      Completion cb)
{
    ND_ASSERT(size > 0);

    if (_faultDomain && _faultDomain->inject(_failProb)) {
        // The copy command fails verification; the bank state is
        // untouched and the caller learns after the setup time.
        _failed.inc();
        Tick done = curTick() + RowCloneConfig::gcmSetup;
        if (cb) {
            eventq().schedule(done, [cb = std::move(cb), done] {
                cb(done, CloneMode::Failed);
            });
        }
        return;
    }

    CloneMode mode = selectMode(src, dst);
    Tick lat = modeLatency(mode, src, size);

    const DimmDecoder &dec = _mc.decoder();
    DramAddress s = dec.decode(src);
    DramAddress d = dec.decode(dst);

    Tick start = curTick();
    if (mode != CloneMode::FPM) {
        // PSM/GCM move data over the DRAM-internal bus; model the
        // occupancy as a reservation on the local channel so clones
        // contend with nNIC DMA and host-forwarded accesses.
        start = _mc.reserveBus(curTick(), lat);
    }
    Tick done = start + lat;

    _mc.occupyBank(s.rank, s.bank, done);
    _mc.occupyBank(d.rank, d.bank, done);

    switch (mode) {
      case CloneMode::FPM:
        _fpm.inc();
        break;
      case CloneMode::PSM:
        _psm.inc();
        break;
      case CloneMode::GCM:
        _gcm.inc();
        break;
      case CloneMode::Failed:
        break;
    }
    _bytes.inc(size);

    if (cb) {
        eventq().schedule(done,
                          [cb = std::move(cb), done, mode] {
                              cb(done, mode);
                          });
    }
}

} // namespace netdimm
