/**
 * @file
 * Sec. 4.3 physical feasibility: energy per packet and average power
 * of the network path at 40GbE line rate, per NIC architecture. The
 * paper argues a NIC (XXV710-class, 6.5W TDP) fits the envelope of a
 * DIMM buffer device (Centaur-class, 20W TDP); this bench derives
 * the *dynamic* power of the modelled datapath from the run's event
 * counts and shows the device-side share NetDIMM must host.
 */

#include <cstdio>

#include "harness/SweepRunner.hh"
#include "net/Link.hh"
#include "sim/PowerModel.hh"
#include "workload/IperfFlow.hh"

using namespace netdimm;

int
main(int argc, char **argv)
{
    requireNoArgs(argc, argv);
    setQuiet(true);
    const Tick sim_time = usToTicks(400);

    std::printf("=== Sec. 4.3: energy per packet / average power at "
                "line rate ===\n\n");
    std::printf("%-10s %14s %12s %14s %16s\n", "NIC", "nJ/packet",
                "datapathW", "device-sideW", "Centaur budget");

    for (NicKind kind : {NicKind::Discrete, NicKind::Integrated,
                         NicKind::NetDimm}) {
        SystemConfig cfg;
        cfg.nic = kind;
        EventQueue eq;
        Node tx(eq, "tx", cfg, 0);
        Node rx(eq, "rx", cfg, 1);
        EthLink link(eq, "link", cfg.eth);
        link.connect(tx.endpoint(), rx.endpoint());
        tx.connectTo(link);
        rx.connectTo(link);
        IperfFlow flow(eq, "flow", tx, rx, 1460, 64, 4);
        flow.start();
        eq.run(sim_time);

        // Receiver-side energy accounting from the run's counters.
        EnergyAccount acct;
        std::uint64_t dram_beats = 0;
        for (std::uint32_t c = 0; c < rx.mem().numChannels(); ++c)
            dram_beats += rx.mem().channel(c).beatsServiced();
        acct.dramBeats(dram_beats);
        acct.channelBeats(dram_beats);
        acct.sramLines(rx.llc().hits() + rx.llc().ddioInserts());
        acct.wireBytes(link.bytesCarried());
        acct.cpuCycles(rx.driver().rxPackets() *
                       (CpuConfig::rxDriverCycles +
                        CpuConfig::skbAllocCycles));

        // Device-side energy: what the NIC silicon itself dissipates
        // (the part that must fit the DIMM buffer device for NetDIMM).
        EnergyAccount device;
        if (rx.pcie()) {
            acct.pcieBytes(rx.pcie()->payloadBytes() +
                           rx.pcie()->tlpsSent() *
                               PcieConfig::tlpOverheadBytes);
            device.pcieBytes(rx.pcie()->payloadBytes());
        }
        if (rx.netdimm()) {
            NetDimmDevice *nd = rx.netdimm();
            std::uint64_t local_beats =
                nd->localMc().beatsServiced();
            acct.dramBeats(local_beats);
            device.dramBeats(local_beats);
            std::uint64_t rows =
                nd->rowCloneEngine().bytesCloned() / 1024;
            acct.fpmRows(rows);
            device.fpmRows(rows);
            device.sramLines(nd->ncache().inserts() +
                             nd->ncache().hits());
        }
        device.wireBytes(link.bytesCarried());

        double secs = ticksToSec(sim_time);
        double pkts = double(rx.driver().rxPackets());
        double nj_per_pkt =
            pkts > 0 ? acct.totalPj() / pkts / 1e3 : 0.0;
        double device_w = device.averageWatts(secs) +
                          acct.params().nicStaticW;
        std::printf("%-10s %14.1f %12.3f %14.3f %13.1fW\n",
                    nicKindName(kind), nj_per_pkt,
                    acct.averageWatts(secs), device_w, 20.0);
    }
    std::printf(
        "\n(the device-side power of the NetDIMM datapath sits well "
        "inside the 20W\n Centaur-class buffer-device budget the "
        "paper cites; an XXV710 NIC is 6.5W TDP)\n");
    return 0;
}
