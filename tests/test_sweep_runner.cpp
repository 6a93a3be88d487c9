/**
 * @file
 * Tests for the parallel sweep harness (src/harness/SweepRunner.hh)
 * and the instance-scoped simulation state it depends on:
 *
 *  - jobs-invariance: the serialized result table of a mini sweep is
 *    byte-identical at jobs=1 and jobs=4 (the tentpole determinism
 *    guarantee);
 *  - a throwing cell surfaces as SweepCellError carrying its grid
 *    coordinates while every other cell still completes;
 *  - running the SAME cell twice in one process yields identical
 *    stats (regression for the old process-global packet id counter);
 *  - packet ids are minted per EventQueue, starting at 1;
 *  - drainWorkerPools() reports per-worker pool totals that account
 *    for the whole grid.
 */

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/SweepRunner.hh"
#include "kernel/Node.hh"
#include "net/Link.hh"
#include "net/Packet.hh"

using namespace netdimm;

namespace
{

struct MiniResult
{
    std::uint64_t bytes = 0;
    double meanUs = 0.0;
    std::uint64_t firstId = 0;
    std::uint64_t idsMinted = 0;
};

/**
 * A small but real simulation cell: two nodes, one link, a fixed
 * paced packet train. Deterministic given (kind, npackets), and
 * built entirely inside the factory per the cell isolation contract.
 */
MiniResult
runMiniCell(NicKind kind, int npackets)
{
    SystemConfig cfg;
    cfg.nic = kind;

    EventQueue eq;
    Node tx(eq, "tx", cfg, 0);
    Node rx(eq, "rx", cfg, 1);
    EthLink link(eq, "link", cfg.eth);
    link.connect(tx.endpoint(), rx.endpoint());
    tx.connectTo(link);
    rx.connectTo(link);

    MiniResult r;
    double sum_us = 0.0;
    int n = 0;
    rx.setReceiveHandler([&](const PacketPtr &pkt, Tick) {
        if (r.firstId == 0)
            r.firstId = pkt->id;
        r.bytes += pkt->bytes;
        sum_us += ticksToUs(pkt->oneWayLatency());
        ++n;
    });

    Tick t = 0;
    for (int i = 0; i < npackets; ++i) {
        t += usToTicks(1.0);
        eq.schedule(t, [&tx, &rx, i] {
            tx.sendPacket(tx.makeTxPacket(1460, rx.id(), 1 + (i % 4)));
        });
    }
    eq.run();

    r.meanUs = n ? sum_us / n : 0.0;
    r.idsMinted = eq.packetIdsAllocated();
    return r;
}

std::vector<SweepCell<MiniResult>>
miniGrid()
{
    std::vector<SweepCell<MiniResult>> cells;
    for (NicKind kind : {NicKind::Discrete, NicKind::Integrated,
                         NicKind::NetDimm}) {
        for (int n : {40, 80}) {
            char label[48];
            std::snprintf(label, sizeof(label), "%s n=%d",
                          nicKindName(kind), n);
            cells.push_back(
                {label, [kind, n] { return runMiniCell(kind, n); }});
        }
    }
    return cells;
}

/** Exactly what a bench would print: rows in grid order. */
std::string
serialize(const std::vector<MiniResult> &rows)
{
    std::string out;
    for (const MiniResult &r : rows) {
        char line[128];
        std::snprintf(line, sizeof(line), "%llu %.9f %llu %llu\n",
                      static_cast<unsigned long long>(r.bytes),
                      r.meanUs,
                      static_cast<unsigned long long>(r.firstId),
                      static_cast<unsigned long long>(r.idsMinted));
        out += line;
    }
    return out;
}

} // namespace

TEST(SweepRunner, JobsInvarianceTablesAreByteIdentical)
{
    setQuiet(true);
    SweepRunner seq(1);
    SweepRunner par(4);
    ASSERT_EQ(seq.jobs(), 1u);
    ASSERT_EQ(par.jobs(), 4u);

    std::string table1 = serialize(seq.run(miniGrid()));
    std::string table4 = serialize(par.run(miniGrid()));
    EXPECT_EQ(table1, table4);

    // And the table is non-trivial: packets flowed in every cell.
    EXPECT_EQ(std::count(table1.begin(), table1.end(), '\n'), 6);
    EXPECT_NE(table1.find(" 1 "), std::string::npos);
}

TEST(SweepRunner, ThrowingCellReportsGridCoordinates)
{
    setQuiet(true);
    std::atomic<int> completed{0};

    std::vector<SweepCell<int>> cells;
    for (int i = 0; i < 8; ++i) {
        char label[32];
        std::snprintf(label, sizeof(label), "cell-%d", i);
        cells.push_back({label, [i, &completed]() -> int {
                             if (i == 3)
                                 throw std::runtime_error("boom-3");
                             if (i == 5)
                                 throw std::runtime_error("boom-5");
                             ++completed;
                             return i;
                         }});
    }

    SweepRunner runner(4);
    bool threw = false;
    try {
        runner.run(std::move(cells));
    } catch (const SweepCellError &e) {
        threw = true;
        // The FIRST failing cell in grid order, no matter which
        // worker hit its exception first.
        EXPECT_EQ(e.index(), 3u);
        EXPECT_EQ(e.label(), "cell-3");
        EXPECT_NE(std::string(e.what()).find("boom-3"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("cell-3"),
                  std::string::npos);
    }
    EXPECT_TRUE(threw);
    // The failure did not tear down the sweep: the other six cells
    // all ran to completion.
    EXPECT_EQ(completed.load(), 6);
}

TEST(SweepRunner, SameCellTwiceInProcessIsIdentical)
{
    // Regression for the process-global packet id counter: a second
    // in-process run of the same cell used to see different packet
    // ids. With ids minted per EventQueue the two runs are
    // indistinguishable, firstId included.
    setQuiet(true);
    MiniResult a = runMiniCell(NicKind::NetDimm, 60);
    MiniResult b = runMiniCell(NicKind::NetDimm, 60);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.meanUs, b.meanUs);
    EXPECT_EQ(a.firstId, b.firstId);
    EXPECT_EQ(a.idsMinted, b.idsMinted);
    // And the first id of a fresh simulation is 1.
    EXPECT_EQ(a.firstId, 1u);
}

TEST(SweepRunner, PacketIdsArePerEventQueue)
{
    EventQueue eq1;
    EventQueue eq2;
    PacketPtr a1 = makePacket(eq1, 64, 0, 1);
    PacketPtr a2 = makePacket(eq1, 64, 0, 1);
    PacketPtr b1 = makePacket(eq2, 64, 0, 1);
    EXPECT_EQ(a1->id, 1u);
    EXPECT_EQ(a2->id, 2u);
    EXPECT_EQ(b1->id, 1u);
    EXPECT_EQ(eq1.packetIdsAllocated(), 2u);
    EXPECT_EQ(eq2.packetIdsAllocated(), 1u);
}

TEST(SweepRunner, DrainWorkerPoolsReportsPerWorkerTotals)
{
    setQuiet(true);
    SweepRunner runner(2);
    runner.run(miniGrid());

    std::vector<WorkerPoolStats> per = runner.drainWorkerPools();
    ASSERT_EQ(per.size(), 2u);
    EXPECT_EQ(per[0].worker, 0u);
    EXPECT_EQ(per[1].worker, 1u);

    std::uint64_t cells = 0;
    PoolStats total;
    for (const WorkerPoolStats &w : per) {
        cells += w.cells;
        total += w.pools;
    }
    // Every cell ran on some worker, and the grid allocated pooled
    // objects on the workers (never on this thread).
    EXPECT_EQ(cells, 6u);
    EXPECT_GT(total.heapAllocs + total.reuses, 0u);
    // Cells confine their pooled objects, so nothing is still out.
    EXPECT_EQ(total.outstanding, 0u);

    // The drain emptied the workers' free lists: a second rendezvous
    // reports nothing cached.
    std::vector<WorkerPoolStats> again = runner.drainWorkerPools();
    PoolStats after;
    for (const WorkerPoolStats &w : again)
        after += w.pools;
    EXPECT_EQ(after.cached, 0u);
    EXPECT_EQ(runner.cellsExecuted(), 6u);
}

TEST(SweepRunner, ParseSweepCli)
{
    // Valid: --jobs N, --short, and an allowlisted extra flag.
    SweepCli cli;
    std::string err;
    ASSERT_TRUE(tryParseSweepCli({"--jobs", "3", "--short",
                                  "--reliable"},
                                 {"--reliable"}, cli, err))
        << err;
    EXPECT_EQ(cli.jobs, 3u);
    EXPECT_TRUE(cli.shortMode);
    ASSERT_EQ(cli.rest.size(), 1u);
    EXPECT_EQ(cli.rest[0], "--reliable");

    // Defaults: no args -> hardware concurrency, long mode.
    SweepCli def;
    ASSERT_TRUE(tryParseSweepCli({}, {}, def, err)) << err;
    EXPECT_GE(def.jobs, 1u);
    EXPECT_FALSE(def.shortMode);
    EXPECT_TRUE(def.rest.empty());
}

TEST(SweepRunner, ParseSweepCliRejectsBadJobs)
{
    SweepCli cli;
    std::string err;

    EXPECT_FALSE(tryParseSweepCli({"--jobs", "0"}, {}, cli, err));
    EXPECT_NE(err.find("--jobs"), std::string::npos);

    EXPECT_FALSE(tryParseSweepCli({"--jobs", "-4"}, {}, cli, err));
    EXPECT_NE(err.find("positive"), std::string::npos);

    EXPECT_FALSE(tryParseSweepCli({"--jobs", "two"}, {}, cli, err));
    EXPECT_NE(err.find("two"), std::string::npos);

    EXPECT_FALSE(tryParseSweepCli({"--jobs", "3x"}, {}, cli, err));

    EXPECT_FALSE(tryParseSweepCli({"--jobs"}, {}, cli, err));
    EXPECT_NE(err.find("requires a value"), std::string::npos);
}

TEST(SweepRunner, ParseSweepCliShards)
{
    // --shards N lands in cli.shards; absence keeps the 0 sentinel
    // (the PDES benches pick their own sweep in that case).
    SweepCli cli;
    std::string err;
    ASSERT_TRUE(tryParseSweepCli({"--shards", "4"}, {"--shards"}, cli,
                                 err))
        << err;
    EXPECT_EQ(cli.shards, 4u);

    SweepCli def;
    ASSERT_TRUE(tryParseSweepCli({}, {}, def, err)) << err;
    EXPECT_EQ(def.shards, 0u);

    // Composes with the rest of the surface.
    SweepCli both;
    ASSERT_TRUE(tryParseSweepCli({"--jobs", "2", "--shards", "8",
                                  "--short"},
                                 {"--shards"}, both, err))
        << err;
    EXPECT_EQ(both.jobs, 2u);
    EXPECT_EQ(both.shards, 8u);
    EXPECT_TRUE(both.shortMode);
}

TEST(SweepRunner, ParseSweepCliRejectsBadShards)
{
    // Same reject semantics as --jobs: 0, negative, non-numeric,
    // trailing garbage, and a missing value are all hard errors.
    SweepCli cli;
    std::string err;

    EXPECT_FALSE(
        tryParseSweepCli({"--shards", "0"}, {"--shards"}, cli, err));
    EXPECT_NE(err.find("--shards"), std::string::npos);

    EXPECT_FALSE(
        tryParseSweepCli({"--shards", "-2"}, {"--shards"}, cli, err));
    EXPECT_NE(err.find("positive"), std::string::npos);

    EXPECT_FALSE(
        tryParseSweepCli({"--shards", "four"}, {"--shards"}, cli, err));
    EXPECT_NE(err.find("four"), std::string::npos);

    EXPECT_FALSE(
        tryParseSweepCli({"--shards", "4x"}, {"--shards"}, cli, err));

    EXPECT_FALSE(tryParseSweepCli({"--shards"}, {"--shards"}, cli, err));
    EXPECT_NE(err.find("requires a value"), std::string::npos);
}

TEST(SweepRunner, ParseSweepCliFidelity)
{
    // Each spelling lands in cli.fidelity; absence keeps Packet (the
    // byte-identical default every golden is produced in).
    SweepCli cli;
    std::string err;
    ASSERT_TRUE(
        tryParseSweepCli({"--fidelity", "hybrid"}, {"--fidelity"}, cli, err))
        << err;
    EXPECT_EQ(cli.fidelity, FidelityMode::Hybrid);

    ASSERT_TRUE(
        tryParseSweepCli({"--fidelity", "fluid"}, {"--fidelity"}, cli, err))
        << err;
    EXPECT_EQ(cli.fidelity, FidelityMode::Fluid);

    ASSERT_TRUE(
        tryParseSweepCli({"--fidelity", "packet"}, {"--fidelity"}, cli, err))
        << err;
    EXPECT_EQ(cli.fidelity, FidelityMode::Packet);

    SweepCli def;
    ASSERT_TRUE(tryParseSweepCli({}, {}, def, err)) << err;
    EXPECT_EQ(def.fidelity, FidelityMode::Packet);

    // Composes with the rest of the shared sweep surface.
    SweepCli both;
    ASSERT_TRUE(tryParseSweepCli({"--fidelity", "fluid", "--jobs",
                                  "2", "--short"},
                                 {"--fidelity"}, both, err))
        << err;
    EXPECT_EQ(both.fidelity, FidelityMode::Fluid);
    EXPECT_EQ(both.jobs, 2u);
    EXPECT_TRUE(both.shortMode);

    EXPECT_STREQ(fidelityModeName(FidelityMode::Packet), "packet");
    EXPECT_STREQ(fidelityModeName(FidelityMode::Hybrid), "hybrid");
    EXPECT_STREQ(fidelityModeName(FidelityMode::Fluid), "fluid");
}

TEST(SweepRunner, ParseSweepCliRejectsBadFidelity)
{
    // Unknown mode names, a missing value, and case variants are
    // hard errors naming the offending token, like --jobs/--shards.
    SweepCli cli;
    std::string err;

    EXPECT_FALSE(tryParseSweepCli({"--fidelity", "analog"}, {"--fidelity"},
                                  cli, err));
    EXPECT_NE(err.find("analog"), std::string::npos);
    EXPECT_NE(err.find("--fidelity"), std::string::npos);

    EXPECT_FALSE(tryParseSweepCli({"--fidelity", "Packet"}, {"--fidelity"},
                                  cli, err));

    EXPECT_FALSE(
        tryParseSweepCli({"--fidelity"}, {"--fidelity"}, cli, err));
    EXPECT_NE(err.find("requires a value"), std::string::npos);
}

TEST(SweepRunner, ParseSweepCliRejectsUnknownFlags)
{
    SweepCli cli;
    std::string err;

    EXPECT_FALSE(tryParseSweepCli({"--bogus"}, {}, cli, err));
    EXPECT_NE(err.find("--bogus"), std::string::npos);

    // Extra flags are an allowlist, not a prefix match.
    EXPECT_FALSE(tryParseSweepCli({"--reliable2"}, {"--reliable"},
                                  cli, err));

    // Stray positional arguments are rejected too.
    EXPECT_FALSE(tryParseSweepCli({"12"}, {}, cli, err));

    // --shards and --fidelity are opt-in: a bench that does not list
    // them would ignore them, so they are unknown there.
    EXPECT_FALSE(tryParseSweepCli({"--shards", "2"}, {}, cli, err));
    EXPECT_NE(err.find("--shards"), std::string::npos);
    EXPECT_FALSE(tryParseSweepCli({"--fidelity", "fluid"}, {"--shards"},
                                  cli, err));
    EXPECT_NE(err.find("--fidelity"), std::string::npos);
}
