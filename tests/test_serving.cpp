/**
 * @file
 * End-to-end tests for the KV serving harness: request accounting,
 * placement behaviour (handler offload vs host processing), the
 * zero-handler golden equivalence, pinned single-server digests,
 * run-to-run determinism, and the replicated cluster knobs
 * (crash/failover durability, duplicate-reply suppression).
 */

#include <gtest/gtest.h>

#include "workload/RpcServingLoad.hh"

using namespace netdimm;

namespace
{

ServingParams
smallCell(ServingPlacement placement)
{
    ServingParams p;
    p.placement = placement;
    p.qps = 0.5e6;
    p.requests = 300;
    p.warmup = 50;
    return p;
}

} // namespace

TEST(RpcServing, HostPlacementServesEveryRequest)
{
    SystemConfig base;
    ServingResult r = runServing(base, smallCell(
                                           ServingPlacement::NetDimmHost));
    EXPECT_EQ(r.sent, 350u);
    EXPECT_EQ(r.completed, 350u);
    EXPECT_EQ(r.lost, 0u);
    EXPECT_EQ(r.rtt.count(), 300u); // warmup excluded
    EXPECT_EQ(r.hostServed, r.sent);
    EXPECT_EQ(r.handlerServed, 0u);
    EXPECT_GT(r.rtt.minValue(), 0u);
    EXPECT_GT(r.simulatedUs, 0.0);
}

TEST(RpcServing, HandlerPlacementOffloadsAndWins)
{
    SystemConfig base;
    ServingResult host = runServing(base, smallCell(
                                              ServingPlacement::NetDimmHost));
    ServingResult hand = runServing(
        base, smallCell(ServingPlacement::NetDimmHandlers));

    EXPECT_EQ(hand.completed, hand.sent);
    // Every request is a GET/PUT, so with both ops served the
    // handler cores serve all of them (no overflow at this load).
    EXPECT_EQ(hand.handlerServed, hand.sent);
    EXPECT_EQ(hand.hostServed, 0u);
    EXPECT_GT(hand.handlerBusFraction, 0.0);
    // Offload win: on-DIMM serving beats the host path at p99.
    EXPECT_LT(hand.rtt.percentile(0.99), host.rtt.percentile(0.99));
}

TEST(RpcServing, HandlersServingNothingIsByteIdenticalToPlainNetDimm)
{
    SystemConfig base;
    ServingParams plain = smallCell(ServingPlacement::NetDimmHost);
    ServingParams empty = smallCell(ServingPlacement::NetDimmHandlers);
    empty.handlersServeNothing = true;

    ServingResult a = runServing(base, plain);
    ServingResult b = runServing(base, empty);
    EXPECT_EQ(a.rtt.digest(), b.rtt.digest());
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(b.handlerServed, 0u);
}

TEST(RpcServing, DeterministicAcrossRuns)
{
    SystemConfig base;
    ServingParams p = smallCell(ServingPlacement::NetDimmHandlers);
    ServingResult a = runServing(base, p);
    ServingResult b = runServing(base, p);
    EXPECT_EQ(a.rtt.digest(), b.rtt.digest());
    EXPECT_EQ(a.handlerServed, b.handlerServed);
    EXPECT_EQ(a.handlerBusFraction, b.handlerBusFraction);
}

// -- pinned single-server goldens -----------------------------------------

namespace
{

struct PinnedCell
{
    const char *name;
    ServingParams params;
    const char *digest;
    std::uint64_t hostServed;
    std::uint64_t handlerServed;
};

} // namespace

TEST(RpcServing, PinnedDigestsMatchSingleServerGoldens)
{
    // Recorded from the dedicated single-server path before it was
    // folded into the cluster machinery. A default ServingParams
    // (one node, R=1, no crashes) must stay event-for-event identical
    // to that path: same RTT digest, same request accounting.
    ServingParams putHeavy = smallCell(ServingPlacement::NetDimmHandlers);
    putHeavy.getFraction = 0.5;
    const PinnedCell cells[] = {
        {"dNIC", smallCell(ServingPlacement::Dnic),
         "lhist bits=7 n=300 min=6424174 max=9515383 "
         "sum=2062524257;1122:22 1123:56 1124:56 1125:36 1126:23 "
         "1127:16 1128:8 1129:10 1130:6 1131:1 1132:6 1133:6 1134:5 "
         "1135:2 1136:3 1137:4 1138:2 1139:3 1140:3 1141:3 1142:5 "
         "1143:3 1144:1 1145:2 1146:3 1147:1 1148:2 1149:3 1151:2 "
         "1152:1 1153:1 1155:1 1156:1 1157:1 1158:1 1160:1 ",
         350, 0},
        {"iNIC", smallCell(ServingPlacement::Inic),
         "lhist bits=7 n=300 min=4955748 max=7947607 "
         "sum=1606212245;1099:10 1100:45 1101:91 1102:42 1103:19 "
         "1104:9 1105:9 1106:1 1107:6 1108:5 1109:5 1110:5 1111:4 "
         "1112:5 1113:2 1114:5 1115:2 1116:1 1117:4 1118:2 1119:5 "
         "1120:2 1121:2 1122:2 1123:2 1124:2 1125:1 1126:2 1127:3 "
         "1129:2 1134:1 1138:1 1139:1 1140:1 1145:1 ",
         350, 0},
        {"NetDIMM", smallCell(ServingPlacement::NetDimmHost),
         "lhist bits=7 n=300 min=3914940 max=6975289 "
         "sum=1285752531;1079:9 1080:14 1081:40 1082:65 1083:45 "
         "1084:22 1085:7 1086:7 1087:8 1088:3 1089:6 1090:5 1091:5 "
         "1092:5 1093:2 1094:7 1095:2 1096:4 1097:4 1098:4 1099:2 "
         "1100:1 1101:4 1102:3 1103:3 1104:2 1105:4 1106:2 1108:1 "
         "1109:2 1110:1 1111:2 1112:3 1113:1 1118:1 1120:1 1123:1 "
         "1124:1 1130:1 ",
         350, 0},
        {"NetDIMM+h", smallCell(ServingPlacement::NetDimmHandlers),
         "lhist bits=7 n=300 min=1432113 max=2128544 "
         "sum=449148234;983:45 984:130 985:30 986:29 987:12 988:4 "
         "989:12 990:3 991:3 993:5 994:2 996:3 997:1 998:1 999:1 "
         "1003:2 1004:3 1005:3 1006:1 1009:2 1011:1 1016:1 1021:2 "
         "1023:1 1024:3 ",
         0, 350},
        {"NetDIMM+h 50% PUT", putHeavy,
         "lhist bits=7 n=300 min=1432113 max=2235022 "
         "sum=451612188;983:28 984:96 985:76 986:20 987:20 988:7 "
         "989:10 990:7 991:3 992:2 993:4 994:1 995:1 996:3 997:1 "
         "998:1 999:1 1002:1 1005:2 1006:1 1008:1 1009:2 1012:1 "
         "1013:1 1014:1 1016:2 1017:1 1020:1 1021:1 1024:2 1025:1 "
         "1028:1 ",
         0, 350},
    };

    SystemConfig base;
    for (const PinnedCell &c : cells) {
        SCOPED_TRACE(c.name);
        ServingResult r = runServing(base, c.params);
        EXPECT_EQ(r.rtt.digest(), c.digest);
        EXPECT_EQ(r.sent, 350u);
        EXPECT_EQ(r.completed, 350u);
        EXPECT_EQ(r.hostServed, c.hostServed);
        EXPECT_EQ(r.handlerServed, c.handlerServed);
        EXPECT_EQ(r.lostAckedWrites, 0u);
        if (c.params.placement == ServingPlacement::NetDimmHost) {
            // Host replies carry the PUT's version, so the ledger
            // and audit run on the single-server cell too.
            EXPECT_GT(r.ackedPuts, 0u);
        } else if (c.handlerServed == r.sent) {
            // Handler replies are version 0: no PUT they served
            // enters the ledger.
            EXPECT_EQ(r.ackedPuts, 0u);
        }
    }
}

// -- cluster knobs ----------------------------------------------------------

namespace
{

ServingParams
clusterCell(double crashRate, std::uint32_t r)
{
    ServingParams p = smallCell(ServingPlacement::NetDimmHost);
    p.qps = 1e6;
    p.requests = 800;
    p.warmup = 100;
    p.deadline = usToTicks(120);
    p.retryTimeout = usToTicks(10);
    p.maxRetries = 4;
    p.cluster.nodes = 4;
    p.cluster.replication = r;
    p.cluster.crashRatePerSec = crashRate;
    p.cluster.restartDelay = usToTicks(80);
    p.cluster.suspectTicks = usToTicks(60);
    return p;
}

} // namespace

TEST(RpcServingCluster, ReplicatedClusterLosesNoAckedWriteUnderCrashes)
{
    SystemConfig base;
    ServingResult r = runServing(base, clusterCell(4e4, 2));
    EXPECT_GT(r.crashes, 0u) << "cell too quiet to test anything";
    EXPECT_EQ(r.crashes, r.restarts);
    EXPECT_TRUE(r.ledgerClosed);
    EXPECT_GT(r.ackedPuts, 0u);
    EXPECT_EQ(r.lostAckedWrites, 0u);
    EXPECT_EQ(r.staleReads, 0u);
    EXPECT_GT(r.failoverRedirects, 0u); // clients routed around death
    EXPECT_GT(r.resyncBytes, 0u);       // reboots re-synced shards
    EXPECT_GT(r.goodRpcs, 0u);
}

TEST(RpcServingCluster, DeterministicUnderCrashes)
{
    SystemConfig base;
    ServingParams p = clusterCell(4e4, 2);
    ServingResult a = runServing(base, p);
    ServingResult b = runServing(base, p);
    EXPECT_EQ(a.rtt.digest(), b.rtt.digest());
    EXPECT_EQ(a.crashes, b.crashes);
    EXPECT_EQ(a.resyncBytes, b.resyncBytes);
    EXPECT_EQ(a.failoverRedirects, b.failoverRedirects);
    EXPECT_EQ(a.duplicateReplies, b.duplicateReplies);
}

TEST(RpcServingCluster, UnreplicatedClusterLosesAckedWritesToCrashes)
{
    // The negative control: R=1 has no surviving replica, so a crash
    // provably loses acknowledged writes -- which is exactly what the
    // durability audit must report.
    SystemConfig base;
    ServingResult r = runServing(base, clusterCell(8e4, 1));
    EXPECT_GT(r.crashes, 0u);
    EXPECT_GT(r.lostAckedWrites, 0u);
}

TEST(RpcServing, LateDuplicateRepliesAreDroppedAndCounted)
{
    // A retry timeout far below the actual RTT makes every request
    // retransmit while the original is still being served; the second
    // reply finds its key already completed and must be dropped by
    // the sequence check, not double-counted.
    SystemConfig base;
    ServingParams p = smallCell(ServingPlacement::NetDimmHost);
    p.qps = 0.2e6;
    p.requests = 200;
    p.warmup = 50;
    p.retryTimeout = usToTicks(1); // << RTT
    // Enough retries that the exponential backoff outlives the real
    // RTT: no flight is abandoned, every request completes exactly
    // once, and the extra sends surface purely as duplicates.
    p.maxRetries = 8;
    ServingResult r = runServing(base, p);
    EXPECT_GT(r.duplicateReplies, 0u);
    EXPECT_EQ(r.completed, r.sent); // each counted exactly once
    EXPECT_EQ(r.rtt.count(), 200u);
}
