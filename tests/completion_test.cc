// Per-client completion records (QRPC at-most-once, paper §3.2).
//
// Every request carries its client's ack floor; the server keeps the
// response of each rpc id at or above the floor and frees an entry exactly
// when the floor passes it. Part 1 shows that a frame below the floor is
// dropped and never executed -- on the live primary, after a server
// crash-restart, and on a promoted backup. Part 2 holds one client away
// while 10 000 other calls complete: its resend is still answered from the
// cache, live and after a server crash-restart. Part 3 checks that a
// snapshot writes only the clients whose record changed.

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/check/simcheck.h"
#include "src/core/toolkit.h"

namespace rover {
namespace {

using ExecKey = std::pair<std::string, uint64_t>;

// SimCheck plus per-(client, rpc id) counts of executions and cache
// replays at any server.
class CountingCheck : public check::SimCheck {
 public:
  void OnServerExecute(const std::string& server, const std::string& client,
                       uint64_t rpc_id) override {
    SimCheck::OnServerExecute(server, client, rpc_id);
    ++executes[{client, rpc_id}];
  }
  void OnServerReplay(const std::string& server, const std::string& client, uint64_t rpc_id,
                      bool durable) override {
    SimCheck::OnServerReplay(server, client, rpc_id, durable);
    ++replays[{client, rpc_id}];
  }

  std::map<ExecKey, int> executes;
  std::map<ExecKey, int> replays;
};

// The request of `rpc_id` from `client` again, as a raw frame: what a
// duplicating link or a late retransmission delivers.
void SendOldFrame(RoverClientNode* client, const std::string& dst, uint64_t rpc_id) {
  Message frame;
  frame.header.message_id = rpc_id;
  frame.header.type = MessageType::kRequest;
  frame.header.dst = dst;
  RpcRequestBody body;
  body.method = "rover.list";
  body.args = {std::string("")};
  frame.payload = body.Encode();
  client->transport()->Send(std::move(frame));
}

QrpcCall List(RoverClientNode* client) {
  return client->qrpc()->Call("server", "rover.list", {std::string("")});
}

// --- Part 1: frames below the floor -----------------------------------------

TEST(CompletionRecordTest, StaleFrameBelowFloorDroppedAtLivePrimary) {
  Testbed bed;
  CountingCheck check;
  check.Attach(&bed);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Ethernet10());
  QrpcCall first = List(client);
  ASSERT_TRUE(first.result.Wait(bed.loop()));
  QrpcCall second = List(client);
  ASSERT_TRUE(second.result.Wait(bed.loop()));
  bed.Run();
  // Nothing was outstanding when the second call was issued, so it carried
  // its own id as the floor: the first call's entry is freed.
  EXPECT_EQ(bed.server()->qrpc()->AckFloor("mobile"), second.rpc_id);

  SendOldFrame(client, "server", first.rpc_id);
  bed.Run();
  EXPECT_EQ(bed.server()->qrpc()->stats().stale_requests_dropped, 1u);
  EXPECT_EQ(bed.server()->qrpc()->stats().duplicates, 0u);
  EXPECT_EQ((check.executes[{"mobile", first.rpc_id}]), 1);
  EXPECT_EQ((check.replays[{"mobile", first.rpc_id}]), 0);

  // At the floor the entry is still held: the same frame is replayed.
  SendOldFrame(client, "server", second.rpc_id);
  bed.Run();
  EXPECT_EQ((check.executes[{"mobile", second.rpc_id}]), 1);
  EXPECT_EQ((check.replays[{"mobile", second.rpc_id}]), 1);
  EXPECT_EQ(bed.server()->metrics()->CounterValue("qrpc_server.stale_requests_dropped"), 1u);
  check.CheckQuiesced();
  EXPECT_TRUE(check.ok()) << check.Report();
}

TEST(CompletionRecordTest, StaleFrameBelowFloorDroppedAfterServerRestart) {
  // Recovery rebuilds the floor from the WAL (every transaction carries
  // it) and, with compaction after each transaction, from the per-client
  // snapshot image alone.
  for (size_t compact_after : {size_t{1}, size_t{256}}) {
    SCOPED_TRACE("compact_after_records=" + std::to_string(compact_after));
    Testbed::Options topts;
    topts.server.stable_store.compact_after_records = compact_after;
    Testbed bed(topts);
    CountingCheck check;
    check.Attach(&bed);
    RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Ethernet10());
    QrpcCall first = List(client);
    ASSERT_TRUE(first.result.Wait(bed.loop()));
    QrpcCall second = List(client);
    ASSERT_TRUE(second.result.Wait(bed.loop()));
    bed.Run();

    bed.server()->SimulateCrashAndRestart();
    EXPECT_EQ(bed.server()->qrpc()->AckFloor("mobile"), second.rpc_id);
    const uint64_t dropped = bed.server()->qrpc()->stats().stale_requests_dropped;
    SendOldFrame(client, "server", first.rpc_id);
    SendOldFrame(client, "server", second.rpc_id);
    bed.Run();
    EXPECT_EQ(bed.server()->qrpc()->stats().stale_requests_dropped, dropped + 1);
    EXPECT_EQ((check.executes[{"mobile", first.rpc_id}]), 1);
    EXPECT_EQ((check.replays[{"mobile", first.rpc_id}]), 0);
    // The entry at the floor survived recovery and replays.
    EXPECT_EQ((check.executes[{"mobile", second.rpc_id}]), 1);
    EXPECT_EQ((check.replays[{"mobile", second.rpc_id}]), 1);
    check.CheckQuiesced();
    EXPECT_TRUE(check.ok()) << check.Report();
  }
}

TEST(CompletionRecordTest, StaleFrameBelowFloorDroppedAtPromotedBackup) {
  Testbed bed;
  CountingCheck check;
  check.Attach(&bed);
  RoverServerNode* backup = bed.AddBackup("backup", LinkProfile::Ethernet10());
  ClientNodeOptions copts;
  copts.qrpc.failover_primary = "server";
  copts.qrpc.failover_backup = "backup";
  RoverClientNode* client =
      bed.AddClient("mobile", LinkProfile::Ethernet10(), nullptr, copts);
  bed.AddLink("mobile", "backup", LinkProfile::Ethernet10());
  QrpcCall first = List(client);
  ASSERT_TRUE(first.result.Wait(bed.loop()));
  QrpcCall second = List(client);
  ASSERT_TRUE(second.result.Wait(bed.loop()));
  bed.Run();
  // The floor travels in each shipped transaction.
  EXPECT_EQ(backup->qrpc()->AckFloor("mobile"), second.rpc_id);

  bed.server()->Kill();
  EXPECT_GT(backup->Promote(), 1u);
  SendOldFrame(client, "backup", first.rpc_id);
  SendOldFrame(client, "backup", second.rpc_id);
  bed.Run();
  EXPECT_EQ(backup->qrpc()->stats().stale_requests_dropped, 1u);
  EXPECT_EQ((check.executes[{"mobile", first.rpc_id}]), 1);  // at the primary only
  EXPECT_EQ((check.replays[{"mobile", first.rpc_id}]), 0);
  EXPECT_EQ((check.replays[{"mobile", second.rpc_id}]), 1);
  EXPECT_EQ(backup->rover()->stats().imports, 0u);
  // The failover audit accepts the first response missing from the backup
  // only because the client's floor passed it.
  check.CheckQuiesced();
  EXPECT_TRUE(check.ok()) << check.Report();
}

// --- Part 2: a long disconnection -------------------------------------------

// One client's call executes, but the response is stuck behind its dead
// link. The client crashes and recovers (its stable log resends the call)
// while 20 other clients complete 10 000 calls, enough to have evicted the
// entry from a cache capped at a few thousand. On reconnect the resend is
// answered from the cache: the call ran exactly once.
void RunLongDisconnect(bool restart_server) {
  Testbed::Options topts;
  // Push handler execution past the roamer's link-down edge.
  topts.server.qrpc.dispatch_cost = Duration::Seconds(2);
  Testbed bed(topts);
  CountingCheck check;
  check.Attach(&bed);
  const TimePoint t0 = TimePoint::Epoch();
  std::vector<IntervalConnectivity::Interval> up = {
      {t0, t0 + Duration::Seconds(1)},
      {t0 + Duration::Seconds(2000), TimePoint::FromMicros(INT64_MAX)}};
  RoverClientNode* roamer = bed.AddClient("roamer", LinkProfile::WaveLan2(),
                                          std::make_unique<IntervalConnectivity>(up));
  std::vector<RoverClientNode*> others;
  for (int i = 0; i < 20; ++i) {
    others.push_back(bed.AddClient("c" + std::to_string(i), LinkProfile::Ethernet10()));
  }

  uint64_t roamer_rpc = 0;
  bed.loop()->ScheduleAt(t0 + Duration::Millis(100),
                         [&] { roamer_rpc = List(roamer).rpc_id; });
  bed.loop()->ScheduleAt(t0 + Duration::Seconds(5), [&] {
    EXPECT_EQ(roamer->SimulateCrashAndRestart(), 1u);  // the call is resent
  });
  std::vector<QrpcCall> calls;
  for (int round = 0; round < 500; ++round) {
    bed.loop()->ScheduleAt(t0 + Duration::Seconds(10 + 3 * round), [&] {
      for (RoverClientNode* c : others) {
        calls.push_back(List(c));
      }
    });
  }
  bed.loop()->RunUntil(t0 + Duration::Seconds(1900));
  ASSERT_EQ(calls.size(), 10000u);
  for (const QrpcCall& call : calls) {
    ASSERT_TRUE(call.result.ready());
    ASSERT_TRUE(call.result.value().status.ok());
  }
  const ExecKey key{"roamer", roamer_rpc};
  EXPECT_EQ(check.executes[key], 1);
  EXPECT_EQ(check.replays[key], 0);
  EXPECT_EQ(roamer->qrpc()->PendingCount(), 1u);
  EXPECT_GT(bed.server()->stable_store()->stats().snapshots_written, 10u);
  if (restart_server) {
    bed.server()->SimulateCrashAndRestart();
  }

  bed.Run();
  EXPECT_EQ(check.executes[key], 1);
  EXPECT_GE(check.replays[key], 1);
  EXPECT_EQ(roamer->qrpc()->PendingCount(), 0u);
  check.CheckQuiesced();
  EXPECT_TRUE(check.ok()) << check.Report();
}

TEST(CompletionRecordTest, LongDisconnectResendAnsweredFromCache) {
  RunLongDisconnect(/*restart_server=*/false);
}

TEST(CompletionRecordTest, LongDisconnectResendAnsweredFromCacheAfterServerRestart) {
  RunLongDisconnect(/*restart_server=*/true);
}

// --- Part 3: snapshots write only what changed -----------------------------

TEST(CompletionRecordTest, SnapshotWritesOnlyTouchedClients) {
  Testbed::Options topts;
  topts.server.stable_store.compact_after_records = 5;
  Testbed bed(topts);
  std::vector<RoverClientNode*> clients;
  for (int i = 0; i < 5; ++i) {
    clients.push_back(bed.AddClient("c" + std::to_string(i), LinkProfile::Ethernet10()));
  }
  obs::Registry* metrics = bed.server()->metrics();

  // Five transactions from five clients: one snapshot of five records.
  for (RoverClientNode* c : clients) {
    List(c);
  }
  bed.Run();
  EXPECT_EQ(metrics->CounterValue("server_store.snapshots_written"), 1u);
  EXPECT_EQ(metrics->CounterValue("server_store.snapshot_client_records"), 5u);

  // Five more transactions, from two clients only: two records.
  for (int i = 0; i < 3; ++i) {
    List(clients[0]);
  }
  for (int i = 0; i < 2; ++i) {
    List(clients[1]);
  }
  bed.Run();
  EXPECT_EQ(metrics->CounterValue("server_store.snapshots_written"), 2u);
  EXPECT_EQ(metrics->CounterValue("server_store.snapshot_client_records"), 7u);

  // Recovery still sees every client, merged from both snapshots.
  RecoveredServerState recovered = bed.server()->SimulateCrashAndRestart();
  EXPECT_EQ(recovered.snapshot_records.size(), 5u);
  EXPECT_TRUE(recovered.wal.empty());
  for (RoverClientNode* c : clients) {
    EXPECT_GT(bed.server()->qrpc()->AckFloor(c->host_name()), 0u) << c->host_name();
  }
}

}  // namespace
}  // namespace rover
