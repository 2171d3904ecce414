// Primary/backup replication and client-transparent failover tests.
//
// Part 1 exercises deterministic failover scenarios on a full Testbed:
// a replicated (executed + backup-acked) operation re-sent to the backup
// replays from the shipped duplicate cache without re-executing; an
// operation the primary died holding re-executes at the backup exactly
// once; a dead primary trips the circuit breaker and engages the
// configured failover route with no external trigger; a WAL fail-stop
// hands the service to the backup through the fail-stop failover handler;
// and a silent backup degrades the sender to asynchronous shipping
// instead of wedging response release.
// Seeded failover chaos -- the primary killed for good at a random point,
// the backup promoted one detection delay later -- runs in the fault
// harness's failover corpus (src/check/fuzz.h, tests/simcheck_test.cc).

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/check/simcheck.h"
#include "src/core/toolkit.h"

namespace rover {
namespace {

// Appends its argument to a list-valued state: every successful execution
// leaves exactly one copy of the token behind, which is what the
// at-most-once invariants count.
constexpr char kJournalCode[] = R"(
proc get {} { global state; return $state }
proc add {t} { global state; lappend state $t; return $state }
)";

ClientNodeOptions FailoverClientOptions() {
  ClientNodeOptions copts;
  copts.qrpc.failover_primary = "server";
  copts.qrpc.failover_backup = "backup";
  return copts;
}

// --- Part 1: deterministic failover scenarios ------------------------------

// An operation executes at the primary and its transaction is shipped and
// acked by the backup, but the response is stuck behind a dead client link
// when the primary is killed. After failover the client's re-dispatch must
// be answered from the backup's replicated duplicate cache -- the handler
// never runs again, and the journal holds the token exactly once.
TEST(FailoverTest, ReplicatedResponseReplaysAtBackupWithoutReexecution) {
  Testbed::Options topts;
  // Push handler execution past the link-down edge so the response queues
  // behind a dead link instead of being delivered.
  topts.server.qrpc.dispatch_cost = Duration::Seconds(2);
  Testbed bed(topts);
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  RoverServerNode* backup = bed.AddBackup("backup", LinkProfile::Ethernet10());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());

  // Up long enough for the request to land (~0.15s), then down; the far
  // future interval keeps the scheduler waiting for the link rather than
  // declaring the primary unreachable on its own (that path has its own
  // test below).
  std::vector<IntervalConnectivity::Interval> up = {
      {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Seconds(1)},
      {TimePoint::Epoch() + Duration::Seconds(200),
       TimePoint::FromMicros(INT64_MAX)}};
  RoverClientNode* client = bed.AddClient(
      "mobile", LinkProfile::WaveLan2(),
      std::make_unique<IntervalConnectivity>(up), FailoverClientOptions());
  bed.AddLink("mobile", "backup", LinkProfile::WaveLan2());

  Promise<InvokeResult> result;
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Millis(100), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    result = client->access()->Invoke("journal", "add", {"tok0"}, io);
  });

  // By 4s the handler ran (2.15s), the transaction journaled, shipped, and
  // the backup acked it -- but the response never reached the client.
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(4));
  ASSERT_GE(bed.server()->replication_sender()->acked_watermark(), 2u);
  EXPECT_FALSE(result.ready());

  bed.server()->Kill();
  EXPECT_TRUE(bed.server()->dead());
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Millis(4200), [&] {
    EXPECT_GT(backup->Promote(), 1u);
    client->qrpc()->TriggerFailover();
  });
  bed.Run();

  ASSERT_TRUE(result.ready());
  EXPECT_TRUE(result.value().status.ok());
  EXPECT_TRUE(client->qrpc()->failover_engaged());
  EXPECT_EQ(client->qrpc()->stats().failovers, 1u);
  EXPECT_GE(client->qrpc()->stats().failover_redispatches, 1u);
  // Answered from the replicated duplicate cache: no execution at the
  // backup, token present exactly once.
  EXPECT_GE(backup->qrpc()->stats().duplicates, 1u);
  EXPECT_EQ(backup->rover()->stats().invokes, 0u);
  ASSERT_TRUE(backup->store()->Get("journal").ok());
  EXPECT_EQ(backup->store()->Get("journal")->data, "tok0");
  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

// The primary dies holding the request -- executed nothing, shipped
// nothing. The backup has no duplicate-cache entry, so the re-dispatched
// operation executes there: exactly once, as a fresh execution.
TEST(FailoverTest, NonReplicatedOpReexecutesExactlyOnceAtBackup) {
  Testbed::Options topts;
  topts.server.qrpc.dispatch_cost = Duration::Seconds(2);
  Testbed bed(topts);
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  RoverServerNode* backup = bed.AddBackup("backup", LinkProfile::Ethernet10());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2(),
                                          nullptr, FailoverClientOptions());
  bed.AddLink("mobile", "backup", LinkProfile::WaveLan2());

  Promise<InvokeResult> result;
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Millis(100), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    result = client->access()->Invoke("journal", "add", {"tok0"}, io);
  });
  // The request arrives ~0.15s; the handler would run at ~2.15s. Kill the
  // primary mid-dispatch, before anything is journaled or shipped.
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Seconds(1), [&] {
    bed.server()->Kill();
  });
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Millis(1200), [&] {
    backup->Promote();
    client->qrpc()->TriggerFailover();
  });
  bed.Run();

  ASSERT_TRUE(result.ready());
  EXPECT_TRUE(result.value().status.ok());
  // Fresh execution at the backup, not a replay.
  EXPECT_EQ(backup->qrpc()->stats().duplicates, 0u);
  EXPECT_EQ(backup->rover()->stats().invokes, 1u);
  ASSERT_TRUE(backup->store()->Get("journal").ok());
  EXPECT_EQ(backup->store()->Get("journal")->data, "tok0");
  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

// No external trigger: the dead primary's links will never come up again,
// so the enqueue path force-opens the destination's circuit breaker, and
// the breaker observer engages the configured failover route by itself.
TEST(FailoverTest, DeadPrimaryOpensBreakerAndEngagesFailoverAutomatically) {
  Testbed bed;
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  RoverServerNode* backup = bed.AddBackup("backup", LinkProfile::Ethernet10());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2(),
                                          nullptr, FailoverClientOptions());
  bed.AddLink("mobile", "backup", LinkProfile::WaveLan2());

  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Millis(500), [&] {
    bed.server()->Kill();
    backup->Promote();
  });
  Promise<InvokeResult> result;
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Seconds(1), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    result = client->access()->Invoke("journal", "add", {"tok0"}, io);
  });
  bed.Run();

  ASSERT_TRUE(result.ready());
  EXPECT_TRUE(result.value().status.ok());
  EXPECT_TRUE(client->qrpc()->failover_engaged());
  EXPECT_EQ(client->qrpc()->stats().failovers, 1u);
  EXPECT_EQ(backup->rover()->stats().invokes, 1u);
  ASSERT_TRUE(backup->store()->Get("journal").ok());
  EXPECT_EQ(backup->store()->Get("journal")->data, "tok0");
  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

// Storage death as a failover trigger: the primary's WAL device fails its
// syncs permanently, the fail-stop handler Kill()s the node and hands the
// service to the backup, and the client's operation still completes there.
TEST(FailoverTest, WalFailStopKillsPrimaryAndHandsOffToBackup) {
  Testbed bed;
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  RoverServerNode* backup = bed.AddBackup("backup", LinkProfile::Ethernet10());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2(),
                                          nullptr, FailoverClientOptions());
  bed.AddLink("mobile", "backup", LinkProfile::WaveLan2());
  bed.server()->SetFailStopFailoverHandler([&] {
    backup->Promote();
    client->qrpc()->TriggerFailover();
  });

  // The device dies before the operation's journal flush can complete.
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Millis(200), [&] {
    bed.server()->stable_store()->wal()->device()->FailSyncPermanently();
  });
  Promise<InvokeResult> result;
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Millis(500), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    result = client->access()->Invoke("journal", "add", {"tok0"}, io);
  });
  bed.Run();

  EXPECT_TRUE(bed.server()->dead());
  EXPECT_TRUE(client->qrpc()->failover_engaged());
  ASSERT_TRUE(result.ready());
  EXPECT_TRUE(result.value().status.ok());
  // Whether the backup replays the shipped transaction or re-executes a
  // never-shipped one depends on how far the flush got; either way the
  // token lands exactly once.
  ASSERT_TRUE(backup->store()->Get("journal").ok());
  EXPECT_EQ(backup->store()->Get("journal")->data, "tok0");
  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

// A backup that stops acking must not wedge the primary: past the sync
// timeout the sender degrades to asynchronous shipping, releases gated
// responses, and heals once the backup catches up.
TEST(FailoverTest, SenderDegradesToAsyncWhenBackupStopsAcking) {
  Testbed bed;
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  RoverServerNode* backup = bed.AddServer("backup");
  // The replication link is up just long enough for the initial resync,
  // then dead until 300s.
  std::vector<IntervalConnectivity::Interval> repl_up = {
      {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Millis(500)},
      {TimePoint::Epoch() + Duration::Seconds(300),
       TimePoint::FromMicros(INT64_MAX)}};
  bed.AddLink("server", "backup", LinkProfile::Ethernet10(),
              std::make_unique<IntervalConnectivity>(repl_up));
  bed.server()->EnableReplicationPrimary("backup", Duration::Seconds(1));
  backup->EnableReplicationBackup("server");
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());

  Promise<InvokeResult> result;
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Seconds(1), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    result = client->access()->Invoke("journal", "add", {"tok0"}, io);
  });

  // The transaction ships into the dead link; the release gate times out
  // after 1s and the response goes out anyway.
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(5));
  ASSERT_TRUE(result.ready());
  EXPECT_TRUE(result.value().status.ok());
  EXPECT_TRUE(bed.server()->replication_sender()->degraded());
  EXPECT_GE(bed.server()->replication_sender()->stats().sync_degrades, 1u);

  // The link returns at 300s: the backlog drains, the backup acks, and the
  // sender heals back to synchronous shipping.
  bed.Run();
  EXPECT_FALSE(bed.server()->replication_sender()->degraded());
  EXPECT_EQ(bed.server()->replication_sender()->acked_watermark(),
            bed.server()->replication_sender()->last_shipped());
  EXPECT_EQ(backup->replication_receiver()->last_applied(),
            bed.server()->replication_sender()->last_shipped());
  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

}  // namespace
}  // namespace rover
