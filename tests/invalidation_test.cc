// One-shot invalidation callbacks: the server invalidates each subscriber
// once, then not again until something re-arms it (an import or export
// served to that host, a rover.subscribe, a failed delivery). The client
// keeps every notice it was given -- across an import reply the notice
// overtook and across a client crash-restart -- so it makes the staleness
// decisions the old every-commit fan-out made.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/toolkit.h"

namespace rover {
namespace {

constexpr char kCounterCode[] = R"(
proc get {} { global state; return $state }
proc add {n} { global state; set state [expr {$state + $n}]; return $state }
)";

void CreateCounter(RoverServerNode* server, const std::string& name) {
  ASSERT_TRUE(server->rover()->CreateObject(MakeRdo(name, "lww", kCounterCode, "0")).ok());
}

Promise<InvokeResult> StartServerCommit(RoverClientNode* writer, const std::string& name) {
  InvokeOptions io;
  io.force_site = ExecutionSite::kServer;
  return writer->access()->Invoke(name, "add", {"1"}, io);
}

// Commits the next version of `name` at its home server on behalf of
// `writer`, then lets every invalidation land.
void ServerCommit(Testbed* bed, RoverClientNode* writer, const std::string& name) {
  auto inv = StartServerCommit(writer, name);
  ASSERT_TRUE(inv.Wait(bed->loop()));
  ASSERT_TRUE(inv.value().status.ok()) << inv.value().status;
  bed->Run();
}

void Subscribe(Testbed* bed, RoverClientNode* client, const std::string& name) {
  QrpcCall call = client->qrpc()->Call("server", "rover.subscribe", {name});
  ASSERT_TRUE(call.result.Wait(bed->loop()));
  ASSERT_TRUE(call.result.value().status.ok());
  bed->Run();
}

ImportResult ImportNow(Testbed* bed, RoverClientNode* client, const std::string& name) {
  auto p = client->access()->Import(name);
  EXPECT_TRUE(p.Wait(bed->loop()));
  EXPECT_TRUE(p.value().status.ok()) << p.value().status;
  bed->Run();
  return p.value();
}

ClientNodeOptions Subscribing() {
  ClientNodeOptions options;
  options.access.subscribe_on_import = true;
  return options;
}

TEST(OneShotInvalidationTest, CommitsWithoutRefetchInvalidateEachSubscriberOnce) {
  Testbed bed;
  CreateCounter(bed.server(), "counter");
  RoverClientNode* a = bed.AddClient("a", LinkProfile::WaveLan2(), nullptr, Subscribing());
  RoverClientNode* b = bed.AddClient("b", LinkProfile::WaveLan2(), nullptr, Subscribing());
  RoverClientNode* c = bed.AddClient("c", LinkProfile::Ethernet10());
  ImportNow(&bed, a, "counter");
  ImportNow(&bed, b, "counter");
  ASSERT_EQ(bed.server()->rover()->SubscriberCount("counter"), 2u);

  ServerCommit(&bed, c, "counter");  // version 2: both told
  ServerCommit(&bed, c, "counter");  // version 3: both already stale
  ServerCommit(&bed, c, "counter");  // version 4: likewise

  const RoverServerStats& stats = bed.server()->rover()->stats();
  EXPECT_EQ(stats.invalidations_sent, 2u);
  EXPECT_EQ(stats.invalidations_suppressed, 4u);
  EXPECT_EQ(a->access()->stats().invalidations_received, 1u);
  EXPECT_EQ(b->access()->stats().invalidations_received, 1u);
  EXPECT_EQ(bed.server()->rover()->SubscriberCount("counter"), 2u);
  // The one notice was enough: each copy stayed stale and refetches the
  // newest version.
  for (RoverClientNode* client : {a, b}) {
    const ImportResult r = ImportNow(&bed, client, "counter");
    EXPECT_FALSE(r.from_cache);
    EXPECT_EQ(r.version, 4u);
  }
}

TEST(OneShotInvalidationTest, ImportRearms) {
  Testbed bed;
  CreateCounter(bed.server(), "counter");
  RoverClientNode* a = bed.AddClient("a", LinkProfile::WaveLan2());
  RoverClientNode* c = bed.AddClient("c", LinkProfile::Ethernet10());
  // Subscribed by hand, so no rover.subscribe follows a's imports.
  ImportNow(&bed, a, "counter");
  Subscribe(&bed, a, "counter");

  ServerCommit(&bed, c, "counter");
  ServerCommit(&bed, c, "counter");
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_sent, 1u);
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_suppressed, 1u);

  const ImportResult refetch = ImportNow(&bed, a, "counter");
  EXPECT_FALSE(refetch.from_cache);
  EXPECT_EQ(refetch.version, 3u);
  ServerCommit(&bed, c, "counter");
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_sent, 2u);
  EXPECT_EQ(a->access()->stats().invalidations_received, 2u);
  EXPECT_FALSE(ImportNow(&bed, a, "counter").from_cache);
}

TEST(OneShotInvalidationTest, ExportRearms) {
  Testbed bed;
  CreateCounter(bed.server(), "counter");
  RoverClientNode* a = bed.AddClient("a", LinkProfile::WaveLan2(), nullptr, Subscribing());
  RoverClientNode* c = bed.AddClient("c", LinkProfile::Ethernet10());
  ImportNow(&bed, a, "counter");
  ServerCommit(&bed, c, "counter");  // a told of version 2
  ASSERT_EQ(a->access()->stats().invalidations_received, 1u);

  // a commits its own change (lww resolves it against version 2). The
  // export reply re-arms a; no import or subscribe is involved.
  InvokeOptions local;
  local.force_site = ExecutionSite::kClient;
  ASSERT_TRUE(a->access()->Invoke("counter", "add", {"5"}, local).Wait(bed.loop()));
  auto exp = a->access()->Export("counter");
  ASSERT_TRUE(exp.Wait(bed.loop()));
  ASSERT_TRUE(exp.value().status.ok()) << exp.value().status;
  EXPECT_EQ(exp.value().new_version, 3u);
  bed.Run();
  ASSERT_EQ(bed.server()->rover()->stats().invalidations_sent, 1u);  // a exported v3

  ServerCommit(&bed, c, "counter");
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_sent, 2u);
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_suppressed, 0u);
  EXPECT_EQ(a->access()->stats().invalidations_received, 2u);
}

TEST(OneShotInvalidationTest, SubscribeRearms) {
  Testbed bed;
  CreateCounter(bed.server(), "counter");
  RoverClientNode* a = bed.AddClient("a", LinkProfile::WaveLan2());
  RoverClientNode* c = bed.AddClient("c", LinkProfile::Ethernet10());
  ImportNow(&bed, a, "counter");
  Subscribe(&bed, a, "counter");
  ServerCommit(&bed, c, "counter");
  ServerCommit(&bed, c, "counter");
  ASSERT_EQ(bed.server()->rover()->stats().invalidations_sent, 1u);

  Subscribe(&bed, a, "counter");
  ServerCommit(&bed, c, "counter");
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_sent, 2u);
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_suppressed, 1u);
  EXPECT_EQ(a->access()->stats().invalidations_received, 2u);
}

TEST(OneShotInvalidationTest, ExpiredInvalidationRearms) {
  Testbed::Options topts;
  topts.server.rover.invalidation_ttl = Duration::Seconds(5);
  Testbed bed(topts);
  CreateCounter(bed.server(), "counter");
  // alice is reachable for the first 10 s and again from 30 s on.
  std::vector<IntervalConnectivity::Interval> up = {
      {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Seconds(10)},
      {TimePoint::Epoch() + Duration::Seconds(30), TimePoint::FromMicros(INT64_MAX)}};
  RoverClientNode* a = bed.AddClient("alice", LinkProfile::WaveLan2(),
                                     std::make_unique<IntervalConnectivity>(up), Subscribing());
  RoverClientNode* c = bed.AddClient("carol", LinkProfile::Ethernet10());
  auto imp = a->access()->Import("counter");
  ASSERT_TRUE(imp.Wait(bed.loop()));
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(10));
  ASSERT_EQ(bed.server()->rover()->SubscriberCount("counter"), 1u);

  // The notice of version 2 expires in the server's queue: alice never got
  // it, so alice is armed again.
  auto i1 = StartServerCommit(c, "counter");
  ASSERT_TRUE(i1.Wait(bed.loop()));
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(31));
  ASSERT_EQ(bed.server()->rover()->stats().invalidations_expired, 1u);
  EXPECT_EQ(a->access()->stats().invalidations_received, 0u);

  ServerCommit(&bed, c, "counter");  // version 3, alice reachable
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_sent, 2u);
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_suppressed, 0u);
  EXPECT_EQ(a->access()->stats().invalidations_received, 1u);
  const ImportResult r = ImportNow(&bed, a, "counter");
  EXPECT_FALSE(r.from_cache);
  EXPECT_EQ(r.version, 3u);
}

// Records when the server last ran a handler for each client.
class ExecuteTimes : public obs::CheckListener {
 public:
  explicit ExecuteTimes(EventLoop* loop) : loop_(loop) {}
  void OnServerExecute(const std::string& server, const std::string& client,
                       uint64_t rpc_id) override {
    last[client] = loop_->now();
  }
  std::map<std::string, TimePoint> last;

 private:
  EventLoop* loop_;
};

// A commit's notices leave in a flush event the commit schedules for the same
// instant, so another host's import can be served in between. That host
// already holds the committed version: the flush must leave it armed.
TEST(OneShotInvalidationTest, ImportServedBeforeTheCommitsFlushStaysArmed) {
  Testbed bed;
  ExecuteTimes executed(bed.loop());
  bed.SetCheckListener(&executed);
  CreateCounter(bed.server(), "counter");
  RoverClientNode* a = bed.AddClient("a", LinkProfile::Ethernet10());
  RoverClientNode* c = bed.AddClient("c", LinkProfile::Ethernet10());
  // Subscribed by hand, so no rover.subscribe follows a's imports.
  ImportNow(&bed, a, "counter");
  Subscribe(&bed, a, "counter");

  // Measure how long c's commit and a's refetch of a stale copy take to
  // reach the server's handler.
  TimePoint start = bed.loop()->now();
  ServerCommit(&bed, c, "counter");  // version 2: a told
  const Duration commit_delay = executed.last["c"] - start;
  start = bed.loop()->now();
  ASSERT_EQ(ImportNow(&bed, a, "counter").version, 2u);
  const Duration import_delay = executed.last["a"] - start;
  ASSERT_GE(commit_delay, import_delay);
  ServerCommit(&bed, c, "counter");  // version 3: a told
  ASSERT_EQ(bed.server()->rover()->stats().invalidations_sent, 2u);

  // c's commit of version 4 and a's refetch reach the handler at one
  // instant, the commit first.
  start = bed.loop()->now();
  auto commit = StartServerCommit(c, "counter");
  Promise<ImportResult> refetch;
  bed.loop()->ScheduleAfter(commit_delay - import_delay,
                            [&] { refetch = a->access()->Import("counter"); });
  ASSERT_TRUE(commit.Wait(bed.loop()));
  bed.Run();
  ASSERT_EQ(executed.last["c"], executed.last["a"]);
  ASSERT_TRUE(refetch.value().status.ok());
  ASSERT_EQ(refetch.value().version, 4u) << "the import was served before the commit";
  // a was served version 4 before the flush ran: no notice for it.
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_sent, 2u);
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_suppressed, 1u);

  ServerCommit(&bed, c, "counter");  // version 5: a must be told
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_sent, 3u);
  EXPECT_EQ(a->access()->stats().invalidations_received, 3u);
  const ImportResult r = ImportNow(&bed, a, "counter");
  EXPECT_FALSE(r.from_cache);
  EXPECT_EQ(r.version, 5u);
}

// A slow journal holds every response ~200 ms after its handler ran, while
// invalidations leave at once: a commit landing just after a's import was
// served sends its notice ahead of the import reply.
Testbed::Options SlowJournal() {
  Testbed::Options topts;
  topts.server.stable_store.wal_costs = {Duration::Millis(200), 2e6, /*group_commit=*/true};
  return topts;
}

TEST(OneShotInvalidationTest, InvalidationOvertakingImportReplyLeavesEntryStale) {
  Testbed bed(SlowJournal());
  CreateCounter(bed.server(), "counter");
  RoverClientNode* a = bed.AddClient("a", LinkProfile::Ethernet10(), nullptr, Subscribing());
  RoverClientNode* c = bed.AddClient("c", LinkProfile::Ethernet10());
  ImportNow(&bed, a, "counter");
  ServerCommit(&bed, c, "counter");  // a told of version 2
  ASSERT_EQ(a->access()->stats().invalidations_received, 1u);

  // a refetches (re-arming itself at the server); c commits version 3
  // while a's reply, carrying version 2, waits for the journal.
  uint64_t received_at_reply = 0;
  auto refetch = a->access()->Import("counter");
  refetch.OnReady([&](const ImportResult&) {
    received_at_reply = a->access()->stats().invalidations_received;
  });
  Promise<InvokeResult> commit;
  bed.loop()->ScheduleAfter(Duration::Millis(20),
                            [&] { commit = StartServerCommit(c, "counter"); });
  ASSERT_TRUE(refetch.Wait(bed.loop()));
  bed.Run();
  ASSERT_EQ(received_at_reply, 2u) << "the notice of version 3 did not overtake the reply";
  ASSERT_TRUE(refetch.value().status.ok());
  EXPECT_EQ(refetch.value().version, 2u);

  // The overtaken reply did not clear the notice: version 2 stays stale.
  const ImportResult r = ImportNow(&bed, a, "counter");
  EXPECT_FALSE(r.from_cache);
  EXPECT_EQ(r.version, 3u);
}

TEST(OneShotInvalidationTest, InvalidationOvertakingFirstImportReplyLeavesEntryStale) {
  Testbed bed(SlowJournal());
  CreateCounter(bed.server(), "counter");
  RoverClientNode* a = bed.AddClient("a", LinkProfile::Ethernet10());
  RoverClientNode* c = bed.AddClient("c", LinkProfile::Ethernet10());
  // Subscribed before a holds any copy: the notice arrives while the first
  // import is in flight and there is no entry yet to record it on.
  Subscribe(&bed, a, "counter");
  uint64_t received_at_reply = 0;
  auto first = a->access()->Import("counter");
  first.OnReady([&](const ImportResult&) {
    received_at_reply = a->access()->stats().invalidations_received;
  });
  Promise<InvokeResult> commit;
  bed.loop()->ScheduleAfter(Duration::Millis(20),
                            [&] { commit = StartServerCommit(c, "counter"); });
  ASSERT_TRUE(first.Wait(bed.loop()));
  bed.Run();
  ASSERT_EQ(received_at_reply, 1u) << "the notice of version 2 did not overtake the reply";
  EXPECT_EQ(first.value().version, 1u);

  const ImportResult r = ImportNow(&bed, a, "counter");
  EXPECT_FALSE(r.from_cache);
  EXPECT_EQ(r.version, 2u);
}

TEST(OneShotInvalidationTest, ServerRestartForgetsVersionsItsOldIncarnationNamed) {
  Testbed bed(SlowJournal());
  CreateCounter(bed.server(), "counter");
  RoverClientNode* a = bed.AddClient("a", LinkProfile::Ethernet10(), nullptr, Subscribing());
  RoverClientNode* c = bed.AddClient("c", LinkProfile::Ethernet10());
  ImportNow(&bed, a, "counter");

  // Version 2 is announced to a at once, but the server crashes before its
  // journal write completes, so the restart recovers version 1.
  auto lost = StartServerCommit(c, "counter");
  bed.loop()->RunFor(Duration::Millis(50));
  ASSERT_EQ(a->access()->stats().invalidations_received, 1u);
  bed.server()->SimulateCrashAndRestart(false);
  ASSERT_EQ(*bed.server()->store()->VersionOf("counter"), 1u);
  bed.Run();

  // The restart re-validates a's copy against the recovered version 1; the
  // lost version 2 must not keep that copy stale afterwards.
  const ImportResult revalidated = ImportNow(&bed, a, "counter");
  EXPECT_FALSE(revalidated.from_cache);
  EXPECT_EQ(revalidated.version, 1u);
  EXPECT_EQ(a->access()->stats().server_restarts_observed, 1u);
  EXPECT_TRUE(ImportNow(&bed, a, "counter").from_cache);
}

TEST(OneShotInvalidationTest, ClientCrashRestartKeepsStalenessAndSubscriptions) {
  Testbed bed;
  CreateCounter(bed.server(), "counter");
  CreateCounter(bed.server(), "other");
  RoverClientNode* a = bed.AddClient("a", LinkProfile::WaveLan2(), nullptr, Subscribing());
  RoverClientNode* c = bed.AddClient("c", LinkProfile::Ethernet10());
  ImportNow(&bed, a, "counter");
  ImportNow(&bed, a, "other");
  ServerCommit(&bed, c, "counter");  // a told of version 2
  ASSERT_EQ(a->access()->stats().invalidations_received, 1u);

  a->SimulateCrashAndRestart();
  bed.Run();

  // The subscription survived: evicting withdraws it at the server.
  a->access()->Evict("other");
  bed.Run();
  EXPECT_EQ(bed.server()->rover()->stats().unsubscribes, 1u);
  EXPECT_EQ(bed.server()->rover()->SubscriberCount("other"), 0u);

  // The notice survived: the server will not repeat it, and the restarted
  // client does not serve version 1 as fresh.
  ServerCommit(&bed, c, "counter");
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_suppressed, 1u);
  const ImportResult r = ImportNow(&bed, a, "counter");
  EXPECT_FALSE(r.from_cache);
  EXPECT_EQ(r.version, 3u);
}

TEST(OneShotInvalidationTest, InvalidationMatchesPathAndUrnKeys) {
  Testbed bed;  // default server: "server"
  RoverServerNode* archive = bed.AddServer("archive");
  CreateCounter(bed.server(), "counter");
  CreateCounter(archive, "counter");
  // Literal paths on the default server that look like URNs: a malformed
  // one is also a valid cache key for that object; a well-formed one is not
  // (that key names the archive's object).
  CreateCounter(bed.server(), "rover://odd");
  CreateCounter(bed.server(), "rover://archive/counter");
  RoverClientNode* a = bed.AddClient("a", LinkProfile::WaveLan2(), nullptr, Subscribing());
  RoverClientNode* c = bed.AddClient("c", LinkProfile::Ethernet10());
  bed.AddLink("a", "archive", LinkProfile::Ethernet10());
  bed.AddLink("c", "archive", LinkProfile::Ethernet10());
  const std::vector<std::string> keys = {"counter", "rover://server/counter",
                                         "rover://archive/counter", "rover://odd"};
  for (const std::string& key : keys) {
    ImportNow(&bed, a, key);
  }
  auto cached = [&](const std::string& key) { return ImportNow(&bed, a, key).from_cache; };

  // A commit at the default server reaches both keys naming its object.
  ServerCommit(&bed, c, "counter");
  EXPECT_TRUE(cached("rover://archive/counter"));
  EXPECT_TRUE(cached("rover://odd"));
  EXPECT_FALSE(cached("counter"));
  EXPECT_FALSE(cached("rover://server/counter"));

  // A commit at the archive reaches only its URN.
  ServerCommit(&bed, c, "rover://archive/counter");
  EXPECT_FALSE(cached("rover://archive/counter"));
  EXPECT_TRUE(cached("counter"));

  ServerCommit(&bed, c, "rover://odd");
  EXPECT_FALSE(cached("rover://odd"));
  EXPECT_TRUE(cached("rover://server/counter"));
  EXPECT_TRUE(cached("rover://archive/counter"));

  // The default server's own "rover://archive/counter" moves past the
  // archive object's version 2. Only a subscription by path can ask to hear
  // of it, and no cache key names it.
  auto commit_literal = [&] {
    QrpcCall commit = c->qrpc()->Call(
        "server", "rover.invoke",
        {std::string("rover://archive/counter"), std::string("add"), std::string("1")});
    ASSERT_TRUE(commit.result.Wait(bed.loop()));
    ASSERT_TRUE(commit.result.value().status.ok());
    bed.Run();
  };
  commit_literal();
  commit_literal();
  Subscribe(&bed, a, "rover://archive/counter");
  commit_literal();  // version 4
  EXPECT_EQ(a->access()->stats().invalidations_received, 4u);
  EXPECT_TRUE(cached("rover://archive/counter"));
  EXPECT_TRUE(cached("counter"));
}

}  // namespace
}  // namespace rover
