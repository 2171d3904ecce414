// Tests for the observability layer (metrics registry + rpc tracing) and
// regression tests for the accounting bugs it surfaced: cancelled-byte
// accounting in the scheduler, corrupt duplicate-cache entries at the qrpc
// server, double-charged overlapping stable-log flushes, and stale loss
// backoff carried across a reconnection.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/toolkit.h"
#include "src/obs/metrics.h"
#include "src/obs/rpc_trace.h"
#include "src/qrpc/qrpc.h"
#include "src/qrpc/stable_log.h"
#include "src/sim/network.h"
#include "src/transport/transport.h"

namespace rover {
namespace {

TimePoint At(double seconds) { return TimePoint::Epoch() + Duration::Seconds(seconds); }

// --- registry unit tests ---

// A toy component: a plain stats struct plus one histogram kept beside it.
struct ToyStats {
  uint64_t count = 0;
  uint64_t hits = 0;
  int64_t depth = 0;  // gauge
};

const obs::Schema<ToyStats> kToyMetrics("toy",
                                        {{"count", &ToyStats::count},
                                         {"hits", &ToyStats::hits},
                                         {"depth", &ToyStats::depth}},
                                        {"lat"});

TEST(MetricsRegistryTest, CounterReadsTheBoundStructLive) {
  obs::Registry reg;
  ToyStats stats;
  obs::Histogram lat;
  obs::Binding binding = reg.Bind(kToyMetrics, &stats, {&lat});
  ++stats.hits;
  stats.hits += 4;
  EXPECT_EQ(reg.CounterValue("toy.hits"), 5u);  // no copy: the struct is read
  EXPECT_EQ(reg.CounterValue("missing"), 0u);
  EXPECT_EQ(reg.CounterValue("toy.depth"), 0u);  // a gauge is not a counter
  EXPECT_EQ(reg.FindHistogram("missing"), nullptr);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  obs::Registry reg;
  ToyStats stats;
  obs::Histogram lat;
  obs::Binding binding = reg.Bind(kToyMetrics, &stats, {&lat});
  stats.depth = 10;
  stats.depth += -3;
  EXPECT_EQ(reg.GaugeValue("toy.depth"), 7);
  EXPECT_EQ(reg.GaugeValue("missing"), 0);
}

TEST(MetricsRegistryTest, HistogramBuckets) {
  obs::Registry reg;
  ToyStats stats;
  obs::Histogram lat({0.001, 0.01, 0.1});
  obs::Binding binding = reg.Bind(kToyMetrics, &stats, {&lat});
  lat.Observe(0.0005);  // bucket 0
  lat.Observe(0.05);    // bucket 2
  lat.Observe(5.0);     // overflow
  const obs::Histogram* h = reg.FindHistogram("toy.lat");
  ASSERT_EQ(h, &lat);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->max(), 5.0);
  ASSERT_EQ(h->bucket_counts().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h->bucket_counts()[0], 1u);
  EXPECT_EQ(h->bucket_counts()[2], 1u);
  EXPECT_EQ(h->bucket_counts()[3], 1u);
}

TEST(MetricsRegistryTest, RenderTextAndJson) {
  obs::Registry reg;
  ToyStats stats;
  obs::Histogram lat({0.5});
  obs::Binding binding = reg.Bind(kToyMetrics, &stats, {&lat});
  stats.count = 2;
  stats.depth = 1;
  lat.Observe(0.25);
  // Deterministic: counters, gauges, histograms, each sorted by name.
  EXPECT_EQ(reg.Render(obs::RenderFormat::kText),
            "toy.count 2\n"
            "toy.hits 0\n"
            "toy.depth 1\n"
            "toy.lat count=1 sum=0.25 max=0.25\n");
  EXPECT_EQ(reg.Render(obs::RenderFormat::kJson),
            "{\"counters\":{\"toy.count\":2,\"toy.hits\":0},"
            "\"gauges\":{\"toy.depth\":1},"
            "\"histograms\":{\"toy.lat\":{\"count\":1,\"sum\":0.25,\"max\":0.25,"
            "\"buckets\":[{\"le\":0.5,\"count\":1},{\"le\":\"inf\",\"count\":0}]}}}");
}

TEST(MetricsRegistryTest, UnbindKeepsCountsForTheNextBinding) {
  obs::Registry reg;
  {
    ToyStats first;
    obs::Histogram lat;
    obs::Binding binding = reg.Bind(kToyMetrics, &first, {&lat});
    first.hits = 3;
    first.depth = 9;
    lat.Observe(0.1);
  }
  // The struct is gone; its final counts are not.
  EXPECT_EQ(reg.CounterValue("toy.hits"), 3u);
  EXPECT_EQ(reg.GaugeValue("toy.depth"), 0);  // gauges describe the live struct
  ASSERT_NE(reg.FindHistogram("toy.lat"), nullptr);
  EXPECT_EQ(reg.FindHistogram("toy.lat")->count(), 1u);

  ToyStats second;
  obs::Histogram lat;
  obs::Binding binding = reg.Bind(kToyMetrics, &second, {&lat});
  EXPECT_EQ(second.hits, 3u);  // added into the new struct as it binds
  EXPECT_EQ(lat.count(), 1u);
  ++second.hits;
  EXPECT_EQ(reg.CounterValue("toy.hits"), 4u);
  EXPECT_EQ(reg.FindHistogram("toy.lat"), &lat);
}

TEST(RpcTracerTest, RecordsOrderedEventsAndEvicts) {
  obs::RpcTracer tracer(/*max_spans=*/2);
  tracer.Record(1, obs::RpcEvent::kEnqueued, At(0.0));
  tracer.Record(1, obs::RpcEvent::kTransmitted, At(1.0));
  tracer.Record(1, obs::RpcEvent::kTransmitted, At(2.0));
  tracer.Record(1, obs::RpcEvent::kResponded, At(3.0));
  ASSERT_NE(tracer.Find(1), nullptr);
  EXPECT_EQ(tracer.Find(1)->CountOf(obs::RpcEvent::kTransmitted), 2u);
  EXPECT_EQ(tracer.Find(1)->FirstTime(obs::RpcEvent::kTransmitted), At(1.0));
  tracer.Record(2, obs::RpcEvent::kEnqueued, At(4.0));
  tracer.Record(3, obs::RpcEvent::kEnqueued, At(5.0));  // evicts span 1
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.Find(1), nullptr);
  EXPECT_NE(tracer.Find(3), nullptr);
}

// --- satellite 1: cancelled messages must not count as sent payload ---

TEST(SchedulerAccountingTest, CancelledBytesNotCountedAsSent) {
  EventLoop loop;
  Network net(&loop);
  // Link permanently down: the message can never be transmitted.
  net.Connect("mobile", "server", LinkProfile::WaveLan2(),
              std::make_unique<ConstantConnectivity>(false));
  TransportManager tm(&loop, net.FindHost("mobile"));

  Message msg;
  msg.header.message_id = 7;
  msg.header.type = MessageType::kRequest;
  msg.header.dst = "server";
  msg.payload = Bytes(300, 0xab);  // incompressible-ish small payload
  const size_t queued_payload = [&] {
    tm.Send(msg);
    return tm.scheduler()->QueueDepthFor("server");
  }();
  EXPECT_EQ(queued_payload, 1u);

  ASSERT_TRUE(tm.scheduler()->CancelMessage("server", 7));
  loop.Run();

  const SchedulerStats stats = tm.scheduler()->stats();
  EXPECT_EQ(stats.messages_enqueued, 1u);
  EXPECT_EQ(stats.payload_bytes_sent, 0u) << "cancelled payload was charged as sent";
  EXPECT_GT(stats.payload_bytes_cancelled, 0u);
  EXPECT_EQ(stats.messages_delivered, 0u);
}

TEST(SchedulerAccountingTest, DeliveredBytesCountedOnceOnSuccess) {
  EventLoop loop;
  Network net(&loop);
  net.Connect("mobile", "server", LinkProfile::Ethernet10());
  TransportManager tm(&loop, net.FindHost("mobile"));

  Message msg;
  msg.header.type = MessageType::kRequest;
  msg.header.message_id = 1;
  msg.header.dst = "server";
  msg.payload = Bytes(200, 0x5c);
  tm.Send(msg);
  loop.Run();

  const SchedulerStats stats = tm.scheduler()->stats();
  EXPECT_EQ(stats.messages_delivered, 1u);
  // Compression may shrink the payload; sent bytes equal the wire payload,
  // never zero and never double-counted.
  EXPECT_GT(stats.payload_bytes_sent, 0u);
  EXPECT_LE(stats.payload_bytes_sent, stats.payload_bytes_original);
  EXPECT_EQ(stats.payload_bytes_cancelled, 0u);
}

// --- satellite 3: overlapping serial flushes must not double-charge ---

TEST(StableLogOverlapTest, OverlappingFlushChargesOnlyRemainder) {
  EventLoop loop;
  StableLog log(&loop);  // serial mode
  log.Append(Bytes(100, 1));
  log.Flush(nullptr);  // write 1 in flight (100 + 16 framing bytes)
  log.Append(Bytes(50, 2));
  log.Flush(nullptr);  // must cover only record 2 (50 + 16 bytes)
  loop.Run();
  const StableLogStats stats = log.stats();
  EXPECT_EQ(stats.flushes, 2u);
  EXPECT_EQ(stats.bytes_flushed, (100u + 16u) + (50u + 16u))
      << "overlapping flush re-wrote bytes already in flight";
  EXPECT_TRUE(log.FullyDurable());
}

TEST(StableLogOverlapTest, RedundantFlushWritesNothingButWaitsForDurability) {
  EventLoop loop;
  StableLog log(&loop);
  log.Append(Bytes(100, 1));
  TimePoint first_done;
  TimePoint second_done;
  log.Flush([&](const Status&) { first_done = loop.now(); });
  // No new appends: this flush has nothing to write, but its completion
  // still represents "everything so far is durable".
  log.Flush([&](const Status&) { second_done = loop.now(); });
  loop.Run();
  EXPECT_EQ(log.stats().flushes, 1u) << "redundant flush issued a device write";
  EXPECT_GE(second_done, first_done);
  EXPECT_TRUE(log.FullyDurable());
}

// --- satellite 2: corrupt duplicate-cache entries answered honestly ---

class DuplicateCacheTest : public ::testing::Test {
 protected:
  DuplicateCacheTest() : net_(&loop_) {
    net_.Connect("mobile", "server", LinkProfile::Ethernet10());
    client_tm_ = std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"));
    server_tm_ = std::make_unique<TransportManager>(&loop_, net_.FindHost("server"));
    log_ = std::make_unique<StableLog>(&loop_);
    client_ = std::make_unique<QrpcClient>(&loop_, client_tm_.get(), log_.get());
    server_ = std::make_unique<QrpcServer>(&loop_, server_tm_.get());
    server_->RegisterHandler(
        "count", [this](const RpcRequestBody&, const Message&, QrpcServer::Responder respond) {
          ++executions_;
          RpcResponseBody body;
          body.result = int64_t{executions_};
          respond(body);
        });
  }

  void ResendRequest(uint64_t rpc_id) {
    Message dup;
    dup.header.message_id = rpc_id;
    dup.header.type = MessageType::kRequest;
    dup.header.dst = "server";
    RpcRequestBody body;
    body.method = "count";
    dup.payload = body.Encode();
    client_tm_->Send(std::move(dup));
  }

  EventLoop loop_;
  Network net_;
  std::unique_ptr<TransportManager> client_tm_;
  std::unique_ptr<TransportManager> server_tm_;
  std::unique_ptr<StableLog> log_;
  std::unique_ptr<QrpcClient> client_;
  std::unique_ptr<QrpcServer> server_;
  int64_t executions_ = 0;
};

TEST_F(DuplicateCacheTest, CorruptEntryAnswersDataLossNotSilentOk) {
  QrpcCall call = client_->Call("server", "count", {});
  ASSERT_TRUE(call.result.Wait(&loop_));
  ASSERT_EQ(executions_, 1);

  ASSERT_TRUE(server_->CorruptCachedResponseForTest("mobile", call.rpc_id));

  // A crash-recovery resend of the same rpc hits the corrupt cache entry.
  ResendRequest(call.rpc_id);
  // The client no longer tracks the call, so observe the raw response.
  Promise<RpcResponseBody> reply;
  client_tm_->SetHandler(MessageType::kResponse, [&](const Message& msg) {
    auto decoded = RpcResponseBody::Decode(msg.payload);
    ASSERT_TRUE(decoded.ok());
    reply.Set(*decoded);
  });
  ASSERT_TRUE(reply.Wait(&loop_));

  EXPECT_EQ(reply.value().code, StatusCode::kDataLoss)
      << "corrupt cache entry produced a fabricated OK response";
  EXPECT_EQ(executions_, 1) << "at-most-once violated";
  EXPECT_EQ(server_->stats().duplicate_cache_decode_failures, 1u);
  EXPECT_EQ(server_->stats().duplicates, 1u);
}

TEST_F(DuplicateCacheTest, IntactEntryStillReplaysCachedResponse) {
  QrpcCall call = client_->Call("server", "count", {});
  ASSERT_TRUE(call.result.Wait(&loop_));

  ResendRequest(call.rpc_id);
  Promise<RpcResponseBody> reply;
  client_tm_->SetHandler(MessageType::kResponse, [&](const Message& msg) {
    auto decoded = RpcResponseBody::Decode(msg.payload);
    ASSERT_TRUE(decoded.ok());
    reply.Set(*decoded);
  });
  ASSERT_TRUE(reply.Wait(&loop_));
  EXPECT_EQ(reply.value().code, StatusCode::kOk);
  EXPECT_EQ(executions_, 1);
  EXPECT_EQ(server_->stats().duplicate_cache_decode_failures, 0u);
}

// --- satellite 4: loss backoff resets when connectivity returns ---

TEST(SchedulerBackoffTest, ReconnectionResetsLossBackoff) {
  EventLoop loop;
  Network net(&loop);
  LinkProfile lossy = LinkProfile::WaveLan2();
  lossy.loss_prob = 1.0;  // every frame lost deterministically
  // Up for 5s (accumulating loss backoff), down until t=60, then up again.
  std::vector<IntervalConnectivity::Interval> up = {
      {At(0), At(5)},
      {At(60), At(10000)},
  };
  Link* link = net.Connect("mobile", "server", lossy,
                           std::make_unique<IntervalConnectivity>(up));
  TransportManager tm(&loop, net.FindHost("mobile"));

  Message msg;
  msg.header.type = MessageType::kRequest;
  msg.header.message_id = 1;
  msg.header.dst = "server";
  msg.payload = Bytes(64, 1);
  tm.Send(msg);

  loop.RunFor(Duration::Seconds(60));
  const uint64_t attempts_before_reconnect = link->stats().frames_sent;
  loop.RunFor(Duration::Seconds(2));
  const uint64_t attempts_after = link->stats().frames_sent - attempts_before_reconnect;

  // With the backoff reset, retries restart at the base interval (200ms,
  // doubling), giving >= 3 attempts in the first two seconds after
  // reconnection. Carrying the pre-outage backoff (6+ losses => 12.8s)
  // would allow at most one.
  EXPECT_GE(attempts_after, 3u)
      << "stale pre-outage loss backoff survived the reconnection";
}

// --- tentpole acceptance: full span timeline across a link outage ---

TEST(RpcTraceTimelineTest, SpanCoversLifecycleAcrossOutage) {
  Testbed bed;
  // Link comes up only at t=30: the call is issued, logged, and flushed
  // while disconnected, transmitted after reconnection.
  RoverClientNode* client = bed.AddClient(
      "mobile", LinkProfile::WaveLan2(),
      std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                             At(30)));
  bed.server()->qrpc()->RegisterHandler(
      "echo", [](const RpcRequestBody& req, const Message&, QrpcServer::Responder respond) {
        RpcResponseBody body;
        body.result = req.args.empty() ? RpcValue(std::string("")) : req.args[0];
        respond(body);
      });

  QrpcCall call = client->qrpc()->Call("server", "echo", {std::string("hi")});
  ASSERT_TRUE(call.result.Wait(bed.loop()));
  ASSERT_TRUE(call.result.value().status.ok());

  const obs::RpcSpan* span = client->tracer()->Find(call.rpc_id);
  ASSERT_NE(span, nullptr);
  const std::vector<obs::RpcEvent> expected = {
      obs::RpcEvent::kEnqueued, obs::RpcEvent::kLogged, obs::RpcEvent::kFlushedDurable,
      obs::RpcEvent::kTransmitted, obs::RpcEvent::kResponded};
  EXPECT_EQ(client->tracer()->EventSequence(call.rpc_id), expected);

  // Commit happened while disconnected; transmission waited for the link.
  EXPECT_LT(span->FirstTime(obs::RpcEvent::kFlushedDurable).seconds(), 1.0);
  EXPECT_GE(span->FirstTime(obs::RpcEvent::kTransmitted).seconds(), 30.0);
  EXPECT_GT(span->FirstTime(obs::RpcEvent::kResponded).seconds(), 30.0);

  // The rendered trace mentions the full pipeline.
  const std::string rendered = client->tracer()->Render();
  EXPECT_NE(rendered.find("flushed_durable@"), std::string::npos);
  EXPECT_NE(rendered.find("transmitted@"), std::string::npos);
}

// --- tentpole acceptance: one registry covers every subsystem ---

void RegisterEcho(RoverServerNode* server) {
  server->qrpc()->RegisterHandler(
      "echo", [](const RpcRequestBody& req, const Message&, QrpcServer::Responder respond) {
        RpcResponseBody body;
        body.result = req.args.empty() ? RpcValue(std::string("")) : req.args[0];
        respond(body);
      });
}

TEST(UnifiedRegistryTest, NodeRegistryCoversAllSubsystems) {
  Testbed bed;
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Ethernet10());
  RegisterEcho(bed.server());
  QrpcCall call = client->qrpc()->Call("server", "echo", {std::string("x")});
  ASSERT_TRUE(call.result.Wait(bed.loop()));

  obs::Registry* reg = client->metrics();
  EXPECT_EQ(reg->CounterValue("scheduler.messages_delivered"), 1u);
  EXPECT_EQ(reg->CounterValue("qrpc_client.calls"), 1u);
  EXPECT_EQ(reg->CounterValue("qrpc_client.completed"), 1u);
  EXPECT_GE(reg->CounterValue("stable_log.flushes"), 1u);
  EXPECT_NE(reg->Render().find("access_manager.cache_hits 0\n"), std::string::npos);
  EXPECT_NE(reg->FindHistogram("qrpc_client.rpc_seconds"), nullptr);
  EXPECT_EQ(reg->FindHistogram("qrpc_client.rpc_seconds")->count(), 1u);

  const std::string text = reg->Render(obs::RenderFormat::kText);
  for (const char* prefix :
       {"scheduler.", "stable_log.", "qrpc_client.", "access_manager."}) {
    EXPECT_NE(text.find(prefix), std::string::npos) << "missing subsystem " << prefix;
  }
  EXPECT_NE(bed.server()->metrics()->Render().find("qrpc_server.requests"),
            std::string::npos);

  // stats() adapters agree with the registry.
  EXPECT_EQ(client->qrpc()->stats().completed,
            reg->CounterValue("qrpc_client.completed"));
  EXPECT_EQ(bed.server()->qrpc()->stats().requests,
            bed.server()->metrics()->CounterValue("qrpc_server.requests"));
}

// The registry folds a dying binding's counts into the next one, so node
// registries and stats() stay cumulative across crash-restarts.
TEST(UnifiedRegistryTest, CountsAccumulateAcrossCrashRestart) {
  Testbed bed;
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Ethernet10());
  RoverServerNode* server = bed.server();
  RegisterEcho(server);
  auto call_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      QrpcCall call = client->qrpc()->Call("server", "echo", {std::to_string(i)});
      ASSERT_TRUE(call.result.Wait(bed.loop()));
      ASSERT_TRUE(call.result.value().status.ok());
    }
  };
  constexpr uint64_t kBefore = 3;
  constexpr uint64_t kAfter = 2;
  call_n(kBefore);
  const obs::Registry* creg = client->metrics();
  const obs::Registry* sreg = server->metrics();
  ASSERT_EQ(creg->CounterValue("qrpc_client.calls"), kBefore);
  ASSERT_EQ(creg->CounterValue("scheduler.messages_enqueued"), kBefore);
  ASSERT_EQ(sreg->CounterValue("qrpc_server.requests"), kBefore);

  client->SimulateCrashAndRestart();
  server->SimulateCrashAndRestart();
  RegisterEcho(server);  // handlers are process state
  call_n(kAfter);

  EXPECT_EQ(creg->CounterValue("qrpc_client.calls"), kBefore + kAfter);
  EXPECT_EQ(creg->CounterValue("scheduler.messages_enqueued"), kBefore + kAfter);
  EXPECT_EQ(sreg->CounterValue("qrpc_server.requests"), kBefore + kAfter);
  ASSERT_NE(creg->FindHistogram("qrpc_client.rpc_seconds"), nullptr);
  EXPECT_EQ(creg->FindHistogram("qrpc_client.rpc_seconds")->count(), kBefore + kAfter);
  // The rebuilt components resumed their predecessors' totals.
  EXPECT_EQ(client->qrpc()->stats().calls, creg->CounterValue("qrpc_client.calls"));
  EXPECT_EQ(server->qrpc()->stats().requests, kBefore + kAfter);

  // A killed node keeps its final counts.
  server->Kill();
  EXPECT_EQ(sreg->CounterValue("qrpc_server.requests"), kBefore + kAfter);
}

// RoverServerStats, ServerStoreStats and the WAL device's stats reach the
// server node's registry, so obs_dump shows compactions and fail-stops.
TEST(UnifiedRegistryTest, ServerStoreStatsReachTheRegistry) {
  Testbed::Options topts;
  topts.server.stable_store.compact_after_records = 2;  // compact eagerly
  Testbed bed(topts);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Ethernet10());
  RoverServerNode* server = bed.server();
  RegisterEcho(server);
  for (int i = 0; i < 6; ++i) {
    QrpcCall call = client->qrpc()->Call("server", "echo", {std::to_string(i)});
    ASSERT_TRUE(call.result.Wait(bed.loop()));
  }
  bed.Run();

  const obs::Registry* reg = server->metrics();
  const ServerStoreStats& store = server->stable_store()->stats();
  EXPECT_GE(reg->CounterValue("server_store.snapshots_written"), 1u);
  EXPECT_EQ(reg->CounterValue("server_store.snapshots_written"), store.snapshots_written);
  EXPECT_EQ(reg->CounterValue("server_store.transactions_logged"), store.transactions_logged);
  EXPECT_EQ(reg->CounterValue("stable_device.writes_ok"),
            server->stable_store()->wal()->device()->stats().writes_ok);
  EXPECT_GT(reg->CounterValue("stable_device.writes_ok"), 0u);
  EXPECT_EQ(reg->CounterValue("rover_server.invokes"), server->rover()->stats().invokes);
}

using Names = std::vector<std::string>;

Names RenderedNames(const obs::Registry* reg) {
  Names names;
  const std::string text = reg->Render(obs::RenderFormat::kText);
  for (size_t line = 0; line < text.size(); line = text.find('\n', line) + 1) {
    names.push_back(text.substr(line, text.find(' ', line) - line));
  }
  std::sort(names.begin(), names.end());
  return names;
}

void AddNames(Names* names, const std::string& prefix,
              std::initializer_list<const char*> fields) {
  for (const char* f : fields) {
    names->push_back(prefix + "." + f);
  }
}

// Pins every metric name a client and a server node render, so a name
// renamed or lost in a refactor fails here rather than in a dashboard.
TEST(UnifiedRegistryTest, MetricNamesArePinned) {
  Testbed bed;
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Ethernet10());
  RegisterEcho(bed.server());
  QrpcCall call = client->qrpc()->Call("server", "echo", {std::string("x")});
  ASSERT_TRUE(call.result.Wait(bed.loop()));

  Names both;  // bound on client and server nodes alike
  AddNames(&both, "scheduler",
           {"breaker_open_transitions", "breakers_open", "bytes_sent", "enqueue_rejected",
            "frames_sent", "messages_delivered", "messages_enqueued", "messages_expired",
            "messages_shed", "payload_bytes_cancelled", "payload_bytes_original",
            "payload_bytes_sent", "queue_depth", "queued_payload_bytes", "retries",
            "retry_budget_waits"});
  AddNames(&both, "transport", {"frames_corrupt_dropped", "messages_undecodable"});
  // Created at the first scrub before the node struct held them.
  AddNames(&both, "storage_scrub", {"quarantined", "runs"});
  // New: the device under the client log and under the server WAL.
  AddNames(&both, "stable_device",
           {"bitrot_injected", "no_space_errors", "repairs", "sync_failures",
            "transient_errors", "writes_ok"});

  Names want_client = both;
  AddNames(&want_client, "access_manager",
           {"cache_hits", "cache_misses", "cache_overflow_bytes", "cache_overflow_events",
            "conflicts_resolved", "conflicts_unresolved", "degraded", "degraded_entered",
            "delta_bytes_saved", "delta_fallbacks", "delta_full", "delta_hits",
            "delta_not_modified", "evictions", "exports_completed", "imports_completed",
            "invalidations_received", "local_invokes", "poll_staleness_detected",
            "polls_sent", "prefetch_issued", "prefetches_shed", "remote_invokes",
            "server_restarts_observed", "storage_stale_marks"});
  AddNames(&want_client, "qrpc_client",
           {"admission_rejected", "background_shed", "calls", "cancelled", "coalesced",
            "completed", "deadline_exceeded", "failover_redispatches", "failovers",
            "log_bytes", "pushback_budget_exhausted", "pushback_honored", "recovered",
            "recovered_retries", "rpc_seconds", "storage_degraded", "storage_degraded_entered",
            "storage_flush_failures", "storage_quarantined_calls", "storage_refused"});
  AddNames(&want_client, "stable_log",
           {"appends", "bytes_flushed", "compression_ratio_pct", "device_used_bytes",
            "flush_enospc", "flush_failures", "flush_retries", "flush_seconds",
            "flush_sync_failures", "flush_time_micros", "flush_transient_errors", "flushes",
            "raw_bytes_appended", "records_compressed", "records_quarantined",
            "stored_bytes_appended", "torn_tail_records_dropped"});
  std::sort(want_client.begin(), want_client.end());
  EXPECT_EQ(RenderedNames(client->metrics()), want_client);

  Names want_server = both;
  AddNames(&want_server, "qrpc_server",
           {"auth_failures", "duplicate_cache_decode_failures", "duplicates",
            "inflight_requests", "requests", "requests_rejected", "requests_rejected_storage",
            "stale_requests_dropped", "unknown_methods"});
  // New: the server-side structs.
  AddNames(&want_server, "rover_server",
           {"delta_bytes_saved", "deltas_sent", "exports", "imports", "imports_not_modified",
            "invalidations_expired", "invalidations_sent", "invokes", "subscribers_dropped",
            "unsubscribes", "wal_compactions_forced", "wal_flush_failures",
            "wal_space_exhausted", "wal_space_recoveries"});
  // New: subscribers a commit skipped because they were already told.
  AddNames(&want_server, "rover_server", {"invalidations_suppressed"});
  AddNames(&want_server, "server_store",
           {"recoveries", "snapshot_client_records", "snapshots_written",
            "transactions_logged", "wal_interior_quarantined", "wal_records_dropped"});
  std::sort(want_server.begin(), want_server.end());
  EXPECT_EQ(RenderedNames(bed.server()->metrics()), want_server);
}

}  // namespace
}  // namespace rover
