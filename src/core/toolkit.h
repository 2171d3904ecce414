// Toolkit facades. RoverClientNode and RoverServerNode bundle the pieces a
// Rover endpoint needs (transport manager, stable log, QRPC engine, access
// manager / object store), and Testbed assembles a complete simulated
// deployment -- one home server plus any number of mobile clients over
// configurable links -- in a few lines. Examples, tests, and every bench
// harness build on Testbed.

#ifndef ROVER_SRC_CORE_TOOLKIT_H_
#define ROVER_SRC_CORE_TOOLKIT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/access_manager.h"
#include "src/obs/metrics.h"
#include "src/obs/rpc_trace.h"
#include "src/qrpc/qrpc.h"
#include "src/qrpc/stable_log.h"
#include "src/sim/network.h"
#include "src/store/replication.h"
#include "src/store/server.h"
#include "src/transport/smtp.h"
#include "src/transport/transport.h"

namespace rover {

struct ClientNodeOptions {
  SchedulerOptions scheduler;
  StableLogCostModel log_costs;
  // Fault schedule for the stable-log device (healthy by default).
  DiskFaultOptions disk_faults;
  QrpcClientOptions qrpc;
  AccessManagerOptions access;
  std::string auth_token;  // stamped on every outbound message
  // Non-zero: proactively CRC-sweep the stable log every interval, so latent
  // bit rot is quarantined (and surfaced) before the next crash recovery
  // trips over it. The periodic timer keeps the event loop non-quiescent --
  // drive simulations that enable it with RunFor, not Run.
  Duration scrub_interval = Duration::Zero();
};

// Node-level storage counters; each component's own live in its stats().
struct NodeStorageStats {
  uint64_t scrub_runs = 0;         // periodic scrubs run (scrub_interval)
  uint64_t scrub_quarantined = 0;  // records those scrubs quarantined
  uint64_t fail_stops = 0;         // see storage_fail_stops()
};

// A mobile host: access manager over QRPC over the network scheduler,
// with a stable operation log. Every subsystem's stats are bound into one
// node-wide metrics registry, and the QRPC client + scheduler share one
// per-RPC lifecycle tracer.
class RoverClientNode {
 public:
  RoverClientNode(EventLoop* loop, Host* host, ClientNodeOptions options = {});

  AccessManager* access() { return access_manager_.get(); }
  QrpcClient* qrpc() { return qrpc_client_.get(); }
  StableLog* log() { return log_.get(); }
  TransportManager* transport() { return transport_.get(); }
  const std::string& host_name() const { return transport_->local_host(); }

  // Simulated crash + reboot. Volatile state (unflushed log tail,
  // outstanding promises, scheduler queues, live RDO instances) vanishes;
  // stable state (durable log records, the cache snapshot, the rpc-id
  // counter) survives. The node is rebuilt and every durable logged
  // request re-sent. Returns the number of requests re-sent.
  size_t SimulateCrashAndRestart(bool tear_last_log_record = false);

  // Proactive CRC sweep over the durable log. Quarantined records' calls
  // fail with kDataLoss, the quarantine is reported to the checker, and the
  // cache conservatively re-validates everything. Returns quarantined count.
  size_t ScrubStorage();

  // Times the stable device reported a permanent sync failure and the node
  // fail-stopped (crash + disk replacement + restart) in response.
  uint64_t storage_fail_stops() const { return storage_.fail_stops; }

  // Live view over the stats of the scheduler, transport, stable log and
  // its device, qrpc client, access manager and the node's scrubs; render
  // with metrics()->Render(). Counters (and stats()) are cumulative across
  // crash-restarts: a rebuilt component resumes its predecessor's totals.
  obs::Registry* metrics() { return &metrics_; }
  obs::RpcTracer* tracer() { return &tracer_; }

  // Attaches an invariant checker to the qrpc client and access manager.
  // Survives SimulateCrashAndRestart (the rebuilt components are re-wired),
  // and the crash itself is reported via OnClientCrashed.
  void SetCheckListener(obs::CheckListener* listener);

 private:
  void Build();
  void OnStorageFailStop();
  void ArmScrubTimer();

  EventLoop* loop_;
  Host* host_;
  ClientNodeOptions options_;
  obs::CheckListener* check_ = nullptr;
  // Declared before the components so it outlives their bindings.
  obs::Registry metrics_;
  NodeStorageStats storage_;
  obs::Binding storage_binding_;
  obs::RpcTracer tracer_;
  // The stable log models the device itself, so it survives crashes; the
  // rest is process state, torn down and rebuilt by SimulateCrashAndRestart.
  std::unique_ptr<StableLog> log_;
  std::unique_ptr<TransportManager> transport_;
  std::unique_ptr<QrpcClient> qrpc_client_;
  std::unique_ptr<AccessManager> access_manager_;
};

struct ServerNodeOptions {
  SchedulerOptions scheduler;
  QrpcServerOptions qrpc;
  RoverServerOptions rover;
  ServerStoreOptions stable_store;
  // Journal object mutations + duplicate-cache responses to the stable
  // store (write-ahead, per-RPC atomic transactions). Off = the seed's
  // volatile server: a crash loses everything.
  bool durable = true;
  // Non-zero: proactively CRC-sweep the WAL every interval (see the client
  // counterpart). Keeps the event loop non-quiescent; use RunFor.
  Duration scrub_interval = Duration::Zero();
};

// A home server: object store + QRPC dispatch over a stable store.
class RoverServerNode {
 public:
  RoverServerNode(EventLoop* loop, Host* host, ServerNodeOptions options = {});

  RoverServer* rover() { return rover_server_.get(); }
  ObjectStore* store() { return rover_server_->store(); }
  QrpcServer* qrpc() { return qrpc_server_.get(); }
  TransportManager* transport() { return transport_.get(); }
  ServerStableStore* stable_store() { return &stable_store_; }

  // --- primary/backup replication ---
  // Makes this node the replication primary: every committed WAL transaction
  // ships to `backup_host`, and response release waits for the backup's ack
  // (up to `sync_timeout`; see ReplicationOptions). Requires durable = true.
  // Mutually exclusive with EnableReplicationBackup on the same node.
  // Survives SimulateCrashAndRestart.
  void EnableReplicationPrimary(const std::string& backup_host,
                                Duration sync_timeout = Duration::Seconds(5));
  // Makes this node the hot standby for `primary_host`: shipped transactions
  // are applied (and journaled, when durable) as they arrive, and a full
  // resync is requested on attach or after any sequence gap.
  void EnableReplicationBackup(const std::string& primary_host);
  ReplicationSender* replication_sender() { return repl_sender_.get(); }
  ReplicationReceiver* replication_receiver() { return repl_receiver_.get(); }

  // Fences the dead primary and takes over (see ReplicationReceiver::
  // Promote). Returns the new epoch, or 0 if this node is not a backup.
  uint64_t Promote();

  // Permanent fail-stop, the failover trigger: reports the crash, downs
  // every attached link for good, and tears the process down without
  // rebuilding it. Unlike SimulateCrashAndRestart the node never comes
  // back -- the backup owns the service from here on. Idempotent.
  void Kill();
  bool dead() const { return dead_; }

  // When set, a WAL fail-stop (permanent sync failure, exhausted response-
  // journal flush retries) Kill()s the node and invokes the handler instead
  // of crash-restarting in place -- the deployment-level failover path for
  // storage death. The handler typically promotes the backup and triggers
  // client failover.
  void SetFailStopFailoverHandler(std::function<void()> handler) {
    failstop_failover_handler_ = std::move(handler);
  }

  // Simulated crash + reboot. Volatile state (subscriptions, live RDO
  // instances, queued/in-flight responses, unflushed WAL tail) vanishes;
  // the stable store survives. Recovery bumps the server epoch (so clients
  // detect the restart), replays snapshot + WAL, and rebuilds the node.
  RecoveredServerState SimulateCrashAndRestart(bool tear_last_wal_record = false);

  // Proactive CRC sweep over the durable WAL (see RoverServer::
  // ScrubStableStore). Returns quarantined record count.
  size_t ScrubStorage();

  // Times the WAL device forced a fail-stop (permanent sync failure, or a
  // response-journal flush whose retries were exhausted) and the node
  // crash-restarted in response.
  uint64_t storage_fail_stops() const { return storage_.fail_stops; }

  // Live view over the stats of the scheduler, transport, qrpc server,
  // rover server, stable store and its WAL device, replication endpoint and
  // the node's scrubs. Counters (and stats()) are cumulative across
  // crash-restarts, and a killed node keeps its final counts.
  obs::Registry* metrics() { return &metrics_; }

  // Attaches an invariant checker to the qrpc server and rover server.
  // Survives SimulateCrashAndRestart; the crash is reported via
  // OnServerCrashed and recovery via OnServerRecovered.
  void SetCheckListener(obs::CheckListener* listener);

  const std::string& host_name() const { return transport_->local_host(); }

 private:
  void Build();
  void BuildReplication();
  void OnStorageFailStop();
  void ArmScrubTimer();
  // Schedules an async crash-restart of this incarnation (at most one in
  // flight); fired from WAL flush callbacks, which must not tear the server
  // down re-entrantly.
  void RequestWalFailStop();

  EventLoop* loop_;
  Host* host_;
  ServerNodeOptions options_;
  obs::CheckListener* check_ = nullptr;
  bool wal_failstop_pending_ = false;
  bool dead_ = false;
  // Replication role (at most one non-empty), re-applied on every rebuild.
  std::string repl_primary_peer_;  // set = this node ships to that backup
  std::string repl_backup_peer_;   // set = this node receives from that primary
  Duration repl_sync_timeout_ = Duration::Seconds(5);
  std::function<void()> failstop_failover_handler_;
  // Declared before the components so it outlives their bindings.
  obs::Registry metrics_;
  NodeStorageStats storage_;
  obs::Binding storage_binding_;
  // The stable store models the device itself, so it survives crashes.
  ServerStableStore stable_store_;
  std::unique_ptr<TransportManager> transport_;
  std::unique_ptr<QrpcServer> qrpc_server_;
  std::unique_ptr<RoverServer> rover_server_;
  std::unique_ptr<ReplicationSender> repl_sender_;
  std::unique_ptr<ReplicationReceiver> repl_receiver_;
};

// A complete simulated deployment.
class Testbed {
 public:
  struct Options {
    std::string server_name = "server";
    ServerNodeOptions server;
  };

  Testbed() : Testbed(Options()) {}
  explicit Testbed(Options options);

  EventLoop* loop() { return &loop_; }
  Network* network() { return &network_; }
  RoverServerNode* server() { return server_.get(); }

  // Adds another home server (objects name it via rover://<name>/<path>).
  RoverServerNode* AddServer(const std::string& name, ServerNodeOptions options = {});

  // Connects any two existing hosts directly (e.g. a client to a second
  // home server).
  Link* AddLink(const std::string& host_a, const std::string& host_b, LinkProfile profile,
                std::unique_ptr<ConnectivitySchedule> schedule = nullptr);

  // Adds a hot-standby backup for the main server: a new server node,
  // linked to the primary by `repl_link` (the replication channel), with
  // the primary shipping to it and the backup receiving. Clients that
  // should survive the primary's death also need their own link to the
  // backup (AddLink) and the failover route in ClientNodeOptions::
  // qrpc.failover_primary / failover_backup.
  RoverServerNode* AddBackup(const std::string& name, LinkProfile repl_link,
                             ServerNodeOptions options = {},
                             Duration sync_timeout = Duration::Seconds(5));

  // Adds a mobile client connected to the server by `profile` (with an
  // optional connectivity schedule). Call again with the same name to add
  // a second link to an existing client.
  RoverClientNode* AddClient(const std::string& name, LinkProfile profile,
                             std::unique_ptr<ConnectivitySchedule> schedule = nullptr,
                             ClientNodeOptions options = {});

  // Adds a client with no links at all (attach links explicitly with
  // AddLink/AddRelay -- e.g. a relay-only client that never talks to the
  // server directly).
  RoverClientNode* AddDetachedClient(const std::string& name,
                                     ClientNodeOptions options = {});

  // Adds an SMTP relay host reachable from both the named client and the
  // server over always-up links (the paper's e-mail transport).
  SmtpRelay* AddRelay(const std::string& relay_name, const std::string& client_name,
                      LinkProfile client_link, LinkProfile server_link);

  RoverClientNode* client(const std::string& name);

  // Every client / server node currently in the bed (for whole-deployment
  // sweeps such as SimCheck's quiesce audit).
  std::vector<RoverClientNode*> AllClients();
  std::vector<RoverServerNode*> AllServers();

  // Attaches an invariant checker to every node, current and future.
  void SetCheckListener(obs::CheckListener* listener);

  // Runs the simulation until quiescent.
  void Run() { loop_.Run(); }
  void RunFor(Duration d) { loop_.RunFor(d); }

 private:
  obs::CheckListener* check_ = nullptr;
  Options options_;
  EventLoop loop_;
  Network network_;
  std::unique_ptr<RoverServerNode> server_;
  std::map<std::string, std::unique_ptr<RoverServerNode>> extra_servers_;
  std::map<std::string, std::unique_ptr<RoverClientNode>> clients_;
  struct Relay {
    std::unique_ptr<TransportManager> transport;
    std::unique_ptr<SmtpRelay> relay;
  };
  std::map<std::string, Relay> relays_;
};

// Convenience: a descriptor with the given name/type/code/data.
RdoDescriptor MakeRdo(const std::string& name, const std::string& type,
                      const std::string& code, const std::string& data);

}  // namespace rover

#endif  // ROVER_SRC_CORE_TOOLKIT_H_
