// Primary/backup replication for the server store (log shipping over an
// internal replication channel).
//
// The primary ships every WAL transaction -- object mutations plus the
// duplicate-cache response entry, in commit order -- to a backup
// RoverServerNode as tagged kControl messages, and the backup acknowledges a
// cumulative *replication watermark* (the highest primary WAL sequence it has
// applied AND made durable in its own WAL). Response release on the primary
// is semi-synchronous: an RPC response leaves only once its transaction is
// durable locally and covered by the acked watermark, which is what makes
// "no acknowledged work is lost" hold across a failover. If the backup stops
// acking for longer than `sync_timeout` the sender degrades to asynchronous
// shipping (releases stop waiting) rather than wedging the primary; the
// degrade is counted, reported to the invariant checker, and healed when the
// backup catches back up to the last shipped sequence.
//
// The receiver applies transactions strictly in sequence order. A gap
// (primary restarted and lost queued ship traffic, backup restarted and lost
// its volatile cursor, or the backup attached after the primary already had
// state) is healed by a full resync: the backup requests a snapshot and the
// primary ships its complete image (object store + duplicate cache) with a
// baseline sequence. Deltas never ship: the backup's version journal starts
// empty, so delta imports degrade to full fetches there by design.
//
// Promotion fences the dead primary: the backup adopts
// max(own durable epoch, highest primary epoch seen) + 1, so every response
// it sends carries an epoch strictly above anything the primary ever used,
// and clients treat the change exactly like a server restart (re-subscribe,
// re-validate cached imports). Stale duplicates arriving at the promoted
// backup hit the shipped dup-cache and are replayed, not re-executed.

#ifndef ROVER_SRC_STORE_REPLICATION_H_
#define ROVER_SRC_STORE_REPLICATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/check_hooks.h"
#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"
#include "src/store/server_store.h"
#include "src/transport/transport.h"

namespace rover {

class RoverServer;
class QrpcServer;

struct ReplicationOptions {
  // The other endpoint of the channel: the backup host for a sender, the
  // primary host for a receiver.
  std::string peer;
  // How long a gated response may wait for the backup's ack before the
  // sender degrades to asynchronous shipping. Zero disables the gate
  // entirely (pure async shipping).
  Duration sync_timeout = Duration::Seconds(5);
};

struct ReplicationSenderStats {
  uint64_t transactions_shipped = 0;
  uint64_t bytes_shipped = 0;
  uint64_t acks_received = 0;
  uint64_t resyncs_served = 0;
  uint64_t sync_degrades = 0;
  // Gauges.
  int64_t lag_records = 0;  // shipped but not yet acked
  int64_t acked_watermark = 0;
};

// Primary side: ships transactions, tracks the acked watermark, gates
// response releases. Claims the host's kControl handler (free on server
// hosts) for acks and resync requests.
class ReplicationSender {
 public:
  struct ResyncImage {
    Bytes object_image;
    std::vector<CachedResponseEntry> responses;
    uint64_t baseline_seq = 0;
    uint64_t epoch = 1;
  };

  ReplicationSender(EventLoop* loop, TransportManager* transport,
                    ReplicationOptions options);
  ~ReplicationSender();

  // Ships one committed transaction. `seq` is the primary's WAL record id
  // (monotone across crashes and compactions), `epoch` the primary's durable
  // epoch at commit time.
  void Ship(uint64_t seq, uint64_t epoch, const ServerTransaction& txn);

  // Runs `release` once the acked watermark covers `seq` (immediately if it
  // already does, or if the sender is degraded / the gate is disabled).
  void GateRelease(uint64_t seq, std::function<void()> release);

  // Supplies the full-image snapshot served to a backup that requests a
  // resync.
  void SetResyncProvider(std::function<ResyncImage()> provider) {
    resync_provider_ = std::move(provider);
  }

  // Invoked once when the sender gives up on synchronous replication
  // (backup unreachable past sync_timeout).
  void SetDegradeListener(std::function<void()> listener) {
    degrade_listener_ = std::move(listener);
  }

  // Exposes stats() through `registry` as "replication_sender.*".
  void BindMetrics(obs::Registry* registry);

  uint64_t last_shipped() const { return last_shipped_; }
  uint64_t acked_watermark() const { return acked_watermark_; }
  // Shipped-but-unacked transactions: the replication lag a failover right
  // now would expose.
  uint64_t LagRecords() const { return last_shipped_ - acked_watermark_; }
  bool degraded() const { return degraded_; }
  const ReplicationSenderStats& stats() const { return stats_; }

 private:
  struct GatedRelease {
    uint64_t seq = 0;
    TimePoint deadline;
    std::function<void()> release;
  };

  void HandleControl(const Message& msg);
  void AckWatermark(uint64_t watermark);
  void ServeResync();
  void ArmDegradeTimer();
  void UpdateLagGauge();

  EventLoop* loop_;
  TransportManager* transport_;
  ReplicationOptions options_;
  std::function<ReplicationSender::ResyncImage()> resync_provider_;
  std::function<void()> degrade_listener_;
  uint64_t last_shipped_ = 0;
  uint64_t acked_watermark_ = 0;
  bool degraded_ = false;
  std::deque<GatedRelease> gated_;  // seq-ordered (commit order)
  bool degrade_timer_armed_ = false;
  ReplicationSenderStats stats_;
  obs::Binding metrics_binding_;
  std::shared_ptr<char> alive_ = std::make_shared<char>('r');
};

struct ReplicationReceiverStats {
  uint64_t transactions_applied = 0;
  uint64_t duplicates_ignored = 0;
  uint64_t acks_sent = 0;
  uint64_t resyncs_requested = 0;
  uint64_t snapshots_applied = 0;
  uint64_t promotions = 0;
  int64_t last_applied = 0;  // gauge: highest seq applied in order
};

// Backup side: applies shipped transactions in order to the local server,
// journals them to the local WAL, acks the durable watermark, and performs
// the promotion (epoch fence) when the primary dies.
class ReplicationReceiver {
 public:
  ReplicationReceiver(EventLoop* loop, TransportManager* transport,
                      RoverServer* server, ServerStableStore* stable_store,
                      QrpcServer* qrpc, ReplicationOptions options);
  ~ReplicationReceiver();

  // Fences the dead primary and takes over: bumps the local durable epoch
  // above anything the primary ever used and stops acking. Returns the new
  // epoch. Idempotent.
  uint64_t Promote();

  void SetCheckListener(obs::CheckListener* listener) { check_ = listener; }
  // Exposes stats() through `registry` as "replication_receiver.*".
  void BindMetrics(obs::Registry* registry);

  bool promoted() const { return promoted_; }
  uint64_t last_applied() const { return last_applied_; }
  uint64_t primary_epoch_seen() const { return primary_epoch_seen_; }
  const ReplicationReceiverStats& stats() const { return stats_; }

 private:
  void HandleControl(const Message& msg);
  void HandleTransaction(uint64_t seq, uint64_t epoch, ServerTransaction txn);
  void HandleSnapshot(uint64_t baseline_seq, uint64_t epoch, Bytes object_image,
                      std::vector<CachedResponseEntry> responses);
  void DrainBuffered();
  void RequestResync();
  void SendAck();

  EventLoop* loop_;
  TransportManager* transport_;
  RoverServer* server_;
  ServerStableStore* stable_store_;  // may be null (volatile backup)
  QrpcServer* qrpc_;
  ReplicationOptions options_;
  obs::CheckListener* check_ = nullptr;
  uint64_t last_applied_ = 0;    // highest seq applied in order
  uint64_t last_durable_ = 0;    // highest seq durable in the local WAL
  uint64_t primary_epoch_seen_ = 1;
  bool promoted_ = false;
  bool resync_pending_ = false;
  std::map<uint64_t, std::pair<uint64_t, ServerTransaction>> buffered_;  // seq -> (epoch, txn)
  ReplicationReceiverStats stats_;
  obs::Binding metrics_binding_;
  std::shared_ptr<char> alive_ = std::make_shared<char>('r');
};

}  // namespace rover

#endif  // ROVER_SRC_STORE_REPLICATION_H_
