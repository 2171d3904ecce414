#include "src/store/replication.h"

#include <algorithm>
#include <utility>

#include "src/qrpc/qrpc.h"
#include "src/store/server.h"
#include "src/util/logging.h"

namespace rover {
namespace {

// kControl payload tags. Sender -> receiver: RTXN (one shipped transaction),
// RSNP (full-image resync). Receiver -> sender: RACK (cumulative durable
// watermark), RSYN (resync request). Unknown tags are ignored so the channel
// can grow.
constexpr char kTagTxn[] = "RTXN";
constexpr char kTagAck[] = "RACK";
constexpr char kTagResyncRequest[] = "RSYN";
constexpr char kTagSnapshot[] = "RSNP";

Bytes EncodeTxnMessage(uint64_t seq, uint64_t epoch, const ServerTransaction& txn) {
  WireWriter writer;
  writer.WriteString(kTagTxn);
  writer.WriteVarint(seq);
  writer.WriteVarint(epoch);
  writer.WriteBytes(txn.Encode());
  return writer.TakeData();
}

Bytes EncodeAckMessage(uint64_t watermark) {
  WireWriter writer;
  writer.WriteString(kTagAck);
  writer.WriteVarint(watermark);
  return writer.TakeData();
}

Bytes EncodeResyncRequest(uint64_t last_applied) {
  WireWriter writer;
  writer.WriteString(kTagResyncRequest);
  writer.WriteVarint(last_applied);
  return writer.TakeData();
}

const obs::Schema<ReplicationSenderStats> kSenderMetrics(
    "replication_sender", {{"txns_shipped", &ReplicationSenderStats::transactions_shipped},
                           {"bytes_shipped", &ReplicationSenderStats::bytes_shipped},
                           {"acks_received", &ReplicationSenderStats::acks_received},
                           {"resyncs_served", &ReplicationSenderStats::resyncs_served},
                           {"sync_degrades", &ReplicationSenderStats::sync_degrades},
                           {"lag_records", &ReplicationSenderStats::lag_records},
                           {"acked_watermark", &ReplicationSenderStats::acked_watermark}});

const obs::Schema<ReplicationReceiverStats> kReceiverMetrics(
    "replication_receiver",
    {{"txns_applied", &ReplicationReceiverStats::transactions_applied},
     {"duplicates_ignored", &ReplicationReceiverStats::duplicates_ignored},
     {"acks_sent", &ReplicationReceiverStats::acks_sent},
     {"resyncs_requested", &ReplicationReceiverStats::resyncs_requested},
     {"snapshots_applied", &ReplicationReceiverStats::snapshots_applied},
     {"promotions", &ReplicationReceiverStats::promotions},
     {"last_applied", &ReplicationReceiverStats::last_applied}});

}  // namespace

Bytes ReplicationSender::ResyncImage::Encode() const {
  WireWriter writer;
  writer.WriteString(kTagSnapshot);
  writer.WriteVarint(baseline_seq);
  writer.WriteVarint(epoch);
  writer.WriteBytes(object_image);
  writer.WriteVarint(records.size());
  for (const CompletionRecord& record : records) {
    writer.WriteString(record.client);
    writer.WriteVarint(record.ack_floor);
    writer.WriteVarint(record.responses.size());
    for (const auto& [rpc_id, response] : record.responses) {
      writer.WriteVarint(rpc_id);
      writer.WriteVarint(response.size());
      ChargePayloadCopy(response.size());
      writer.WriteRaw(response.data(), response.size());
    }
  }
  return writer.TakeData();
}

Result<ReplicationSender::ResyncImage> ReplicationSender::ResyncImage::Decode(
    const Buffer& payload) {
  WireReader reader(payload.data(), payload.size());
  ROVER_ASSIGN_OR_RETURN(std::string tag, reader.ReadString());
  if (tag != kTagSnapshot) {
    return DataLossError("not a resync image");
  }
  ResyncImage image;
  ROVER_ASSIGN_OR_RETURN(image.baseline_seq, reader.ReadVarint());
  ROVER_ASSIGN_OR_RETURN(image.epoch, reader.ReadVarint());
  ROVER_ASSIGN_OR_RETURN(image.object_image, reader.ReadBytes());
  // Every record and response takes at least one byte, so a count above the
  // bytes left is hostile or corrupt: refuse it up front.
  ROVER_ASSIGN_OR_RETURN(uint64_t record_count, reader.ReadVarint());
  if (record_count > reader.remaining()) {
    return DataLossError("resync image record count implausible");
  }
  for (uint64_t i = 0; i < record_count; ++i) {
    CompletionRecord record;
    ROVER_ASSIGN_OR_RETURN(record.client, reader.ReadString());
    ROVER_ASSIGN_OR_RETURN(record.ack_floor, reader.ReadVarint());
    ROVER_ASSIGN_OR_RETURN(uint64_t response_count, reader.ReadVarint());
    if (response_count > reader.remaining()) {
      return DataLossError("resync image response count implausible");
    }
    for (uint64_t j = 0; j < response_count; ++j) {
      ROVER_ASSIGN_OR_RETURN(uint64_t rpc_id, reader.ReadVarint());
      ROVER_ASSIGN_OR_RETURN(uint64_t response_len, reader.ReadVarint());
      if (response_len > reader.remaining()) {
        return DataLossError("truncated response in resync image");
      }
      ROVER_ASSIGN_OR_RETURN(const uint8_t* response_ptr, reader.ReadRaw(response_len));
      // A slice of the frame: the adopted cache entry keeps it alive.
      record.responses.emplace_back(
          rpc_id, payload.Slice(static_cast<size_t>(response_ptr - payload.data()),
                                static_cast<size_t>(response_len)));
    }
    image.records.push_back(std::move(record));
  }
  return image;
}

ReplicationSender::ReplicationSender(EventLoop* loop, TransportManager* transport,
                                     ReplicationOptions options)
    : loop_(loop), transport_(transport), options_(std::move(options)) {
  transport_->SetHandler(MessageType::kControl,
                         [this](const Message& msg) { HandleControl(msg); });
}

ReplicationSender::~ReplicationSender() {
  transport_->SetHandler(MessageType::kControl, nullptr);
}

void ReplicationSender::BindMetrics(obs::Registry* registry) {
  metrics_binding_ = registry->Bind(kSenderMetrics, &stats_);
}

void ReplicationSender::Ship(uint64_t seq, uint64_t epoch, const ServerTransaction& txn) {
  Message msg;
  msg.header.type = MessageType::kControl;
  msg.header.priority = Priority::kDefault;
  msg.header.dst = options_.peer;
  msg.payload = EncodeTxnMessage(seq, epoch, txn);
  const size_t bytes = msg.payload.size();
  transport_->Send(std::move(msg));
  last_shipped_ = std::max(last_shipped_, seq);
  ++stats_.transactions_shipped;
  stats_.bytes_shipped += bytes;
  UpdateLagGauge();
}

void ReplicationSender::GateRelease(uint64_t seq, std::function<void()> release) {
  if (options_.sync_timeout <= Duration::Zero() || degraded_ ||
      seq <= acked_watermark_) {
    release();
    return;
  }
  gated_.push_back({seq, loop_->now() + options_.sync_timeout, std::move(release)});
  ArmDegradeTimer();
}

void ReplicationSender::HandleControl(const Message& msg) {
  WireReader reader(msg.payload.data(), msg.payload.size());
  auto tag = reader.ReadString();
  if (!tag.ok()) {
    return;
  }
  if (*tag == kTagAck) {
    auto watermark = reader.ReadVarint();
    if (watermark.ok()) {
      AckWatermark(*watermark);
    }
  } else if (*tag == kTagResyncRequest) {
    ServeResync();
  }
  // Anything else is not replication traffic; ignore.
}

void ReplicationSender::AckWatermark(uint64_t watermark) {
  ++stats_.acks_received;
  if (watermark <= acked_watermark_) {
    return;
  }
  acked_watermark_ = watermark;
  while (!gated_.empty() && gated_.front().seq <= acked_watermark_) {
    auto release = std::move(gated_.front().release);
    gated_.pop_front();
    release();
  }
  if (degraded_ && acked_watermark_ >= last_shipped_) {
    // The backup caught back up; future releases gate again.
    degraded_ = false;
  }
  UpdateLagGauge();
}

void ReplicationSender::ServeResync() {
  if (!resync_provider_) {
    return;
  }
  ResyncImage image = resync_provider_();
  Message msg;
  msg.header.type = MessageType::kControl;
  msg.header.priority = Priority::kDefault;
  msg.header.dst = options_.peer;
  msg.payload = image.Encode();
  transport_->Send(std::move(msg));
  ++stats_.resyncs_served;
}

void ReplicationSender::ArmDegradeTimer() {
  if (degrade_timer_armed_ || gated_.empty()) {
    return;
  }
  degrade_timer_armed_ = true;
  loop_->ScheduleAt(gated_.front().deadline,
                    [this, weak = std::weak_ptr<char>(alive_)] {
    if (weak.expired()) {
      return;
    }
    degrade_timer_armed_ = false;
    if (gated_.empty()) {
      return;
    }
    if (loop_->now() >= gated_.front().deadline) {
      // The oldest gated response has waited out the sync window: stop
      // blocking the primary on an unreachable backup. Acked work released
      // from here on is no longer guaranteed to survive a failover, which
      // the checker is told about.
      degraded_ = true;
      ++stats_.sync_degrades;
      ROVER_LOG(Info) << "replication to " << options_.peer
                      << " degraded to async (watermark " << acked_watermark_
                      << ", shipped " << last_shipped_ << ")";
      while (!gated_.empty()) {
        auto release = std::move(gated_.front().release);
        gated_.pop_front();
        release();
      }
      if (degrade_listener_) {
        degrade_listener_();
      }
      return;
    }
    ArmDegradeTimer();
  });
}

void ReplicationSender::UpdateLagGauge() {
  stats_.lag_records = static_cast<int64_t>(last_shipped_ - acked_watermark_);
  stats_.acked_watermark = static_cast<int64_t>(acked_watermark_);
}

ReplicationReceiver::ReplicationReceiver(EventLoop* loop, TransportManager* transport,
                                         RoverServer* server,
                                         ServerStableStore* stable_store,
                                         QrpcServer* qrpc, ReplicationOptions options)
    : loop_(loop), transport_(transport), server_(server),
      stable_store_(stable_store), qrpc_(qrpc), options_(std::move(options)) {
  transport_->SetHandler(MessageType::kControl,
                         [this](const Message& msg) { HandleControl(msg); });
  // Bootstrap: pull whatever state the primary already has. Also heals the
  // case where this backup restarted and lost its volatile cursor.
  RequestResync();
}

ReplicationReceiver::~ReplicationReceiver() {
  transport_->SetHandler(MessageType::kControl, nullptr);
}

void ReplicationReceiver::BindMetrics(obs::Registry* registry) {
  metrics_binding_ = registry->Bind(kReceiverMetrics, &stats_);
}

uint64_t ReplicationReceiver::Promote() {
  const uint64_t durable_epoch =
      stable_store_ != nullptr ? stable_store_->epoch() : qrpc_->epoch();
  if (promoted_) {
    return qrpc_->epoch();
  }
  promoted_ = true;
  // Fence the dead primary: every response this server sends from now on
  // carries an epoch strictly above anything the primary ever used, so
  // clients treat the takeover like a restart of their home server.
  // Transactions still buffered behind a sequence gap are discarded: they
  // were never acked, so the primary never released their responses.
  const uint64_t epoch = std::max(durable_epoch, primary_epoch_seen_) + 1;
  if (stable_store_ != nullptr) {
    stable_store_->AdoptEpoch(epoch);
  }
  qrpc_->set_epoch(epoch);
  buffered_.clear();
  ++stats_.promotions;
  if (check_ != nullptr) {
    std::vector<std::pair<std::string, uint64_t>> replicated;
    std::vector<std::pair<std::string, uint64_t>> floors;
    for (const CompletionRecord& record : qrpc_->AllRecords()) {
      floors.emplace_back(record.client, record.ack_floor);
      for (const auto& [rpc_id, response] : record.responses) {
        replicated.emplace_back(record.client, rpc_id);
      }
    }
    check_->OnFailover(options_.peer, transport_->local_host(), epoch, replicated, floors);
  }
  ROVER_LOG(Info) << transport_->local_host() << " promoted to primary (epoch "
                  << epoch << ", replaces " << options_.peer << ")";
  return epoch;
}

void ReplicationReceiver::HandleControl(const Message& msg) {
  WireReader reader(msg.payload.data(), msg.payload.size());
  auto tag = reader.ReadString();
  if (!tag.ok()) {
    return;
  }
  if (*tag == kTagTxn) {
    auto seq = reader.ReadVarint();
    auto epoch = reader.ReadVarint();
    auto encoded_len = reader.ReadVarint();
    if (!seq.ok() || !epoch.ok() || !encoded_len.ok() ||
        *encoded_len > reader.remaining()) {
      return;
    }
    auto encoded_ptr = reader.ReadRaw(*encoded_len);
    if (!encoded_ptr.ok()) {
      return;
    }
    // Decode straight out of the control payload; the transaction's response
    // slice keeps the frame storage alive through the duplicate cache.
    const Buffer encoded = msg.payload.Slice(
        static_cast<size_t>(*encoded_ptr - msg.payload.data()),
        static_cast<size_t>(*encoded_len));
    auto txn = ServerTransaction::Decode(encoded);
    if (!txn.ok()) {
      ROVER_LOG(Warning) << "dropping undecodable replicated transaction seq "
                      << *seq;
      return;
    }
    HandleTransaction(*seq, *epoch, *std::move(txn));
  } else if (*tag == kTagSnapshot) {
    auto image = ReplicationSender::ResyncImage::Decode(msg.payload);
    if (!image.ok()) {
      ROVER_LOG(Warning) << "dropping undecodable resync image: "
                         << image.status().message();
      return;
    }
    HandleSnapshot(*std::move(image));
  }
}

void ReplicationReceiver::HandleTransaction(uint64_t seq, uint64_t epoch,
                                            ServerTransaction txn) {
  if (promoted_) {
    return;  // the old primary is fenced; nothing it says matters now
  }
  primary_epoch_seen_ = std::max(primary_epoch_seen_, epoch);
  if (seq <= last_applied_) {
    ++stats_.duplicates_ignored;
    SendAck();  // re-ack so a primary that missed it can unblock releases
    return;
  }
  buffered_.emplace(seq, std::make_pair(epoch, std::move(txn)));
  DrainBuffered();
  if (!buffered_.empty() && buffered_.begin()->first > last_applied_ + 1) {
    // Sequence gap: ship traffic was lost with a crashed process (or this
    // backup attached after the primary already had state). Heal with a
    // full-image resync rather than applying out of order.
    RequestResync();
  }
}

void ReplicationReceiver::DrainBuffered() {
  while (true) {
    auto it = buffered_.find(last_applied_ + 1);
    if (it == buffered_.end()) {
      return;
    }
    const uint64_t seq = it->first;
    ServerTransaction txn = std::move(it->second.second);
    buffered_.erase(it);
    last_applied_ = seq;
    ++stats_.transactions_applied;
    stats_.last_applied = static_cast<int64_t>(last_applied_);
    server_->ApplyReplicatedTransaction(
        txn, [this, seq, weak = std::weak_ptr<char>(alive_)](const Status& durable) {
          if (weak.expired() || !durable.ok()) {
            return;  // not durable here: never ack it
          }
          last_durable_ = std::max(last_durable_, seq);
          SendAck();
        });
  }
}

void ReplicationReceiver::HandleSnapshot(ReplicationSender::ResyncImage image) {
  resync_pending_ = false;
  if (promoted_) {
    return;
  }
  primary_epoch_seen_ = std::max(primary_epoch_seen_, image.epoch);
  const uint64_t baseline_seq = image.baseline_seq;
  if (baseline_seq < last_applied_) {
    return;  // stale snapshot from before what we already applied
  }
  last_applied_ = baseline_seq;
  ++stats_.snapshots_applied;
  stats_.last_applied = static_cast<int64_t>(last_applied_);
  server_->AdoptReplicatedSnapshot(
      std::move(image.object_image), image.records,
      [this, baseline_seq, weak = std::weak_ptr<char>(alive_)] {
        if (weak.expired()) {
          return;
        }
        last_durable_ = std::max(last_durable_, baseline_seq);
        SendAck();
      });
  while (!buffered_.empty() && buffered_.begin()->first <= baseline_seq) {
    buffered_.erase(buffered_.begin());
  }
  DrainBuffered();
}

void ReplicationReceiver::RequestResync() {
  if (resync_pending_ || promoted_) {
    return;
  }
  resync_pending_ = true;
  ++stats_.resyncs_requested;
  Message msg;
  msg.header.type = MessageType::kControl;
  msg.header.priority = Priority::kDefault;
  msg.header.dst = options_.peer;
  msg.payload = EncodeResyncRequest(last_applied_);
  transport_->Send(std::move(msg));
  // The request (or its snapshot) can be lost with a crashing process; ask
  // again if nothing arrives.
  loop_->ScheduleAfter(Duration::Seconds(2),
                       [this, weak = std::weak_ptr<char>(alive_)] {
    if (weak.expired() || !resync_pending_ || promoted_) {
      return;
    }
    resync_pending_ = false;
    RequestResync();
  });
}

void ReplicationReceiver::SendAck() {
  if (promoted_) {
    return;
  }
  Message msg;
  msg.header.type = MessageType::kControl;
  msg.header.priority = Priority::kDefault;
  msg.header.dst = options_.peer;
  msg.payload = EncodeAckMessage(last_durable_);
  transport_->Send(std::move(msg));
  ++stats_.acks_sent;
}

}  // namespace rover
