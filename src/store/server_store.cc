#include "src/store/server_store.h"

#include <utility>

namespace rover {

namespace {

constexpr char kTxnTag[] = "TXN";

const obs::Schema<ServerStoreStats> kMetrics(
    "server_store", {{"transactions_logged", &ServerStoreStats::transactions_logged},
                     {"snapshots_written", &ServerStoreStats::snapshots_written},
                     {"recoveries", &ServerStoreStats::recoveries},
                     {"wal_records_dropped", &ServerStoreStats::wal_records_dropped},
                     {"wal_interior_quarantined", &ServerStoreStats::wal_interior_quarantined},
                     {"snapshot_client_records", &ServerStoreStats::snapshot_client_records}});

// Simulated on-device size of one client's completion record: its name,
// floor and count, then (rpc id, length, bytes) per response.
size_t StoredSize(const CompletionRecord& record) {
  size_t bytes = record.client.size() + 16;
  for (const auto& [rpc_id, response] : record.responses) {
    bytes += response.size() + 12;
  }
  return bytes;
}

}  // namespace

Bytes ServerTransaction::Encode() const {
  WireWriter writer;
  writer.WriteString(kTxnTag);
  writer.WriteVarint(ops.size());
  for (const ReplayOp& op : ops) {
    writer.WriteBool(op.is_remove);
    if (op.is_remove) {
      writer.WriteString(op.name);
    } else {
      writer.WriteBytes(op.committed.Encode());
    }
  }
  writer.WriteBool(has_response);
  if (has_response) {
    writer.WriteString(client);
    writer.WriteVarint(rpc_id);
    writer.WriteVarint(ack_floor);
    writer.WriteVarint(response.size());
    // The charged copy on the durable path: response bytes land in the record.
    ChargePayloadCopy(response.size());
    writer.WriteRaw(response.data(), response.size());
  }
  return writer.TakeData();
}

Result<ServerTransaction> ServerTransaction::Decode(const Buffer& data) {
  WireReader reader(data.data(), data.size());
  ROVER_ASSIGN_OR_RETURN(std::string tag, reader.ReadString());
  if (tag != kTxnTag) {
    return DataLossError("not a server transaction record");
  }
  ServerTransaction txn;
  ROVER_ASSIGN_OR_RETURN(uint64_t op_count, reader.ReadVarint());
  if (op_count > reader.remaining()) {
    return DataLossError("server transaction op count implausible");
  }
  for (uint64_t i = 0; i < op_count; ++i) {
    ReplayOp op;
    ROVER_ASSIGN_OR_RETURN(op.is_remove, reader.ReadBool());
    if (op.is_remove) {
      ROVER_ASSIGN_OR_RETURN(op.name, reader.ReadString());
    } else {
      ROVER_ASSIGN_OR_RETURN(Bytes encoded, reader.ReadBytes());
      ROVER_ASSIGN_OR_RETURN(op.committed, RdoDescriptor::Decode(encoded));
    }
    txn.ops.push_back(std::move(op));
  }
  ROVER_ASSIGN_OR_RETURN(txn.has_response, reader.ReadBool());
  if (txn.has_response) {
    ROVER_ASSIGN_OR_RETURN(txn.client, reader.ReadString());
    ROVER_ASSIGN_OR_RETURN(txn.rpc_id, reader.ReadVarint());
    ROVER_ASSIGN_OR_RETURN(txn.ack_floor, reader.ReadVarint());
    ROVER_ASSIGN_OR_RETURN(uint64_t response_len, reader.ReadVarint());
    if (response_len > reader.remaining()) {
      return DataLossError("truncated response in server transaction");
    }
    ROVER_ASSIGN_OR_RETURN(const uint8_t* response_ptr, reader.ReadRaw(response_len));
    txn.response = data.Slice(static_cast<size_t>(response_ptr - data.data()),
                              static_cast<size_t>(response_len));
  }
  return txn;
}

ServerStableStore::ServerStableStore(EventLoop* loop, ServerStoreOptions options)
    : loop_(loop),
      options_(options),
      wal_(loop, options.wal_costs, options.wal_disk_faults) {}

void ServerStableStore::BindMetrics(obs::Registry* registry) {
  wal_.device()->BindMetrics(registry);
  metrics_binding_ = registry->Bind(kMetrics, &stats_);
}

uint64_t ServerStableStore::LogTransaction(const ServerTransaction& txn) {
  ++stats_.transactions_logged;
  last_logged_id_ = wal_.Append(txn.Encode());
  return last_logged_id_;
}

void ServerStableStore::Flush(StableLog::FlushCallback done) {
  wal_.Flush(std::move(done));
}

void ServerStableStore::WriteSnapshot(Bytes object_image,
                                      std::vector<CompletionRecord> changed_records,
                                      std::function<void()> done) {
  compaction_in_progress_ = true;
  // The snapshot covers the WAL as of now; records appended while the
  // snapshot write runs survive the truncation.
  const uint64_t covered_up_to = wal_.BackRecordId();
  size_t bytes = object_image.size();
  for (const CompletionRecord& record : changed_records) {
    bytes += StoredSize(record);
  }
  snapshot_busy_until_ =
      std::max(snapshot_busy_until_, loop_->now()) + options_.wal_costs.FlushCost(bytes);
  const uint64_t generation = crash_generation_;
  auto image = std::make_shared<Bytes>(std::move(object_image));
  auto records = std::make_shared<std::vector<CompletionRecord>>(std::move(changed_records));
  loop_->ScheduleAt(snapshot_busy_until_, [this, image, records, covered_up_to, generation,
                                           done = std::move(done)] {
    if (generation != crash_generation_) {
      return;  // crashed mid-write; old snapshot + WAL remain authoritative
    }
    snapshot_.valid = true;
    snapshot_.object_image = std::move(*image);
    for (CompletionRecord& record : *records) {
      std::string client = record.client;
      snapshot_.clients.insert_or_assign(std::move(client), std::move(record));
    }
    stats_.snapshot_client_records += records->size();
    wal_.Truncate(covered_up_to);
    compaction_in_progress_ = false;
    ++stats_.snapshots_written;
    if (done) {
      done();
    }
  });
}

void ServerStableStore::SimulateCrash(bool tear_last_record) {
  ++crash_generation_;
  compaction_in_progress_ = false;
  snapshot_busy_until_ = TimePoint::Epoch();  // the abandoned write is gone
  // A tear models a power cut mid-write; a record whose device write
  // already completed (its response may have left) cannot be torn.
  wal_.SimulateCrash(tear_last_record && wal_.WriteInFlight());
}

RecoveredServerState ServerStableStore::Recover() {
  ++stats_.recoveries;
  ++epoch_;
  const StableLog::RecoveryReport report = wal_.RecoverWithReport();

  RecoveredServerState out;
  out.records_dropped = report.torn_tail_dropped;
  // Interior corruption is a different event class from a torn tail: the
  // transaction it held was acknowledged durable. The epoch bump above
  // already invalidates client-side trust in this server's state; surface
  // the count so callers and checkers can tell silent loss from detected.
  out.interior_quarantined = report.quarantined.size();
  stats_.wal_interior_quarantined += report.quarantined.size();
  out.epoch = epoch_;
  if (snapshot_.valid) {
    out.object_image = snapshot_.object_image;
    out.snapshot_records.reserve(snapshot_.clients.size());
    for (const auto& [client, record] : snapshot_.clients) {
      out.snapshot_records.push_back(record);
    }
  }
  std::vector<StableLog::Record> records = wal_.DurableRecords();
  for (const StableLog::Record& rec : records) {
    // RecordPayload, not rec.data: the WAL may store records compressed.
    auto payload = wal_.RecordPayload(rec);
    if (!payload.ok()) {
      ++out.records_dropped;
      wal_.RemoveRecord(rec.id);
      continue;
    }
    auto txn = ServerTransaction::Decode(*payload);
    if (!txn.ok()) {
      ++out.records_dropped;
      wal_.RemoveRecord(rec.id);
      continue;
    }
    out.wal.push_back(std::move(*txn));
  }
  stats_.wal_records_dropped += out.records_dropped;
  return out;
}

StableLog::ScrubReport ServerStableStore::ScrubWal() {
  StableLog::ScrubReport report = wal_.Scrub();
  stats_.wal_interior_quarantined += report.quarantined.size();
  return report;
}

}  // namespace rover
