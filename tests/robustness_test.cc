// Decoder robustness: every wire-facing parser must reject arbitrary and
// mutated bytes with an error -- never crash, hang, or over-allocate.
// These are deterministic fuzz-style sweeps (seeded random buffers plus
// bit-flipped valid encodings).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/check/simcheck.h"
#include "src/core/toolkit.h"
#include "src/qrpc/marshal.h"
#include "src/rdo/rdo.h"
#include "src/store/object_store.h"
#include "src/store/replication.h"
#include "src/store/server.h"
#include "src/store/server_store.h"
#include "src/tclite/parser.h"
#include "src/tclite/value.h"
#include "src/transport/message.h"
#include "src/transport/transport.h"
#include "src/util/compress.h"
#include "src/util/delta.h"
#include "src/util/rng.h"

namespace rover {
namespace {

Bytes RandomBytes(Rng* rng, size_t max_len) {
  Bytes out(rng->NextBelow(max_len + 1));
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng->NextU64());
  }
  return out;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

TEST_P(FuzzTest, RandomBytesNeverCrashDecoders) {
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes data = RandomBytes(&rng_, 512);
    // Each decoder either succeeds (rare, harmless) or errors cleanly.
    (void)Message::Decode(data);
    (void)DecodeFrame(data);
    (void)RdoDescriptor::Decode(data);
    (void)RpcRequestBody::Decode(data);
    (void)RpcResponseBody::Decode(data);
    (void)LzDecompress(data);
    (void)TransportManager::DecodeEnvelope(data);
    (void)DecodeInvalidation(data);
    (void)ServerTransaction::Decode(data);
    (void)ReplicationSender::ResyncImage::Decode(data);
    (void)DeltaApply(RandomBytes(&rng_, 512), data);  // delta from a peer
    (void)ObjectStore{}.Load(data);                   // snapshot from disk
    WireReader reader(data);
    (void)reader.ReadVarint();
    (void)reader.ReadString();
  }
}

TEST_P(FuzzTest, BitFlippedMessagesRejectedOrEquivalent) {
  Message msg;
  msg.header.message_id = 1234;
  msg.header.type = MessageType::kRequest;
  msg.header.src = "mobile";
  msg.header.dst = "server";
  msg.header.auth = "token";
  msg.payload = BytesFromString("the quick brown fox");
  const Bytes valid = msg.Encode();
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = valid;
    const size_t flips = 1 + rng_.NextBelow(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng_.NextBelow(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng_.NextBelow(8));
    }
    auto decoded = Message::Decode(mutated);
    if (decoded.ok()) {
      // A flip that survives decoding must still produce a structurally
      // sane message (bounded enums).
      EXPECT_LE(static_cast<int>(decoded->header.type), 3);
      EXPECT_LT(static_cast<int>(decoded->header.priority), kNumPriorities);
    }
  }
}

TEST_P(FuzzTest, TruncatedRdoDescriptorsRejected) {
  RdoDescriptor d;
  d.name = "fuzz/object";
  d.type = "set";
  d.code = "proc get {} { global state; return $state }";
  d.data = std::string(200, 'q');
  d.metadata["k"] = "v";
  const Bytes valid = d.Encode();
  // Every strict prefix must be rejected.
  for (size_t len = 0; len < valid.size(); ++len) {
    Bytes prefix(valid.begin(), valid.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(RdoDescriptor::Decode(prefix).ok()) << "prefix length " << len;
  }
  EXPECT_TRUE(RdoDescriptor::Decode(valid).ok());
}

// Every strict prefix of `valid` must fail to decode with a Status (and the
// whole encoding must decode).
template <typename DecodeFn>
void ExpectEveryPrefixRejected(const Bytes& valid, DecodeFn decode) {
  for (size_t len = 0; len < valid.size(); ++len) {
    Buffer prefix(Bytes(valid.begin(), valid.begin() + static_cast<ptrdiff_t>(len)));
    EXPECT_FALSE(decode(prefix).ok()) << "prefix length " << len;
  }
  EXPECT_TRUE(decode(Buffer(valid)).ok());
}

ServerTransaction SampleTransaction() {
  ServerTransaction txn;
  ReplayOp op;
  op.is_remove = true;
  op.name = "mail/outbox";
  txn.ops.push_back(op);
  txn.has_response = true;
  txn.client = "mobile";
  txn.rpc_id = 300;
  txn.ack_floor = 298;  // two-byte varints
  txn.response = BytesFromString("cached-response");
  return txn;
}

ReplicationSender::ResyncImage SampleResyncImage() {
  ReplicationSender::ResyncImage image;
  image.object_image = BytesFromString("objects");
  image.baseline_seq = 1000;
  image.epoch = 3;
  for (const char* client : {"alpha", "beta"}) {
    CompletionRecord record;
    record.client = client;
    record.ack_floor = 200;
    record.responses.emplace_back(200, Buffer(BytesFromString("r200")));
    record.responses.emplace_back(201, Buffer(BytesFromString("r201")));
    image.records.push_back(std::move(record));
  }
  return image;
}

TEST(DecoderTruncationTest, RequestBodyRejectedWhenTruncatedAtEveryByte) {
  RpcRequestBody body;
  body.method = "rover.export";
  body.args = {std::string("mail/inbox"), int64_t{7}};
  body.ack_floor = 1234;
  ExpectEveryPrefixRejected(body.Encode(), [](const Buffer& b) {
    return RpcRequestBody::Decode(b);
  });
  auto decoded = RpcRequestBody::Decode(body.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ack_floor, 1234u);
}

TEST(DecoderTruncationTest, TransactionRejectedWhenTruncatedAtEveryByte) {
  ExpectEveryPrefixRejected(SampleTransaction().Encode(), [](const Buffer& b) {
    return ServerTransaction::Decode(b);
  });
}

TEST(DecoderTruncationTest, ResyncImageRejectedWhenTruncatedAtEveryByte) {
  const ReplicationSender::ResyncImage image = SampleResyncImage();
  ExpectEveryPrefixRejected(image.Encode(), [](const Buffer& b) {
    return ReplicationSender::ResyncImage::Decode(b);
  });
  auto decoded = ReplicationSender::ResyncImage::Decode(Buffer(image.Encode()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->baseline_seq, 1000u);
  ASSERT_EQ(decoded->records.size(), 2u);
  EXPECT_EQ(decoded->records[1].client, "beta");
  EXPECT_EQ(decoded->records[1].ack_floor, 200u);
  ASSERT_EQ(decoded->records[1].responses.size(), 2u);
  EXPECT_EQ(decoded->records[1].responses[1].first, 201u);
  EXPECT_EQ(decoded->records[1].responses[1].second.ToString(), "r201");
}

// A count or length far beyond the bytes that follow must fail before the
// decoder reserves anything for it.
TEST(DecoderTruncationTest, OversizedCountsRejectedWithoutAllocation) {
  constexpr uint64_t kHuge = uint64_t{1} << 60;
  {
    WireWriter w;
    w.WriteString("TXN");
    w.WriteVarint(kHuge);  // op count
    EXPECT_FALSE(ServerTransaction::Decode(Buffer(w.TakeData())).ok());
  }
  {
    WireWriter w;
    w.WriteString("TXN");
    w.WriteVarint(0);
    w.WriteBool(true);
    w.WriteString("mobile");
    w.WriteVarint(5);
    w.WriteVarint(kHuge);  // ack floor: any value decodes
    w.WriteVarint(kHuge);  // response length
    EXPECT_FALSE(ServerTransaction::Decode(Buffer(w.TakeData())).ok());
  }
  auto image_prefix = [](uint64_t record_count) {
    WireWriter w;
    w.WriteString("RSNP");
    w.WriteVarint(1);
    w.WriteVarint(1);
    w.WriteBytes(Bytes{});
    w.WriteVarint(record_count);
    return w;
  };
  {
    WireWriter w = image_prefix(kHuge);
    EXPECT_FALSE(ReplicationSender::ResyncImage::Decode(Buffer(w.TakeData())).ok());
  }
  {
    WireWriter w = image_prefix(1);
    w.WriteString("mobile");
    w.WriteVarint(3);
    w.WriteVarint(kHuge);  // response count
    EXPECT_FALSE(ReplicationSender::ResyncImage::Decode(Buffer(w.TakeData())).ok());
  }
  {
    WireWriter w = image_prefix(1);
    w.WriteString("mobile");
    w.WriteVarint(3);
    w.WriteVarint(1);
    w.WriteVarint(3);
    w.WriteVarint(kHuge);  // response length
    EXPECT_FALSE(ReplicationSender::ResyncImage::Decode(Buffer(w.TakeData())).ok());
  }
  {
    WireWriter w;
    w.WriteString("rover.list");
    w.WriteVarint(kHuge);  // arg count
    EXPECT_FALSE(RpcRequestBody::Decode(w.TakeData()).ok());
  }
}

TEST_P(FuzzTest, RandomScriptsNeverCrashParserOrInterp) {
  const std::string alphabet = "ab c{}[]$\"\\;\n#01+*<";
  ExecLimits limits;
  limits.max_commands = 5000;
  limits.max_depth = 16;
  for (int trial = 0; trial < 100; ++trial) {
    std::string script;
    const size_t len = rng_.NextBelow(60);
    for (size_t i = 0; i < len; ++i) {
      script.push_back(alphabet[rng_.NextBelow(alphabet.size())]);
    }
    (void)ParseScript(script);
    Interp interp(limits);
    (void)interp.Run(script);  // may error; must terminate
  }
}

TEST_P(FuzzTest, RandomListsEitherSplitOrErrorCleanly) {
  const std::string alphabet = "ab {}\"\\ ";
  for (int trial = 0; trial < 200; ++trial) {
    std::string list;
    const size_t len = rng_.NextBelow(40);
    for (size_t i = 0; i < len; ++i) {
      list.push_back(alphabet[rng_.NextBelow(alphabet.size())]);
    }
    auto split = TclListSplit(list);
    if (split.ok()) {
      // Anything that splits must re-join and re-split to the same elements
      // (canonicalization is a fixed point).
      auto again = TclListSplit(TclListJoin(*split));
      ASSERT_TRUE(again.ok()) << list;
      EXPECT_EQ(*again, *split) << list;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(uint64_t{1}, uint64_t{7}));

// End-to-end containment of wire corruption: frames damaged by a noisy
// radio must die at the transport's CRC decode boundary -- counted by
// frames_corrupt_dropped -- and never surface to QRPC, whose retries then
// converge on the correct result.
TEST(CorruptionIsolationTest, DamagedFramesDropAtTransportNeverReachQrpc) {
  constexpr char kCounterCode[] = R"(
proc get {} { global state; return $state }
proc add {n} { global state; set state [expr {$state + $n}]; return $state }
)";
  Testbed bed;
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());
  LinkProfile noisy = LinkProfile::WaveLan2();
  noisy.corrupt_prob = 0.3;
  RoverClientNode* client = bed.AddClient("mobile", noisy);

  constexpr int kOps = 8;
  std::vector<Promise<InvokeResult>> results(kOps);
  for (int i = 0; i < kOps; ++i) {
    bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Seconds(1 + i),
                           [&, i] {
                             InvokeOptions io;
                             io.force_site = ExecutionSite::kServer;
                             results[i] = client->access()->Invoke(
                                 "counter", "add", {"1"}, io);
                           });
  }
  bed.Run();

  for (auto& r : results) {
    ASSERT_TRUE(r.ready());
    EXPECT_TRUE(r.value().status.ok());
  }
  EXPECT_EQ(bed.server()->store()->Get("counter")->data,
            std::to_string(kOps));
  // Corruption really happened on the wire, and every damaged frame was
  // dropped at decode rather than handed upward.
  EXPECT_GT(client->transport()->stats().frames_corrupt_dropped +
                bed.server()->transport()->stats().frames_corrupt_dropped,
            0u);
  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report();
}

}  // namespace
}  // namespace rover
