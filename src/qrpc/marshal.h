// RPC argument marshalling. QRPC calls name a method on a destination and
// carry a list of typed values; RDO method invocations marshal their
// arguments the same way, so shipped code and shipped calls share one wire
// format.

#ifndef ROVER_SRC_QRPC_MARSHAL_H_
#define ROVER_SRC_QRPC_MARSHAL_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/util/buffer.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace rover {

using RpcValue = std::variant<int64_t, double, std::string, Bytes>;
using RpcArgs = std::vector<RpcValue>;

void EncodeRpcValue(const RpcValue& value, WireWriter* writer);
Result<RpcValue> DecodeRpcValue(WireReader* reader);

void EncodeRpcArgs(const RpcArgs& args, WireWriter* writer);
Result<RpcArgs> DecodeRpcArgs(WireReader* reader);

// Request payload: method name + args, plus the caller's ack floor.
struct RpcRequestBody {
  std::string method;
  RpcArgs args;
  // The calling client's ack watermark: every rpc id below it is resolved
  // at the client and will never be sent again, so the server may free
  // those completion records (and drop a late frame for one unexecuted).
  // 0 = no information. Set at Call() time; a stale, lower floor is safe.
  uint64_t ack_floor = 0;

  Bytes Encode() const;
  static Result<RpcRequestBody> Decode(const Bytes& payload);
  // Decodes straight out of a payload view (no copy of the input bytes).
  static Result<RpcRequestBody> Decode(const Buffer& payload);
};

// Response payload: a status and a result value, stamped with the
// responding server's incarnation. A client that sees the epoch grow knows
// the server restarted since its last exchange and that volatile
// server-side state (subscriptions) is gone.
struct RpcResponseBody {
  StatusCode code = StatusCode::kOk;
  std::string error_message;
  RpcValue result = int64_t{0};
  uint64_t server_epoch = 0;  // 0 = unstamped (responder predates epochs)
  // Overload pushback hint: with code kUnavailable, the earliest the client
  // should resend, in microseconds from the response's arrival. 0 = none.
  uint64_t retry_after_micros = 0;

  Status ToStatus() const;

  Bytes Encode() const;
  static Result<RpcResponseBody> Decode(const Bytes& payload);
  static Result<RpcResponseBody> Decode(const Buffer& payload);
};

// Convenience accessors with type checking.
Result<int64_t> RpcValueAsInt(const RpcValue& value);
Result<double> RpcValueAsDouble(const RpcValue& value);
Result<std::string> RpcValueAsString(const RpcValue& value);
Result<Bytes> RpcValueAsBytes(const RpcValue& value);

}  // namespace rover

#endif  // ROVER_SRC_QRPC_MARSHAL_H_
