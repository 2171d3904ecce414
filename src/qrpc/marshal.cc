#include "src/qrpc/marshal.h"

namespace rover {
namespace {

enum class ValueTag : uint8_t {
  kInt = 0,
  kDouble = 1,
  kString = 2,
  kBytes = 3,
};

// An upper bound on the encoded size of `value`. Encoders reserve it so the
// fields written after a payload-sized value never make the vector grow --
// growing doubles the allocation a cached or queued body then holds.
size_t EncodedSizeBound(const RpcValue& value) {
  constexpr size_t kTagAndLength = 12;
  if (const auto* s = std::get_if<std::string>(&value)) {
    return kTagAndLength + s->size();
  }
  if (const auto* b = std::get_if<Bytes>(&value)) {
    return kTagAndLength + b->size();
  }
  return kTagAndLength;
}

}  // namespace

void EncodeRpcValue(const RpcValue& value, WireWriter* writer) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    writer->WriteVarint(static_cast<uint64_t>(ValueTag::kInt));
    writer->WriteZigzag(*i);
  } else if (const auto* d = std::get_if<double>(&value)) {
    writer->WriteVarint(static_cast<uint64_t>(ValueTag::kDouble));
    writer->WriteDouble(*d);
  } else if (const auto* s = std::get_if<std::string>(&value)) {
    writer->WriteVarint(static_cast<uint64_t>(ValueTag::kString));
    writer->WriteString(*s);
  } else {
    writer->WriteVarint(static_cast<uint64_t>(ValueTag::kBytes));
    writer->WriteBytes(std::get<Bytes>(value));
  }
}

Result<RpcValue> DecodeRpcValue(WireReader* reader) {
  ROVER_ASSIGN_OR_RETURN(uint64_t tag, reader->ReadVarint());
  switch (static_cast<ValueTag>(tag)) {
    case ValueTag::kInt: {
      ROVER_ASSIGN_OR_RETURN(int64_t v, reader->ReadZigzag());
      return RpcValue(v);
    }
    case ValueTag::kDouble: {
      ROVER_ASSIGN_OR_RETURN(double v, reader->ReadDouble());
      return RpcValue(v);
    }
    case ValueTag::kString: {
      ROVER_ASSIGN_OR_RETURN(std::string v, reader->ReadString());
      return RpcValue(std::move(v));
    }
    case ValueTag::kBytes: {
      ROVER_ASSIGN_OR_RETURN(Bytes v, reader->ReadBytes());
      return RpcValue(std::move(v));
    }
  }
  return DataLossError("bad RpcValue tag");
}

void EncodeRpcArgs(const RpcArgs& args, WireWriter* writer) {
  writer->WriteVarint(args.size());
  for (const RpcValue& v : args) {
    EncodeRpcValue(v, writer);
  }
}

Result<RpcArgs> DecodeRpcArgs(WireReader* reader) {
  ROVER_ASSIGN_OR_RETURN(uint64_t count, reader->ReadVarint());
  if (count > reader->remaining() + 1) {
    return DataLossError("RpcArgs count implausible");
  }
  RpcArgs args;
  args.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ROVER_ASSIGN_OR_RETURN(RpcValue v, DecodeRpcValue(reader));
    args.push_back(std::move(v));
  }
  return args;
}

Bytes RpcRequestBody::Encode() const {
  WireWriter writer;
  size_t bound = 32 + method.size();
  for (const RpcValue& arg : args) {
    bound += EncodedSizeBound(arg);
  }
  writer.Reserve(bound);
  writer.WriteString(method);
  EncodeRpcArgs(args, &writer);
  writer.WriteVarint(ack_floor);
  return writer.TakeData();
}

namespace {

Result<RpcRequestBody> DecodeRequestFrom(WireReader* reader) {
  RpcRequestBody body;
  ROVER_ASSIGN_OR_RETURN(body.method, reader->ReadString());
  ROVER_ASSIGN_OR_RETURN(body.args, DecodeRpcArgs(reader));
  ROVER_ASSIGN_OR_RETURN(body.ack_floor, reader->ReadVarint());
  return body;
}

}  // namespace

Result<RpcRequestBody> RpcRequestBody::Decode(const Bytes& payload) {
  WireReader reader(payload);
  return DecodeRequestFrom(&reader);
}

Result<RpcRequestBody> RpcRequestBody::Decode(const Buffer& payload) {
  WireReader reader(payload.data(), payload.size());
  return DecodeRequestFrom(&reader);
}

Status RpcResponseBody::ToStatus() const {
  if (code == StatusCode::kOk) {
    return Status::Ok();
  }
  return Status(code, error_message);
}

Bytes RpcResponseBody::Encode() const {
  WireWriter writer;
  writer.Reserve(32 + error_message.size() + EncodedSizeBound(result));
  writer.WriteVarint(static_cast<uint64_t>(code));
  writer.WriteString(error_message);
  EncodeRpcValue(result, &writer);
  writer.WriteVarint(server_epoch);
  writer.WriteVarint(retry_after_micros);
  return writer.TakeData();
}

namespace {

Result<RpcResponseBody> DecodeResponseFrom(WireReader* reader);

}  // namespace

Result<RpcResponseBody> RpcResponseBody::Decode(const Bytes& payload) {
  WireReader reader(payload);
  return DecodeResponseFrom(&reader);
}

Result<RpcResponseBody> RpcResponseBody::Decode(const Buffer& payload) {
  WireReader reader(payload.data(), payload.size());
  return DecodeResponseFrom(&reader);
}

namespace {

Result<RpcResponseBody> DecodeResponseFrom(WireReader* reader_ptr) {
  WireReader& reader = *reader_ptr;
  RpcResponseBody body;
  ROVER_ASSIGN_OR_RETURN(uint64_t code, reader.ReadVarint());
  if (code > static_cast<uint64_t>(StatusCode::kPermissionDenied)) {
    return DataLossError("bad status code in response");
  }
  body.code = static_cast<StatusCode>(code);
  ROVER_ASSIGN_OR_RETURN(body.error_message, reader.ReadString());
  ROVER_ASSIGN_OR_RETURN(body.result, DecodeRpcValue(&reader));
  // Trailers: absent in responses cached before each field existed.
  if (reader.remaining() > 0) {
    ROVER_ASSIGN_OR_RETURN(body.server_epoch, reader.ReadVarint());
  }
  if (reader.remaining() > 0) {
    ROVER_ASSIGN_OR_RETURN(body.retry_after_micros, reader.ReadVarint());
  }
  return body;
}

}  // namespace

Result<int64_t> RpcValueAsInt(const RpcValue& value) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    return *i;
  }
  return InvalidArgumentError("RpcValue is not an int");
}

Result<double> RpcValueAsDouble(const RpcValue& value) {
  if (const auto* d = std::get_if<double>(&value)) {
    return *d;
  }
  if (const auto* i = std::get_if<int64_t>(&value)) {
    return static_cast<double>(*i);
  }
  return InvalidArgumentError("RpcValue is not a double");
}

Result<std::string> RpcValueAsString(const RpcValue& value) {
  if (const auto* s = std::get_if<std::string>(&value)) {
    return *s;
  }
  return InvalidArgumentError("RpcValue is not a string");
}

Result<Bytes> RpcValueAsBytes(const RpcValue& value) {
  if (const auto* b = std::get_if<Bytes>(&value)) {
    return *b;
  }
  return InvalidArgumentError("RpcValue is not bytes");
}

}  // namespace rover
