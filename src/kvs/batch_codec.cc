#include "kvs/batch_codec.h"

#include <algorithm>

namespace faasm {

namespace {

// One body serving both channels: the replica channel inserts its apply
// sequence between the key and the args.
Bytes EncodeOpImpl(const KvsBatchOp& op, bool replica, uint64_t seq) {
  Bytes out;
  out.reserve(16);  // quiets a GCC 12 -Wstringop-overflow false positive
  ByteWriter writer(out);
  writer.Put<uint8_t>(static_cast<uint8_t>(op.op));
  writer.PutString(op.key);
  if (replica) {
    writer.Put<uint64_t>(seq);
  }
  switch (op.op) {
    case KvsOp::kGetRange:
      writer.Put<uint64_t>(op.offset);
      writer.Put<uint64_t>(op.len);
      break;
    case KvsOp::kSet:
    case KvsOp::kAppend:
      writer.PutBytes(op.bytes);
      break;
    case KvsOp::kSetRange:
      writer.Put<uint64_t>(op.offset);
      writer.PutBytes(op.bytes);
      break;
    case KvsOp::kSetRanges: {
      writer.Put<uint32_t>(static_cast<uint32_t>(op.ranges.size()));
      for (const ValueRange& range : op.ranges) {
        writer.Put<uint64_t>(range.offset);
        writer.PutBytes(range.bytes);
      }
      break;
    }
    case KvsOp::kSetAdd:
    case KvsOp::kSetRemove:
    case KvsOp::kLockRead:
    case KvsOp::kLockWrite:
    case KvsOp::kUnlockRead:
    case KvsOp::kUnlockWrite:
      writer.PutString(op.member);
      break;
    default:
      break;  // key-only ops; a code naming no sub-op is refused on decode
  }
  return out;
}

Result<KvsBatchOp> DecodeOpImpl(const Bytes& part, bool replica) {
  ByteReader reader(part);
  KvsBatchOp op;
  FAASM_ASSIGN_OR_RETURN(uint8_t code, reader.Get<uint8_t>());
  op.op = static_cast<KvsOp>(code);
  FAASM_ASSIGN_OR_RETURN(op.key, reader.GetString());
  if (replica) {
    FAASM_ASSIGN_OR_RETURN(op.seq, reader.Get<uint64_t>());
  }
  switch (op.op) {
    case KvsOp::kGet:
    case KvsOp::kDelete:
    case KvsOp::kExists:
    case KvsOp::kSize:
    case KvsOp::kSetMembers:
      break;
    case KvsOp::kGetRange: {
      FAASM_ASSIGN_OR_RETURN(op.offset, reader.Get<uint64_t>());
      FAASM_ASSIGN_OR_RETURN(op.len, reader.Get<uint64_t>());
      break;
    }
    case KvsOp::kSet:
    case KvsOp::kAppend: {
      FAASM_ASSIGN_OR_RETURN(op.bytes, reader.GetBytes());
      break;
    }
    case KvsOp::kSetRange: {
      FAASM_ASSIGN_OR_RETURN(op.offset, reader.Get<uint64_t>());
      FAASM_ASSIGN_OR_RETURN(op.bytes, reader.GetBytes());
      break;
    }
    case KvsOp::kSetRanges: {
      FAASM_ASSIGN_OR_RETURN(uint32_t count, reader.Get<uint32_t>());
      op.ranges.reserve(std::min<uint32_t>(count, 1024));
      for (uint32_t i = 0; i < count; ++i) {
        ValueRange range;
        FAASM_ASSIGN_OR_RETURN(range.offset, reader.Get<uint64_t>());
        FAASM_ASSIGN_OR_RETURN(range.bytes, reader.GetBytes());
        op.ranges.push_back(std::move(range));
      }
      break;
    }
    case KvsOp::kSetAdd:
    case KvsOp::kSetRemove:
    case KvsOp::kLockRead:
    case KvsOp::kLockWrite:
    case KvsOp::kUnlockRead:
    case KvsOp::kUnlockWrite: {
      FAASM_ASSIGN_OR_RETURN(op.member, reader.GetString());
      break;
    }
    default:
      return InvalidArgument("kvs: op not batchable");
  }
  return op;
}

// The op-keyed payload after an ok status byte.
Status DecodeResultPayload(KvsOp op, ByteReader& reader, KvsBatchResult& result) {
  switch (op) {
    case KvsOp::kGet:
    case KvsOp::kGetRange: {
      FAASM_ASSIGN_OR_RETURN(result.value, reader.GetBytes());
      break;
    }
    case KvsOp::kAppend:
    case KvsOp::kSize: {
      FAASM_ASSIGN_OR_RETURN(result.length, reader.Get<uint64_t>());
      break;
    }
    case KvsOp::kExists:
    case KvsOp::kSetAdd:
    case KvsOp::kSetRemove:
    case KvsOp::kLockRead:
    case KvsOp::kLockWrite: {
      FAASM_ASSIGN_OR_RETURN(uint8_t flag, reader.Get<uint8_t>());
      result.flag = flag != 0;
      break;
    }
    case KvsOp::kSetMembers: {
      // `count` is wire data: cap the reservation and let the parse loop
      // reject a payload too short for the count it claims.
      FAASM_ASSIGN_OR_RETURN(uint32_t count, reader.Get<uint32_t>());
      result.members.reserve(std::min<uint32_t>(count, 1024));
      for (uint32_t i = 0; i < count; ++i) {
        FAASM_ASSIGN_OR_RETURN(std::string member, reader.GetString());
        result.members.push_back(std::move(member));
      }
      break;
    }
    default:
      break;
  }
  return OkStatus();
}

}  // namespace

void WriteStatus(ByteWriter& writer, const Status& status) {
  writer.Put<uint8_t>(static_cast<uint8_t>(status.code()));
}

Status ReadStatus(ByteReader& reader) {
  auto code = reader.Get<uint8_t>();
  if (!code.ok()) {
    return Internal("kvs: malformed response");
  }
  if (code.value() > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Internal("kvs: malformed response status");
  }
  const auto status_code = static_cast<StatusCode>(code.value());
  if (status_code == StatusCode::kOk) {
    return OkStatus();
  }
  return Status(status_code, "kvs remote error");
}

Bytes EncodeBatchOp(const KvsBatchOp& op) { return EncodeOpImpl(op, /*replica=*/false, 0); }

Result<KvsBatchOp> DecodeBatchOp(const Bytes& part) {
  return DecodeOpImpl(part, /*replica=*/false);
}

Bytes EncodeReplicaOp(const KvsBatchOp& op, uint64_t seq) {
  return EncodeOpImpl(op, /*replica=*/true, seq);
}

Result<KvsBatchOp> DecodeReplicaOp(const Bytes& part) {
  return DecodeOpImpl(part, /*replica=*/true);
}

Bytes EncodeInstall(const std::string& key, const KeyExport& record) {
  Bytes request;
  request.reserve(16);  // quiets a GCC 12 -Wstringop-overflow false positive
  ByteWriter writer(request);
  writer.Put<uint8_t>(static_cast<uint8_t>(KvsOp::kMigrateInstall));
  writer.PutString(key);
  writer.PutBytes(record.Serialize());
  return request;
}

Result<InstallRequest> DecodeInstall(ByteReader& reader) {
  InstallRequest install;
  FAASM_ASSIGN_OR_RETURN(install.key, reader.GetString());
  FAASM_ASSIGN_OR_RETURN(Bytes payload, reader.GetBytes());
  FAASM_ASSIGN_OR_RETURN(install.record, KeyExport::Deserialize(payload));
  return install;
}

Bytes EncodeBatchResult(const KvsOp op, const KvsBatchResult& result) {
  Bytes out;
  out.reserve(16);  // quiets a GCC 12 -Wstringop-overflow false positive
  ByteWriter writer(out);
  WriteStatus(writer, result.status);
  if (!result.status.ok()) {
    return out;
  }
  switch (op) {
    case KvsOp::kGet:
    case KvsOp::kGetRange:
      writer.PutBytes(result.value);
      break;
    case KvsOp::kAppend:
    case KvsOp::kSize:
      writer.Put<uint64_t>(result.length);
      break;
    case KvsOp::kExists:
    case KvsOp::kSetAdd:
    case KvsOp::kSetRemove:
    case KvsOp::kLockRead:
    case KvsOp::kLockWrite:
      writer.Put<uint8_t>(result.flag ? 1 : 0);
      break;
    case KvsOp::kSetMembers:
      writer.Put<uint32_t>(static_cast<uint32_t>(result.members.size()));
      for (const std::string& member : result.members) {
        writer.PutString(member);
      }
      break;
    default:
      break;
  }
  return out;
}

KvsBatchResult DecodeBatchResult(const KvsOp op, const Bytes& part) {
  KvsBatchResult result;
  ByteReader reader(part);
  result.status = ReadStatus(reader);
  if (result.status.ok()) {
    result.status = DecodeResultPayload(op, reader, result);
  }
  return result;
}

}  // namespace faasm
