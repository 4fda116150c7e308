// Sub-op codec shared by the client wire (kvs_client.cc) and the
// replication forward channel (kvs/replication.h).
//
// Both travel in the same framed container (net/framing.h) and encode a
// sub-op the same way — u8 op, key, op-specific args — with one difference:
// a replica-channel sub-op (EncodeReplicaOp/DecodeReplicaOp) carries the
// primary's u64 apply sequence after the key, the backup's duplicate filter.
// Every sub-op kind (reads, writes, set ops and the four lock ops, whose
// owner rides in `member`) is valid on both.
//
// Results (EncodeBatchResult/DecodeBatchResult) are shared: status byte,
// then an op-keyed payload.
#ifndef FAASM_KVS_BATCH_CODEC_H_
#define FAASM_KVS_BATCH_CODEC_H_

#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "kvs/kv_store.h"

namespace faasm {

// Response layout shared by every KVS wire answer: u8 status code first,
// payload after (only when ok).
void WriteStatus(ByteWriter& writer, const Status& status);
Status ReadStatus(ByteReader& reader);

// Client sub-ops (kBatch / kGetBatch). DecodeBatchOp answers
// InvalidArgument("kvs: op not batchable") for a code that names no sub-op
// and a typed error for a truncated part.
Bytes EncodeBatchOp(const KvsBatchOp& op);
Result<KvsBatchOp> DecodeBatchOp(const Bytes& part);

// Replica-channel sub-ops (primary→backup forwards). `seq` is the primary's
// apply sequence for the op; DecodeReplicaOp fills KvsBatchOp::seq with it.
Bytes EncodeReplicaOp(const KvsBatchOp& op, uint64_t seq);
Result<KvsBatchOp> DecodeReplicaOp(const Bytes& part);

// kMigrateInstall request (the migration stream and replica catch-up): the
// request-kind byte, the key, then the serialised KeyExport. DecodeInstall
// reads what follows the request-kind byte.
struct InstallRequest {
  std::string key;
  KeyExport record;
};
Bytes EncodeInstall(const std::string& key, const KeyExport& record);
Result<InstallRequest> DecodeInstall(ByteReader& reader);

// Per-op result, both channels. A result part too short for its op's
// payload decodes to a typed error status.
Bytes EncodeBatchResult(KvsOp op, const KvsBatchResult& result);
KvsBatchResult DecodeBatchResult(KvsOp op, const Bytes& part);

}  // namespace faasm

#endif  // FAASM_KVS_BATCH_CODEC_H_
