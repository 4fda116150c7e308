// CallTable: cluster-wide call lifecycle bookkeeping (submit -> running ->
// done/failed) plus the per-call metrics (durations, footprints, cold starts)
// the benchmark harnesses aggregate.
#ifndef FAASM_RUNTIME_CALL_TABLE_H_
#define FAASM_RUNTIME_CALL_TABLE_H_

#include <array>
#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/status.h"

namespace faasm {

enum class CallState { kPending, kRunning, kDone, kFailed };

struct CallRecord {
  uint64_t id = 0;
  std::string function;
  Bytes input;
  Bytes output;
  int return_code = 0;
  CallState state = CallState::kPending;
  std::string error;
  std::string executed_on;
  bool cold_start = false;
  TimeNs submitted_at = 0;
  TimeNs started_at = 0;
  TimeNs finished_at = 0;
};

class CallTable {
 public:
  explicit CallTable(Clock* clock) : clock_(clock) {}

  uint64_t Create(const std::string& function, Bytes input);

  // Takes the input out of the record (the executor consumes it once).
  Result<Bytes> TakeInput(uint64_t id);

  Status MarkRunning(uint64_t id, const std::string& host, bool cold_start);
  Status Complete(uint64_t id, int return_code, Bytes output);
  Status Fail(uint64_t id, const std::string& error);

  bool IsFinished(uint64_t id) const;
  // Blocks the calling activity until call `id` is done or failed (returns
  // at once for an unknown id). Complete and Fail wake it at the virtual
  // instant they record finished_at.
  void AwaitFinished(uint64_t id);
  Result<CallRecord> Get(uint64_t id) const;  // copies the record
  Result<Bytes> Output(uint64_t id) const;

  std::vector<CallRecord> FinishedRecords() const;
  size_t cold_start_count() const;

 private:
  // Completion wait queues, striped by call id: an awaiter wakes for its own
  // call and the few sharing its stripe, never for every call in the table.
  static constexpr size_t kFinishQueues = 64;
  WaitQueue& FinishQueue(uint64_t id) { return finish_queues_[id % kFinishQueues]; }

  Clock* clock_;
  std::array<WaitQueue, kFinishQueues> finish_queues_;
  mutable std::mutex mutex_;
  std::map<uint64_t, CallRecord> calls_;
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace faasm

#endif  // FAASM_RUNTIME_CALL_TABLE_H_
