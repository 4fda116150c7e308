#include "runtime/call_table.h"

namespace faasm {

uint64_t CallTable::Create(const std::string& function, Bytes input) {
  const uint64_t id = next_id_.fetch_add(1);
  CallRecord record;
  record.id = id;
  record.function = function;
  record.input = std::move(input);
  record.submitted_at = clock_->Now();
  std::lock_guard<std::mutex> guard(mutex_);
  calls_[id] = std::move(record);
  return id;
}

Result<Bytes> CallTable::TakeInput(uint64_t id) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = calls_.find(id);
  if (it == calls_.end()) {
    return NotFound("no call #" + std::to_string(id));
  }
  return std::move(it->second.input);
}

Status CallTable::MarkRunning(uint64_t id, const std::string& host, bool cold_start) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = calls_.find(id);
  if (it == calls_.end()) {
    return NotFound("no call #" + std::to_string(id));
  }
  it->second.state = CallState::kRunning;
  it->second.executed_on = host;
  it->second.cold_start = cold_start;
  it->second.started_at = clock_->Now();
  return OkStatus();
}

Status CallTable::Complete(uint64_t id, int return_code, Bytes output) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = calls_.find(id);
    if (it == calls_.end()) {
      return NotFound("no call #" + std::to_string(id));
    }
    it->second.state = CallState::kDone;
    it->second.return_code = return_code;
    it->second.output = std::move(output);
    it->second.finished_at = clock_->Now();
  }
  clock_->Notify(FinishQueue(id));
  return OkStatus();
}

Status CallTable::Fail(uint64_t id, const std::string& error) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = calls_.find(id);
    if (it == calls_.end()) {
      return NotFound("no call #" + std::to_string(id));
    }
    it->second.state = CallState::kFailed;
    it->second.error = error;
    it->second.return_code = -1;
    it->second.finished_at = clock_->Now();
  }
  clock_->Notify(FinishQueue(id));
  return OkStatus();
}

bool CallTable::IsFinished(uint64_t id) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = calls_.find(id);
  return it != calls_.end() &&
         (it->second.state == CallState::kDone || it->second.state == CallState::kFailed);
}

void CallTable::AwaitFinished(uint64_t id) {
  clock_->WaitOn(FinishQueue(id), [this, id] {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = calls_.find(id);
    return it == calls_.end() || it->second.state == CallState::kDone ||
           it->second.state == CallState::kFailed;
  });
}

Result<CallRecord> CallTable::Get(uint64_t id) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = calls_.find(id);
  if (it == calls_.end()) {
    return NotFound("no call #" + std::to_string(id));
  }
  return it->second;
}

Result<Bytes> CallTable::Output(uint64_t id) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = calls_.find(id);
  if (it == calls_.end()) {
    return NotFound("no call #" + std::to_string(id));
  }
  if (it->second.state != CallState::kDone) {
    return FailedPrecondition("call #" + std::to_string(id) + " not complete");
  }
  return it->second.output;
}

std::vector<CallRecord> CallTable::FinishedRecords() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<CallRecord> out;
  for (const auto& [id, record] : calls_) {
    if (record.state == CallState::kDone || record.state == CallState::kFailed) {
      out.push_back(record);
    }
  }
  return out;
}

size_t CallTable::cold_start_count() const {
  std::lock_guard<std::mutex> guard(mutex_);
  size_t count = 0;
  for (const auto& [id, record] : calls_) {
    count += record.cold_start ? 1 : 0;
  }
  return count;
}

}  // namespace faasm
