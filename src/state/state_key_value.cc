#include "state/state_key_value.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"

namespace faasm {

StateKeyValue::StateKeyValue(std::string key, KvsClient* kvs, Clock* clock)
    : key_(std::move(key)), kvs_(kvs), clock_(clock), local_lock_(clock) {}

Status StateKeyValue::EnsureCapacity(size_t size) {
  if (region_ != nullptr) {
    if (size > region_->mapped_size()) {
      return ResourceExhausted("state value '" + key_ + "' exceeds replica capacity");
    }
    size_ = std::max(size_, size);
    return OkStatus();
  }
  FAASM_ASSIGN_OR_RETURN(auto region, SharedRegion::Create("state:" + key_, size, kStateLineBytes));
  region_ = std::move(region);
  size_ = size;
  {
    std::lock_guard<std::mutex> guard(pages_mutex_);
    page_present_.assign((size + kStatePageBytes - 1) / kStatePageBytes, false);
  }
  return OkStatus();
}

uint8_t* StateKeyValue::data() { return region_ == nullptr ? nullptr : region_->host_view(); }

uint8_t* StateKeyValue::WritableData(size_t offset, size_t len) {
  if (region_ == nullptr || offset + len > size_ || offset + len < offset) {
    return nullptr;
  }
  // Write-allocate the partially covered boundary lines: a delta push ships
  // whole lines, so a dirty line the replica never pulled would push local
  // zeros over live bytes in the global tier. Pulling the line's page first
  // makes the later line-granular push a faithful read-modify-write. Lines
  // the range covers end to end need nothing: the caller overwrites every
  // byte. (A missing global value has nothing to clobber; that pull failure
  // is ignored.)
  if (len > 0) {
    auto fill_if_partial = [this](size_t line_start, size_t covered_from, size_t covered_to) {
      const size_t line_end = std::min(line_start + kStateLineBytes, size_);
      if (covered_from <= line_start && covered_to >= line_end) {
        return;
      }
      const size_t page = line_start / kStatePageBytes;
      {
        std::lock_guard<std::mutex> guard(pages_mutex_);
        if (page >= page_present_.size() || page_present_[page]) {
          return;
        }
      }
      const size_t page_start = page * kStatePageBytes;
      (void)PullChunk(page_start, std::min(page_start + kStatePageBytes, size_) - page_start);
    };
    const size_t first_line_start = (offset / kStateLineBytes) * kStateLineBytes;
    const size_t last_line_start = ((offset + len - 1) / kStateLineBytes) * kStateLineBytes;
    fill_if_partial(first_line_start, offset, offset + len);
    if (last_line_start != first_line_start) {
      fill_if_partial(last_line_start, offset, offset + len);
    }
  }
  MarkDirty(offset, len);
  return region_->host_view() + offset;
}

void StateKeyValue::MarkDirty(size_t offset, size_t len) {
  if (region_ != nullptr) {
    region_->dirty().MarkDirty(offset, len);
  }
}

Status StateKeyValue::FetchRange(size_t offset, size_t len) {
  // Whole-value fetches go out as whole-value reads so the per-host read
  // cache (when enabled) can serve and be refreshed by them; partial fetches
  // stay ranged and never populate the cache.
  ReadOptions options;
  options.offset = offset;
  if (offset != 0 || len < size_) {
    options.len = len;
  }
  FAASM_ASSIGN_OR_RETURN(Bytes chunk, kvs_->Read(key_, options));
  return InstallFetched(offset, len, chunk);
}

Status StateKeyValue::InstallFetched(size_t offset, size_t len, const Bytes& bytes) {
  // A reply longer than the range is a value grown since sizing; a shorter
  // one is a value shorter than the replica.
  const size_t copied = std::min(len, bytes.size());
  if (offset + copied > region_->mapped_size()) {
    return Internal("state fetch larger than replica");
  }
  // Dirty lines hold unpushed local writes (e.g. whole lines written into a
  // page the replica never pulled); the fetched bytes fill only the clean
  // lines around them.
  const std::vector<DirtyRun> dirty = region_->dirty().CollectDirtyRuns(offset, copied);
  LockWrite();
  size_t cursor = offset;
  auto copy_to = [&](size_t end) {
    std::memcpy(region_->host_view() + cursor, bytes.data() + (cursor - offset), end - cursor);
  };
  for (const DirtyRun& run : dirty) {
    copy_to(run.offset);
    cursor = run.offset + run.len;
  }
  copy_to(offset + copied);
  UnlockWrite();
  if (len > 0) {
    std::lock_guard<std::mutex> guard(pages_mutex_);
    const size_t end_page = std::min((offset + len - 1) / kStatePageBytes + 1, page_present_.size());
    for (size_t page = offset / kStatePageBytes; page < end_page; ++page) {
      SetPresentLocked(page, true);
    }
  }
  return OkStatus();
}

Status StateKeyValue::Pull() {
  // Sync point: a pull must observe this host's own earlier (possibly still
  // batched) pushes, so the pending batch flushes first.
  FAASM_RETURN_IF_ERROR(kvs_->FlushBatch());
  if (pulled_fresh_.exchange(false)) {
    return OkStatus();  // a Prefetch installed the value since the last invalidation
  }
  std::unique_lock<std::mutex> pages_guard(pages_mutex_);
  const size_t resident = present_pages_;
  const size_t pages = page_present_.size();
  pages_guard.unlock();
  if (resident == 0) {
    // Cold: one whole-value read, sized by its reply. It takes the read
    // cache or a co-located backup when either can serve it.
    FAASM_ASSIGN_OR_RETURN(Bytes value, kvs_->Read(key_));
    return InstallValue(value);
  }
  if (resident == pages) {
    return OkStatus();  // warm: every page is local, so there is nothing to fetch
  }
  // Partial: size the value, then fetch only the missing pages.
  FAASM_ASSIGN_OR_RETURN(uint64_t global_size, kvs_->Size(key_));
  FAASM_RETURN_IF_ERROR(EnsureCapacity(global_size));
  {
    // Grown since the last install: the page holding the old end is present
    // but stops at the old length, so it is refetched (its dirty lines stay).
    std::lock_guard<std::mutex> guard(pages_mutex_);
    if (global_size > value_len_ && value_len_ % kStatePageBytes != 0) {
      SetPresentLocked(value_len_ / kStatePageBytes, false);
    }
    value_len_ = global_size;
  }
  return PullChunk(0, global_size);
}

Status StateKeyValue::InstallPulled(const Bytes& value) {
  InvalidateReplica();
  FAASM_RETURN_IF_ERROR(InstallValue(value));
  pulled_fresh_.store(true, std::memory_order_release);
  return OkStatus();
}

Status StateKeyValue::InstallValue(const Bytes& value) {
  FAASM_RETURN_IF_ERROR(EnsureCapacity(value.size()));
  FAASM_RETURN_IF_ERROR(InstallFetched(0, value.size(), value));
  std::lock_guard<std::mutex> guard(pages_mutex_);
  value_len_ = value.size();
  return OkStatus();
}

Status StateKeyValue::PullChunk(size_t offset, size_t len) {
  // Sync point, as in Pull(). FlushBatch is a cheap no-op when idle, so the
  // hot chunked-pull path pays only an uncontended lock when not batching.
  FAASM_RETURN_IF_ERROR(kvs_->FlushBatch());
  if (region_ == nullptr) {
    // Chunked access without prior sizing: allocate at the global size.
    FAASM_ASSIGN_OR_RETURN(uint64_t global_size, kvs_->Size(key_));
    FAASM_RETURN_IF_ERROR(EnsureCapacity(global_size));
  }
  if (len == 0) {
    return OkStatus();
  }
  if (offset + len > size_) {
    return OutOfRange("pull chunk past end of state value '" + key_ + "'");
  }
  const size_t first_page = offset / kStatePageBytes;
  const size_t last_page = (offset + len - 1) / kStatePageBytes;

  // Coalesce runs of missing pages into single ranged fetches.
  size_t run_start = SIZE_MAX;
  for (size_t page = first_page; page <= last_page + 1; ++page) {
    bool missing = false;
    if (page <= last_page) {
      std::lock_guard<std::mutex> guard(pages_mutex_);
      missing = !page_present_[page];
    }
    if (missing && run_start == SIZE_MAX) {
      run_start = page;
    } else if (!missing && run_start != SIZE_MAX) {
      const size_t byte_start = run_start * kStatePageBytes;
      const size_t byte_end = std::min(size_, page * kStatePageBytes);
      FAASM_RETURN_IF_ERROR(FetchRange(byte_start, byte_end - byte_start));
      run_start = SIZE_MAX;
    }
  }
  return OkStatus();
}

Status StateKeyValue::Push() {
  if (region_ == nullptr) {
    return FailedPrecondition("push before any local write to '" + key_ + "'");
  }
  if (!region_->dirty().ever_marked()) {
    // No writer has ever reported through the write API: the tracker is
    // blind, so the only safe push is the whole value.
    return PushChunk(0, size_);
  }
  std::vector<DirtyRun> runs = region_->dirty().CollectAndClearDirtyRuns();
  // The tracker covers the whole mapped region; clip runs to the value.
  std::vector<ValueRange> ranges;
  ranges.reserve(runs.size());
  LockRead();
  for (DirtyRun& run : runs) {
    if (run.offset >= size_) {
      run.len = 0;
      continue;
    }
    run.len = std::min(run.len, size_ - run.offset);
    Bytes staging(run.len);
    std::memcpy(staging.data(), region_->host_view() + run.offset, run.len);
    ranges.push_back(ValueRange{run.offset, std::move(staging)});
  }
  UnlockRead();
  // Adjacent/overlapping runs fuse into maximal wire ranges (runs clipped at
  // the value tail, or re-marked after a failed push, can touch).
  ranges = MergeValueRanges(std::move(ranges));
  if (ranges.empty()) {
    return OkStatus();  // nothing dirtied since the last push
  }

  if (kvs_->batching_enabled()) {
    return PushRangesBatched(std::move(ranges));
  }

  Status pushed = kvs_->SetRanges(key_, ranges);
  if (!pushed.ok()) {
    // The global tier never saw the runs; put them back for the next push.
    RemarkRanges(ranges);
    return pushed;
  }
  MarkRangesPresent(ranges);
  return OkStatus();
}

Status StateKeyValue::PushRangesBatched(std::vector<ValueRange> ranges) {
  // Enqueue into the client's ambient batch. The ack fires exactly once with
  // the op's final status (after any kWrongMaster redirects) and settles the
  // replica bookkeeping; it may run on another activity's flush, so it only
  // touches thread-safe members. The shared_ptr keeps the region alive even
  // if this replica is dropped before a late flush.
  auto ack = std::make_shared<PushAck>();
  std::vector<DirtyRun> runs;  // offsets/lengths only, for the bookkeeping
  runs.reserve(ranges.size());
  for (const ValueRange& range : ranges) {
    runs.push_back(DirtyRun{range.offset, range.bytes.size()});
  }
  kvs_->EnqueueSetRanges(
      key_, std::move(ranges),
      [this, clock = clock_, region = region_, runs = std::move(runs), ack](const Status& status) {
        if (status.ok()) {
          std::lock_guard<std::mutex> guard(pages_mutex_);
          for (const DirtyRun& run : runs) {
            MarkPushedRangePresentLocked(run.offset, run.len);
          }
        } else {
          // The global tier never saw the runs; put them back for the next
          // push.
          for (const DirtyRun& run : runs) {
            region->dirty().MarkDirty(run.offset, run.len);
          }
        }
        ack->status = status;
        ack->done.store(true, std::memory_order_release);
        clock->Notify(ack->acked);
      });

  if (kvs_->InBatchScope()) {
    // Deferred: the op is acked at the scope's flush barrier (or any other
    // sync-point flush). "Accepted", not yet durable.
    return OkStatus();
  }
  // No scope open: every push is its own barrier — flush now and report THIS
  // op's status (a concurrent flush may have taken the op; wait for its ack
  // rather than trusting the aggregate).
  FAASM_RETURN_IF_ERROR(kvs_->FlushBatch());
  clock_->WaitOn(ack->acked, [&] { return ack->done.load(std::memory_order_acquire); });
  return ack->status;
}

void StateKeyValue::RemarkRanges(const std::vector<ValueRange>& ranges) {
  for (const ValueRange& range : ranges) {
    region_->dirty().MarkDirty(range.offset, range.bytes.size());
  }
}

void StateKeyValue::MarkRangesPresent(const std::vector<ValueRange>& ranges) {
  std::lock_guard<std::mutex> guard(pages_mutex_);
  for (const ValueRange& range : ranges) {
    MarkPushedRangePresentLocked(range.offset, range.bytes.size());
  }
}

Status StateKeyValue::PushFull() {
  if (region_ == nullptr) {
    return FailedPrecondition("push before any local write to '" + key_ + "'");
  }
  // The full value supersedes any pending delta.
  region_->dirty().ClearDirty();
  return PushChunk(0, size_);
}

Status StateKeyValue::PushChunk(size_t offset, size_t len) {
  if (region_ == nullptr) {
    return FailedPrecondition("push before any local write to '" + key_ + "'");
  }
  if (offset + len > size_) {
    return OutOfRange("push chunk past end of state value '" + key_ + "'");
  }
  Bytes staging(len);
  LockRead();
  std::memcpy(staging.data(), region_->host_view() + offset, len);
  UnlockRead();
  FAASM_RETURN_IF_ERROR(kvs_->SetRange(key_, offset, staging));
  std::lock_guard<std::mutex> guard(pages_mutex_);
  MarkPushedRangePresentLocked(offset, len);
  return OkStatus();
}

void StateKeyValue::MarkPushedRangePresentLocked(size_t offset, size_t len) {
  if (len == 0) {
    return;
  }
  // Only pages the push covered END TO END are now guaranteed in sync with
  // the global tier. A boundary page covered partially may still hold bytes
  // the replica never pulled; marking it present would make a later
  // PullChunk skip the fetch and read local zeros (the partial-page bug).
  const size_t end = offset + len;
  const size_t first_full = (offset + kStatePageBytes - 1) / kStatePageBytes;
  for (size_t p = first_full; p < page_present_.size(); ++p) {
    const size_t page_end = std::min((p + 1) * kStatePageBytes, size_);
    if (page_end > end) {
      break;
    }
    SetPresentLocked(p, true);
  }
}

Status StateKeyValue::Append(const Bytes& bytes) {
  auto result = kvs_->Append(key_ + ":log", bytes);
  return result.status();
}

Result<Bytes> StateKeyValue::ReadAppended() { return kvs_->Read(key_ + ":log"); }

Status StateKeyValue::LockGlobalRead() {
  FAASM_RETURN_IF_ERROR(kvs_->FlushBatch());  // sync point
  while (true) {
    FAASM_ASSIGN_OR_RETURN(bool acquired, kvs_->TryLockRead(key_));
    if (acquired) {
      RefreshForLock();
      return OkStatus();
    }
    clock_->SleepFor(100 * kMicrosecond);
  }
}

Status StateKeyValue::LockGlobalWrite() {
  FAASM_RETURN_IF_ERROR(kvs_->FlushBatch());  // sync point
  while (true) {
    FAASM_ASSIGN_OR_RETURN(bool acquired, kvs_->TryLockWrite(key_));
    if (acquired) {
      RefreshForLock();
      return OkStatus();
    }
    clock_->SleepFor(100 * kMicrosecond);
  }
}

void StateKeyValue::RefreshForLock() {
  // Under a freshly acquired global lock the replica must re-pull anything it
  // cached before the lock (the lock holder it waited on may have pushed).
  // Clean pages lose their present bit; pages overlapping unpushed local
  // writes stay, or the refetch would read global bytes over them.
  pulled_fresh_.store(false, std::memory_order_release);
  if (region_ == nullptr) {
    return;
  }
  std::vector<DirtyRun> dirty = region_->dirty().CollectDirtyRuns();
  std::lock_guard<std::mutex> guard(pages_mutex_);
  std::fill(page_present_.begin(), page_present_.end(), false);
  present_pages_ = 0;
  for (const DirtyRun& run : dirty) {
    if (run.len == 0 || run.offset >= size_) {
      continue;
    }
    const size_t first = run.offset / kStatePageBytes;
    const size_t last = (run.offset + run.len - 1) / kStatePageBytes;
    for (size_t p = first; p <= last && p < page_present_.size(); ++p) {
      SetPresentLocked(p, true);
    }
  }
}

Status StateKeyValue::UnlockGlobalRead() {
  // Sync point: updates made under the lock must be durable before the lock
  // is released, or the next acquirer could read stale global bytes.
  FAASM_RETURN_IF_ERROR(kvs_->FlushBatch());
  return kvs_->UnlockRead(key_);
}
Status StateKeyValue::UnlockGlobalWrite() {
  FAASM_RETURN_IF_ERROR(kvs_->FlushBatch());  // sync point (see UnlockGlobalRead)
  return kvs_->UnlockWrite(key_);
}

void StateKeyValue::InvalidateReplica() {
  pulled_fresh_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> guard(pages_mutex_);
  std::fill(page_present_.begin(), page_present_.end(), false);
  present_pages_ = 0;
}

size_t StateKeyValue::resident_pages() const {
  std::lock_guard<std::mutex> guard(pages_mutex_);
  return present_pages_;
}

void StateKeyValue::SetPresentLocked(size_t page, bool present) {
  present_pages_ = present_pages_ + present - page_present_[page];
  page_present_[page] = present;
}

}  // namespace faasm
