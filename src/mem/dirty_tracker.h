// DirtyTracker: a line-granular write bitmap. One tracker sits behind every
// SharedRegion (state replicas: which lines diverged from the global tier
// since the last push) and every LinearMemory (Faaslet private memory: which
// pages diverged from the creation snapshot since the last reset). Each
// consumer picks its line size: state replicas track 1 KiB lines
// (StateKeyValue::kStateLineBytes), so a small write pushes and replicates
// only the lines it touched; linear memory tracks 4 KiB host pages, the unit
// its delta reset restores. Both consumers turn the bitmap into coalesced
// byte runs — the delta-push wire ranges and the delta-reset restore ranges
// respectively.
//
// Marking is lock-free (relaxed fetch_or on 64-bit words) so HOGWILD-style
// writers on many executor threads can mark concurrently with a push
// collecting runs. CollectAndClearDirtyRuns grabs-and-zeroes each word
// atomically: a mark racing with a collection lands either in this
// collection or the next, never nowhere.
#ifndef FAASM_MEM_DIRTY_TRACKER_H_
#define FAASM_MEM_DIRTY_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace faasm {

// A byte range [offset, offset + len), line-aligned except where clipped at
// a query window.
struct DirtyRun {
  size_t offset = 0;
  size_t len = 0;

  bool operator==(const DirtyRun& other) const {
    return offset == other.offset && len == other.len;
  }
};

class DirtyTracker {
 public:
  // Tracks writes to [0, size_bytes) at `line_bytes` granularity (must be a
  // power of two). The extent is fixed at construction; marks past it are
  // clipped (writers may address a rounded-up mapping tail).
  DirtyTracker(size_t size_bytes, size_t line_bytes);

  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

  size_t line_bytes() const { return line_bytes_; }
  size_t line_count() const { return line_count_; }

  // Marks every line overlapping [offset, offset + len) dirty. Thread safe.
  void MarkDirty(size_t offset, size_t len);

  // True once MarkDirty has ever been called (not reset by ClearDirty). Lets
  // consumers distinguish "no writes since last collection" from "writers
  // that never report" and fall back to conservative full transfers for the
  // latter.
  bool ever_marked() const { return ever_marked_.load(std::memory_order_relaxed); }

  bool any_dirty() const;
  size_t dirty_line_count() const;

  // Coalesces runs of adjacent dirty lines into byte ranges, ascending by
  // offset. Does not clear the bitmap.
  std::vector<DirtyRun> CollectDirtyRuns() const;
  // The same, restricted to the lines overlapping [offset, offset + len),
  // with the runs clipped to that window.
  std::vector<DirtyRun> CollectDirtyRuns(size_t offset, size_t len) const;

  // Atomically grabs and clears the bitmap, returning the coalesced runs.
  // Marks racing with the collection survive into the next collection.
  // On a failed downstream transfer, re-mark the returned runs.
  std::vector<DirtyRun> CollectAndClearDirtyRuns();

  void ClearDirty();

 private:
  // Scans lines [first_line, end_line); `clear` requires the full extent.
  std::vector<DirtyRun> ScanRuns(size_t first_line, size_t end_line, bool clear);

  size_t line_bytes_;
  size_t line_shift_;
  size_t line_count_;
  std::unique_ptr<std::atomic<uint64_t>[]> words_;
  size_t word_count_;
  std::atomic<bool> ever_marked_{false};
};

}  // namespace faasm

#endif  // FAASM_MEM_DIRTY_TRACKER_H_
