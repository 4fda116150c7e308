#include "mem/dirty_tracker.h"

#include <algorithm>

namespace faasm {

namespace {
size_t ShiftFor(size_t line_bytes) {
  size_t shift = 0;
  while ((size_t{1} << shift) < line_bytes) {
    ++shift;
  }
  return shift;
}
}  // namespace

DirtyTracker::DirtyTracker(size_t size_bytes, size_t line_bytes)
    : line_bytes_(line_bytes),
      line_shift_(ShiftFor(line_bytes)),
      line_count_((size_bytes + line_bytes - 1) / line_bytes),
      words_(new std::atomic<uint64_t>[(line_count_ + 63) / 64]),
      word_count_((line_count_ + 63) / 64) {
  for (size_t i = 0; i < word_count_; ++i) {
    words_[i].store(0, std::memory_order_relaxed);
  }
}

void DirtyTracker::MarkDirty(size_t offset, size_t len) {
  if (len == 0 || line_count_ == 0) {
    return;
  }
  const size_t first = offset >> line_shift_;
  if (first >= line_count_) {
    return;  // entirely past the tracked extent (e.g. a mapping tail)
  }
  const size_t last = std::min((offset + len - 1) >> line_shift_, line_count_ - 1);
  if (!ever_marked_.load(std::memory_order_relaxed)) {
    ever_marked_.store(true, std::memory_order_relaxed);
  }
  for (size_t line = first; line <= last;) {
    const size_t word = line / 64;
    const size_t bit = line % 64;
    const size_t last_in_word = std::min(last, word * 64 + 63);
    uint64_t mask;
    if (bit == 0 && last_in_word == word * 64 + 63) {
      mask = ~uint64_t{0};
    } else {
      mask = 0;
      for (size_t l = line; l <= last_in_word; ++l) {
        mask |= uint64_t{1} << (l % 64);
      }
    }
    // Marking sits on the interpreter's store path; after the first store to
    // a line every further mark is redundant, so pay one relaxed load and
    // skip the RMW when the bits are already set.
    if ((words_[word].load(std::memory_order_relaxed) & mask) != mask) {
      words_[word].fetch_or(mask, std::memory_order_relaxed);
    }
    line = last_in_word + 1;
  }
}

bool DirtyTracker::any_dirty() const {
  for (size_t i = 0; i < word_count_; ++i) {
    if (words_[i].load(std::memory_order_relaxed) != 0) {
      return true;
    }
  }
  return false;
}

size_t DirtyTracker::dirty_line_count() const {
  size_t count = 0;
  for (size_t i = 0; i < word_count_; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(words_[i].load(std::memory_order_relaxed)));
  }
  return count;
}

std::vector<DirtyRun> DirtyTracker::ScanRuns(size_t first_line, size_t end_line, bool clear) {
  // Word-at-a-time scan: the common case (a mostly-clean bitmap, e.g. a warm
  // Faaslet reset) costs one relaxed load per 64 lines, so the scan stays in
  // the microsecond range even for multi-GB extents.
  std::vector<DirtyRun> runs;
  if (first_line >= end_line) {
    return runs;
  }
  size_t run_start = SIZE_MAX;
  auto close_run = [&](size_t line) {
    if (run_start != SIZE_MAX) {
      runs.push_back(DirtyRun{run_start << line_shift_, (line - run_start) << line_shift_});
      run_start = SIZE_MAX;
    }
  };
  const size_t first_word = first_line / 64;
  const size_t last_word = (end_line - 1) / 64;
  for (size_t w = first_word; w <= last_word; ++w) {
    // Bits outside the window read as clean. A clearing scan covers the
    // whole extent, and bits past line_count_ are never set.
    uint64_t window = ~uint64_t{0};
    if (w == first_word) {
      window &= ~uint64_t{0} << (first_line % 64);
    }
    if (w == last_word && end_line % 64 != 0) {
      window &= (uint64_t{1} << (end_line % 64)) - 1;
    }
    const uint64_t word = (clear ? words_[w].exchange(0, std::memory_order_relaxed)
                                 : words_[w].load(std::memory_order_relaxed)) &
                          window;
    if (word == 0) {
      close_run(w * 64);
      continue;
    }
    if (word == ~uint64_t{0}) {
      if (run_start == SIZE_MAX) {
        run_start = w * 64;
      }
      continue;
    }
    for (size_t bit = 0; bit < 64; ++bit) {
      const size_t line = w * 64 + bit;
      if ((word >> bit) & 1) {
        if (run_start == SIZE_MAX) {
          run_start = line;
        }
      } else {
        close_run(line);
      }
    }
  }
  close_run(end_line);
  return runs;
}

std::vector<DirtyRun> DirtyTracker::CollectDirtyRuns() const {
  return const_cast<DirtyTracker*>(this)->ScanRuns(0, line_count_, /*clear=*/false);
}

std::vector<DirtyRun> DirtyTracker::CollectDirtyRuns(size_t offset, size_t len) const {
  if (len == 0) {
    return {};
  }
  const size_t end = offset + len;
  const size_t end_line = std::min(((end - 1) >> line_shift_) + 1, line_count_);
  std::vector<DirtyRun> runs =
      const_cast<DirtyTracker*>(this)->ScanRuns(offset >> line_shift_, end_line, /*clear=*/false);
  for (DirtyRun& run : runs) {
    const size_t run_start = std::max(run.offset, offset);
    const size_t run_end = std::min(run.offset + run.len, end);
    run = DirtyRun{run_start, run_end - run_start};
  }
  return runs;
}

std::vector<DirtyRun> DirtyTracker::CollectAndClearDirtyRuns() {
  return ScanRuns(0, line_count_, /*clear=*/true);
}

void DirtyTracker::ClearDirty() {
  for (size_t i = 0; i < word_count_; ++i) {
    words_[i].store(0, std::memory_order_relaxed);
  }
}

}  // namespace faasm
