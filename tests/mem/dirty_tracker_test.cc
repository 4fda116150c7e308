// DirtyTracker tests: marking, run coalescing (adjacent and disjoint),
// clipping, clear semantics, ranged collection and the grab-and-clear
// collection used by delta push. Every test runs at the line sizes in use —
// 4 KiB host pages (linear memory's delta reset) and 1 KiB state lines
// (StateKeyValue::kStateLineBytes, state replicas' delta push) — and at a
// finer 512 B line.
#include "mem/dirty_tracker.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

namespace faasm {
namespace {

constexpr size_t kLineSizes[] = {4096, 1024, 512};

template <typename Body>
void ForEachLineSize(Body body) {
  for (size_t line : kLineSizes) {
    SCOPED_TRACE("line_bytes=" + std::to_string(line));
    body(line);
  }
}

TEST(DirtyTrackerTest, StartsClean) {
  ForEachLineSize([](size_t line) {
    DirtyTracker tracker(16 * line, line);
    EXPECT_EQ(tracker.line_bytes(), line);
    EXPECT_EQ(tracker.line_count(), 16u);
    EXPECT_FALSE(tracker.ever_marked());
    EXPECT_FALSE(tracker.any_dirty());
    EXPECT_EQ(tracker.dirty_line_count(), 0u);
    EXPECT_TRUE(tracker.CollectDirtyRuns().empty());
  });
}

TEST(DirtyTrackerTest, MarkCoversEveryTouchedPage) {
  ForEachLineSize([](size_t line) {
    DirtyTracker tracker(16 * line, line);
    // 2 bytes straddling the line 1/2 boundary dirty both lines.
    tracker.MarkDirty(2 * line - 1, 2);
    EXPECT_TRUE(tracker.ever_marked());
    EXPECT_EQ(tracker.dirty_line_count(), 2u);
    const auto runs = tracker.CollectDirtyRuns();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (DirtyRun{line, 2 * line}));
  });
}

TEST(DirtyTrackerTest, SmallWriteMarksOnlyItsLine) {
  // An 8-byte write dirties exactly the line holding it, whatever the line
  // size.
  ForEachLineSize([](size_t line) {
    DirtyTracker tracker(4 * 4096, line);
    tracker.MarkDirty(4096 + 8, 8);
    const auto runs = tracker.CollectDirtyRuns();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (DirtyRun{4096, line}));
  });
}

TEST(DirtyTrackerTest, AdjacentMarksCoalesceIntoOneRun) {
  ForEachLineSize([](size_t line) {
    DirtyTracker tracker(16 * line, line);
    tracker.MarkDirty(3 * line, line);
    tracker.MarkDirty(4 * line, 10);
    tracker.MarkDirty(5 * line + 100, 50);
    const auto runs = tracker.CollectDirtyRuns();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (DirtyRun{3 * line, 3 * line}));
  });
}

TEST(DirtyTrackerTest, DisjointMarksStayDisjointRuns) {
  ForEachLineSize([](size_t line) {
    DirtyTracker tracker(16 * line, line);
    tracker.MarkDirty(0, 1);
    tracker.MarkDirty(5 * line, 1);
    tracker.MarkDirty(15 * line, line);
    const auto runs = tracker.CollectDirtyRuns();
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0], (DirtyRun{0, line}));
    EXPECT_EQ(runs[1], (DirtyRun{5 * line, line}));
    EXPECT_EQ(runs[2], (DirtyRun{15 * line, line}));
  });
}

TEST(DirtyTrackerTest, RunsSpanWordBoundaries) {
  ForEachLineSize([](size_t line) {
    // 200 lines > three 64-line bitmap words; one run across all of them.
    DirtyTracker tracker(200 * line, line);
    tracker.MarkDirty(10 * line, 180 * line);
    const auto runs = tracker.CollectDirtyRuns();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (DirtyRun{10 * line, 180 * line}));
  });
}

TEST(DirtyTrackerTest, FullExtentRunClosesAtLastPage) {
  ForEachLineSize([](size_t line) {
    DirtyTracker tracker(64 * line, line);  // exactly one bitmap word
    tracker.MarkDirty(0, 64 * line);
    const auto runs = tracker.CollectDirtyRuns();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (DirtyRun{0, 64 * line}));
  });
}

TEST(DirtyTrackerTest, MarksPastExtentAreClipped) {
  ForEachLineSize([](size_t line) {
    DirtyTracker tracker(4 * line, line);
    tracker.MarkDirty(10 * line, line);  // entirely past: dropped
    EXPECT_FALSE(tracker.any_dirty());
    tracker.MarkDirty(3 * line + 1, 4 * line);  // straddles the end: clipped
    const auto runs = tracker.CollectDirtyRuns();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (DirtyRun{3 * line, line}));
  });
}

TEST(DirtyTrackerTest, RangedCollectionClipsToWindow) {
  ForEachLineSize([](size_t line) {
    DirtyTracker tracker(200 * line, line);
    tracker.MarkDirty(2 * line, 3 * line);     // lines 2..4
    tracker.MarkDirty(60 * line, 10 * line);   // lines 60..69, across a word
    tracker.MarkDirty(150 * line, 1);          // line 150, outside the window
    // Window [3 * line + 7, 65 * line + 1): the first run is clipped at its
    // start, the second at its end, and line 150 is not reported.
    const auto runs = tracker.CollectDirtyRuns(3 * line + 7, 62 * line - 6);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0], (DirtyRun{3 * line + 7, 2 * line - 7}));
    EXPECT_EQ(runs[1], (DirtyRun{60 * line, 5 * line + 1}));
    // Windows past the extent, empty windows and clean windows report none.
    EXPECT_TRUE(tracker.CollectDirtyRuns(300 * line, line).empty());
    EXPECT_TRUE(tracker.CollectDirtyRuns(2 * line, 0).empty());
    EXPECT_TRUE(tracker.CollectDirtyRuns(100 * line, 40 * line).empty());
    // A window reaching past the extent clips to it.
    tracker.MarkDirty(199 * line, line);
    const auto tail = tracker.CollectDirtyRuns(190 * line, 100 * line);
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0], (DirtyRun{199 * line, line}));
    // The ranged view leaves the bitmap as it was.
    EXPECT_EQ(tracker.dirty_line_count(), 15u);
  });
}

TEST(DirtyTrackerTest, ClearDirtyKeepsEverMarked) {
  ForEachLineSize([](size_t line) {
    DirtyTracker tracker(16 * line, line);
    tracker.MarkDirty(0, 1);
    tracker.ClearDirty();
    EXPECT_FALSE(tracker.any_dirty());
    EXPECT_TRUE(tracker.CollectDirtyRuns().empty());
    // ever_marked survives: consumers still know this value has a reporting
    // writer and must not fall back to full transfers.
    EXPECT_TRUE(tracker.ever_marked());
  });
}

TEST(DirtyTrackerTest, CollectAndClearGrabsAtomically) {
  ForEachLineSize([](size_t line) {
    DirtyTracker tracker(16 * line, line);
    tracker.MarkDirty(2 * line, line);
    const auto runs = tracker.CollectAndClearDirtyRuns();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_FALSE(tracker.any_dirty());
    // A failed downstream transfer re-marks the runs and the next collection
    // sees them again.
    tracker.MarkDirty(runs[0].offset, runs[0].len);
    EXPECT_EQ(tracker.CollectDirtyRuns(), runs);
  });
}

TEST(DirtyTrackerTest, ConcurrentMarksAllLand) {
  ForEachLineSize([](size_t line) {
    DirtyTracker tracker(256 * line, line);
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([&tracker, line, t] {
        for (size_t l = t; l < 256; l += 4) {
          tracker.MarkDirty(l * line, 1);
        }
      });
    }
    for (auto& writer : writers) {
      writer.join();
    }
    EXPECT_EQ(tracker.dirty_line_count(), 256u);
    const auto runs = tracker.CollectDirtyRuns();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (DirtyRun{0, 256 * line}));
  });
}

TEST(DirtyTrackerTest, ConcurrentMarksSurviveCollection) {
  // Writers mark while a pusher grabs-and-clears: every mark lands in exactly
  // one collection, so the union of all collections covers every line.
  ForEachLineSize([](size_t line) {
    DirtyTracker tracker(256 * line, line);
    std::vector<bool> seen(256, false);
    std::atomic<bool> done{false};
    auto absorb = [&](const std::vector<DirtyRun>& runs) {
      for (const DirtyRun& run : runs) {
        for (size_t l = run.offset / line; l < (run.offset + run.len) / line; ++l) {
          seen[l] = true;
        }
      }
    };
    std::thread collector([&] {
      while (!done.load()) {
        absorb(tracker.CollectAndClearDirtyRuns());
      }
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([&tracker, line, t] {
        for (size_t l = t; l < 256; l += 4) {
          tracker.MarkDirty(l * line + 3, 2);
        }
      });
    }
    for (auto& writer : writers) {
      writer.join();
    }
    done.store(true);
    collector.join();
    absorb(tracker.CollectAndClearDirtyRuns());
    for (size_t l = 0; l < 256; ++l) {
      EXPECT_TRUE(seen[l]) << "line " << l;
    }
  });
}

}  // namespace
}  // namespace faasm
