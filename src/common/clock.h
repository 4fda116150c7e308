// Clock abstraction. Runtime components never call std::chrono directly;
// they take a Clock& so the same code runs against wall-clock time (real
// deployments, micro-benchmarks) and against the deterministic virtual clock
// of the cluster simulator (macro experiments).
//
// Besides telling and sleeping, a Clock is the one place a thread waits for
// another: it parks on a WaitQueue owned by the object it waits for (a
// mailbox, a call, a lock) and is made runnable by that object's Notify.
#ifndef FAASM_COMMON_CLOCK_H_
#define FAASM_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace faasm {

// Nanoseconds since an arbitrary epoch.
using TimeNs = int64_t;

constexpr TimeNs kMicrosecond = 1000;
constexpr TimeNs kMillisecond = 1000 * kMicrosecond;
constexpr TimeNs kSecond = 1000 * kMillisecond;
// Deadline of a wait that only a notify ends.
constexpr TimeNs kNoDeadline = INT64_MAX;

struct SimWaiter;  // sim/sim_clock.h

// A wait channel, owned by the thing waited for. Its sequence number counts
// notifies; a waiter reads it BEFORE checking its predicate and hands it to
// Clock::Park, which refuses to park if a notify slipped in between — so a
// wakeup racing the predicate check is never lost. One queue serves one
// Clock for its whole life.
class WaitQueue {
 public:
  WaitQueue() = default;
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  uint64_t Seq() const { return seq_.load(); }

 private:
  friend class RealClock;
  friend class SimClock;

  std::atomic<uint64_t> seq_{0};
  // Parked waiters, so Notify can skip the clock's lock when there are none
  // (seq_cst against seq_: a notifier that reads 0 here happened before the
  // parker's re-check of seq_, which then sees the bump).
  std::atomic<int> parked_{0};
  // RealClock parking.
  std::mutex mutex_;
  std::condition_variable cv_;
  // SimClock parking, guarded by that clock's mutex.
  std::vector<SimWaiter*> sim_waiters_;
};

class Clock {
 public:
  virtual ~Clock() = default;

  // Current time in nanoseconds.
  virtual TimeNs Now() const = 0;

  // Block (really or virtually) for the given duration.
  virtual void SleepFor(TimeNs duration_ns) = 0;

  // Parks the caller on `queue` until it is notified after `queue.Seq()`
  // read `seen`, or until `deadline_ns`. Returns true when notified —
  // immediately, if a notify already came after `seen` — and false when the
  // deadline passed first (at once if it already has).
  virtual bool Park(WaitQueue& queue, uint64_t seen, TimeNs deadline_ns = kNoDeadline) = 0;
  // Makes every waiter parked on `queue` runnable now.
  virtual void Notify(WaitQueue& queue) = 0;

  // Waits until `pred` holds, re-checking it whenever `queue` is notified.
  // The notifier must change what `pred` reads before calling Notify.
  // Returns pred()'s value once it holds or `deadline_ns` passed.
  bool WaitOn(WaitQueue& queue, const std::function<bool()>& pred,
              TimeNs deadline_ns = kNoDeadline);
};

// Monotonic wall-clock implementation.
class RealClock final : public Clock {
 public:
  TimeNs Now() const override;
  void SleepFor(TimeNs duration_ns) override;
  bool Park(WaitQueue& queue, uint64_t seen, TimeNs deadline_ns = kNoDeadline) override;
  void Notify(WaitQueue& queue) override;

  // Process-wide instance for call sites that have no injected clock.
  static RealClock& Instance();
};

// Scoped stopwatch measuring real elapsed nanoseconds, independent of any
// injected Clock (used to charge actually-executed compute to virtual time).
class Stopwatch {
 public:
  Stopwatch() { Reset(); }
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  TimeNs ElapsedNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                                start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace faasm

#endif  // FAASM_COMMON_CLOCK_H_
