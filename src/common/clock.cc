#include "common/clock.h"

#include <thread>

namespace faasm {

bool Clock::WaitOn(WaitQueue& queue, const std::function<bool()>& pred, TimeNs deadline_ns) {
  while (true) {
    const uint64_t seen = queue.Seq();
    if (pred()) {
      return true;
    }
    if (!Park(queue, seen, deadline_ns)) {
      return pred();
    }
  }
}

TimeNs RealClock::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RealClock::SleepFor(TimeNs duration_ns) {
  if (duration_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(duration_ns));
  }
}

bool RealClock::Park(WaitQueue& queue, uint64_t seen, TimeNs deadline_ns) {
  std::unique_lock<std::mutex> lock(queue.mutex_);
  queue.parked_.fetch_add(1);
  const auto notified = [&] { return queue.seq_.load() != seen; };
  bool woken;
  if (deadline_ns == kNoDeadline) {
    queue.cv_.wait(lock, notified);
    woken = true;
  } else {
    // Now() reads steady_clock since its epoch, so deadlines map directly.
    const std::chrono::steady_clock::time_point deadline{std::chrono::nanoseconds(deadline_ns)};
    woken = queue.cv_.wait_until(lock, deadline, notified);
  }
  queue.parked_.fetch_sub(1);
  return woken;
}

void RealClock::Notify(WaitQueue& queue) {
  queue.seq_.fetch_add(1);
  if (queue.parked_.load() == 0) {
    return;
  }
  {
    // Taking the mutex orders the bump before a parker's predicate re-check.
    std::lock_guard<std::mutex> guard(queue.mutex_);
  }
  queue.cv_.notify_all();
}

RealClock& RealClock::Instance() {
  static RealClock clock;
  return clock;
}

}  // namespace faasm
