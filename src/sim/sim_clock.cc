#include "sim/sim_clock.h"

#include <algorithm>
#include <cassert>

namespace faasm {

TimeNs SimClock::Now() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return now_;
}

void SimClock::RegisterThread() {
  std::lock_guard<std::mutex> guard(mutex_);
  ++runnable_;
}

void SimClock::UnregisterThread() {
  std::lock_guard<std::mutex> guard(mutex_);
  --runnable_;
  AdvanceIfIdleLocked();
}

void SimClock::SleepFor(TimeNs duration_ns) {
  if (duration_ns <= 0) {
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  SleepUntilLockedImpl(lock, now_ + duration_ns);
}

void SimClock::SleepUntil(TimeNs deadline_ns) {
  std::unique_lock<std::mutex> lock(mutex_);
  SleepUntilLockedImpl(lock, deadline_ns);
}

void SimClock::SleepUntilLockedImpl(std::unique_lock<std::mutex>& lock, TimeNs deadline_ns) {
  if (deadline_ns <= now_) {
    return;
  }
  Waiter waiter;
  waiter.deadline = deadline_ns;
  waiters_.push_back(&waiter);
  --runnable_;
  AdvanceIfIdleLocked();
  waiter.cv.wait(lock, [&] { return waiter.ready; });
}

void SimClock::AdvanceIfIdleLocked() {
  while (runnable_ == 0 && !waiters_.empty()) {
    TimeNs min_deadline = INT64_MAX;
    for (Waiter* w : waiters_) {
      min_deadline = std::min(min_deadline, w->deadline);
    }
    if (min_deadline == INT64_MAX) {
      return;  // all threads blocked outside the clock; nothing to advance
    }
    now_ = std::max(now_, min_deadline);
    // Wake every waiter whose deadline has arrived.
    std::vector<Waiter*> remaining;
    remaining.reserve(waiters_.size());
    for (Waiter* w : waiters_) {
      if (w->deadline <= now_) {
        w->ready = true;
        ++runnable_;
        w->cv.notify_one();
      } else {
        remaining.push_back(w);
      }
    }
    waiters_.swap(remaining);
    return;  // woke at least one thread
  }
}

bool SimClock::WaitFor(const std::function<bool()>& pred, TimeNs quantum_ns, TimeNs deadline_ns) {
  while (true) {
    if (pred()) {
      return true;
    }
    if (Now() >= deadline_ns) {
      return pred();
    }
    SleepFor(quantum_ns);
  }
}

SimExecutor::~SimExecutor() { JoinAll(); }

void SimExecutor::Spawn(std::function<void()> fn) {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> guard(threads_mutex_);
    for (uint64_t id : finished_) {
      auto it = threads_.find(id);
      if (it != threads_.end()) {  // absent if JoinAll already took it
        to_join.push_back(std::move(it->second));
        threads_.erase(it);
      }
    }
    finished_.clear();
    // Register on the spawner's side so the clock cannot advance past the new
    // activity's start in the window before the thread begins running.
    clock_.RegisterThread();
    const uint64_t id = next_activity_++;
    // The new thread cannot report itself finished before it is in threads_:
    // that needs threads_mutex_, held until the emplace is done.
    threads_.emplace(id, std::thread([this, id, fn = std::move(fn)]() mutable {
                       fn();
                       fn = nullptr;  // captures die before the activity counts as finished
                       clock_.UnregisterThread();
                       std::lock_guard<std::mutex> done(threads_mutex_);
                       finished_.push_back(id);
                     }));
  }
  // A finished activity only has to return from its thread function, so
  // these joins do not wait on the simulation.
  for (auto& thread : to_join) {
    thread.join();
  }
}

void SimExecutor::JoinAll() {
  // Joining must not hold the mutex: running activities may Spawn() children
  // and report themselves finished. Loop until no new threads appear.
  while (true) {
    std::vector<std::thread> to_join;
    {
      std::lock_guard<std::mutex> guard(threads_mutex_);
      if (threads_.empty()) {
        finished_.clear();
        return;
      }
      for (auto& [id, thread] : threads_) {
        to_join.push_back(std::move(thread));
      }
      threads_.clear();
    }
    for (auto& thread : to_join) {
      thread.join();
    }
  }
}

}  // namespace faasm
