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
  Waiter waiter;
  waiter.deadline = now_ + duration_ns;
  BlockLocked(lock, waiter);
}

void SimClock::SleepUntil(TimeNs deadline_ns) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (deadline_ns <= now_) {
    return;
  }
  Waiter waiter;
  waiter.deadline = deadline_ns;
  BlockLocked(lock, waiter);
}

bool SimClock::Park(WaitQueue& queue, uint64_t seen, TimeNs deadline_ns) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Count ourselves parked BEFORE re-checking the sequence number: a
  // notifier that bumped it after `seen` either sees the count (and takes
  // the lock to wake us) or bumped it early enough for this check to fail.
  queue.parked_.fetch_add(1);
  const bool notified = queue.seq_.load() != seen;
  if (notified || deadline_ns <= now_) {
    queue.parked_.fetch_sub(1);
    return notified;
  }
  Waiter waiter;
  waiter.deadline = deadline_ns;
  waiter.queue = &queue;
  queue.sim_waiters_.push_back(&waiter);
  BlockLocked(lock, waiter);
  return waiter.notified;
}

void SimClock::Notify(WaitQueue& queue) {
  queue.seq_.fetch_add(1);
  if (queue.parked_.load() == 0) {
    return;  // nobody parked; a parker still on its way sees the new seq
  }
  std::lock_guard<std::mutex> guard(mutex_);
  if (queue.sim_waiters_.empty()) {
    return;
  }
  for (Waiter* w : queue.sim_waiters_) {
    w->notified = true;
    w->ready = true;
    ++runnable_;
    w->cv.notify_one();  // it wakes once we release mutex_, so *w stays valid
  }
  queue.parked_.fetch_sub(static_cast<int>(queue.sim_waiters_.size()));
  queue.sim_waiters_.clear();
  waiters_.erase(std::remove_if(waiters_.begin(), waiters_.end(),
                                [](const Waiter* w) { return w->ready; }),
                 waiters_.end());
}

void SimClock::BlockLocked(std::unique_lock<std::mutex>& lock, Waiter& waiter) {
  waiters_.push_back(&waiter);
  --runnable_;
  AdvanceIfIdleLocked();
  waiter.cv.wait(lock, [&] { return waiter.ready; });
}

void SimClock::WakeLocked(Waiter& waiter) {
  waiter.ready = true;
  ++runnable_;
  if (waiter.queue != nullptr) {
    std::vector<Waiter*>& parked = waiter.queue->sim_waiters_;
    parked.erase(std::find(parked.begin(), parked.end(), &waiter));
    waiter.queue->parked_.fetch_sub(1);
  }
  waiter.cv.notify_one();
}

void SimClock::AdvanceIfIdleLocked() {
  if (runnable_ != 0 || waiters_.empty()) {
    return;
  }
  TimeNs min_deadline = kNoDeadline;
  for (Waiter* w : waiters_) {
    min_deadline = std::min(min_deadline, w->deadline);
  }
  if (min_deadline == kNoDeadline) {
    return;  // every thread waits for a notify (or outside the clock)
  }
  now_ = std::max(now_, min_deadline);
  // Wake every waiter whose deadline has arrived.
  std::vector<Waiter*> remaining;
  remaining.reserve(waiters_.size());
  for (Waiter* w : waiters_) {
    if (w->deadline <= now_) {
      WakeLocked(*w);
    } else {
      remaining.push_back(w);
    }
  }
  waiters_.swap(remaining);
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
