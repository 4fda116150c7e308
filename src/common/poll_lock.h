// PollLock: a readers/writer lock whose blocked acquirers park on a Clock
// wait queue instead of in the kernel. Under the virtual-time executor a
// thread blocked in a plain mutex would still count as runnable and stall the
// clock; PollLock keeps every wait visible to the clock, so the same state
// code runs identically under RealClock and SimClock. A release notifies the
// queue only when someone waits, so an uncontended lock never touches it.
//
// The internal mutex is held only for counter updates — never across waits.
#ifndef FAASM_COMMON_POLL_LOCK_H_
#define FAASM_COMMON_POLL_LOCK_H_

#include <mutex>

#include "common/clock.h"

namespace faasm {

class PollLock {
 public:
  explicit PollLock(Clock* clock) : clock_(clock) {}

  bool TryLockRead() {
    std::lock_guard<std::mutex> guard(mutex_);
    if (writer_) {
      return false;
    }
    ++readers_;
    return true;
  }

  bool TryLockWrite() {
    std::lock_guard<std::mutex> guard(mutex_);
    if (writer_ || readers_ > 0) {
      return false;
    }
    writer_ = true;
    return true;
  }

  void LockRead() {
    std::unique_lock<std::mutex> lock(mutex_);
    WaitLocked(lock, [this] { return !writer_; });
    ++readers_;
  }

  void LockWrite() {
    std::unique_lock<std::mutex> lock(mutex_);
    WaitLocked(lock, [this] { return !writer_ && readers_ == 0; });
    writer_ = true;
  }

  void UnlockRead() {
    bool wake;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      --readers_;
      wake = readers_ == 0 && waiters_ > 0;
    }
    if (wake) {
      clock_->Notify(released_);
    }
  }

  void UnlockWrite() {
    bool wake;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      writer_ = false;
      wake = waiters_ > 0;
    }
    if (wake) {
      clock_->Notify(released_);
    }
  }

  // RAII helpers.
  class ReadGuard {
   public:
    explicit ReadGuard(PollLock& lock) : lock_(lock) { lock_.LockRead(); }
    ~ReadGuard() { lock_.UnlockRead(); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    PollLock& lock_;
  };

  class WriteGuard {
   public:
    explicit WriteGuard(PollLock& lock) : lock_(lock) { lock_.LockWrite(); }
    ~WriteGuard() { lock_.UnlockWrite(); }
    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

   private:
    PollLock& lock_;
  };

 private:
  // Parks until `free` holds under `lock`. The queue's sequence number is
  // read under the lock the releaser updates the state under, so a release
  // between the read and Park still wakes this waiter.
  template <typename Free>
  void WaitLocked(std::unique_lock<std::mutex>& lock, Free free) {
    if (free()) {
      return;
    }
    ++waiters_;
    do {
      const uint64_t seen = released_.Seq();
      lock.unlock();
      clock_->Park(released_, seen);
      lock.lock();
    } while (!free());
    --waiters_;
  }

  Clock* clock_;
  WaitQueue released_;
  std::mutex mutex_;
  int waiters_ = 0;
  int readers_ = 0;
  bool writer_ = false;
};

}  // namespace faasm

#endif  // FAASM_COMMON_POLL_LOCK_H_
