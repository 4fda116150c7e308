// SimClock + SimExecutor: deterministic virtual-time execution.
//
// Every simulated activity (a Faaslet invocation, a scheduler, a load
// generator) runs on a real OS thread registered with the SimClock. Threads
// block in SleepFor/SleepUntil; when the last runnable thread blocks, the
// clock jumps to the earliest pending deadline and wakes the threads due at
// it. Real compute executed by a thread is charged explicitly via SleepFor
// (see Faaslet::ChargeCompute), so macro experiments combine really-executed
// algorithms with modelled network/cold-start delays — wall-clock seconds of
// paper-scale experiments complete in milliseconds of virtual bookkeeping.
//
// Condition-style waits park instead of polling: a thread waiting for
// another (a dispatcher on its mailbox, an Await on its call, a lock
// acquirer) parks on the WaitQueue of the object it waits for, optionally
// with a virtual deadline, and stops counting as runnable. The owner's
// Notify(queue) makes exactly that queue's waiters runnable at the current
// virtual instant; a parked waiter without a deadline never holds the clock
// back, and one with a deadline wakes exactly at it. No wait on another
// activity spends virtual time it would not have spent for real.
#ifndef FAASM_SIM_SIM_CLOCK_H_
#define FAASM_SIM_SIM_CLOCK_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"

namespace faasm {

// A thread blocked in a SimClock: sleeping until `deadline`, or parked on
// `queue` (kNoDeadline = until notified).
struct SimWaiter {
  TimeNs deadline = kNoDeadline;
  WaitQueue* queue = nullptr;
  bool ready = false;
  bool notified = false;
  std::condition_variable cv;
};

class SimClock final : public Clock {
 public:
  SimClock() = default;

  TimeNs Now() const override;

  // Must be called from a registered thread.
  void SleepFor(TimeNs duration_ns) override;
  void SleepUntil(TimeNs deadline_ns);

  // Thread participation. A registered thread counts as runnable until it
  // blocks in SleepFor/SleepUntil or unregisters.
  void RegisterThread();
  void UnregisterThread();

  // RAII hold that keeps the clock from advancing while an *unregistered*
  // thread (e.g. a test main) orchestrates multiple spawns. Without it the
  // clock may advance between two Spawn calls once the already-spawned
  // activities block.
  class Hold {
   public:
    explicit Hold(SimClock& clock) : clock_(clock) { clock_.RegisterThread(); }
    ~Hold() { clock_.UnregisterThread(); }
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

   private:
    SimClock& clock_;
  };

  // Clock::Park/Notify (see the header comment). A deadline of kNoDeadline
  // waits for a notify only.
  bool Park(WaitQueue& queue, uint64_t seen, TimeNs deadline_ns = kNoDeadline) override;
  void Notify(WaitQueue& queue) override;

  // Polls `pred` every `quantum_ns` of virtual time until it returns true or
  // `deadline_ns` passes. Returns pred()'s final value. For drivers whose
  // condition has no queue to park on (test and benchmark orchestration);
  // runtime code waits with WaitOn, which costs no quantum.
  bool WaitFor(const std::function<bool()>& pred, TimeNs quantum_ns = 100 * kMicrosecond,
               TimeNs deadline_ns = INT64_MAX);

 private:
  using Waiter = SimWaiter;

  // Blocks the caller as `waiter` (deadline set) until it is made ready.
  void BlockLocked(std::unique_lock<std::mutex>& lock, Waiter& waiter);
  // Makes `waiter` runnable and takes it off its queue (not off waiters_).
  void WakeLocked(Waiter& waiter);
  void AdvanceIfIdleLocked();

  mutable std::mutex mutex_;
  TimeNs now_ = 0;
  int runnable_ = 0;
  std::vector<Waiter*> waiters_;
};

// Owns a set of worker threads registered with a SimClock. Spawn() starts a
// simulated activity; JoinAll() waits for every activity to finish. Each
// Spawn() first joins the activities that have finished since the last one,
// so a long-running executor holds threads only for live activities (an
// unjoined thread keeps its stack mapped, and the process runs out of them
// after a few tens of thousands).
class SimExecutor {
 public:
  SimExecutor() = default;
  ~SimExecutor();

  SimExecutor(const SimExecutor&) = delete;
  SimExecutor& operator=(const SimExecutor&) = delete;

  SimClock& clock() { return clock_; }

  void Spawn(std::function<void()> fn);
  void JoinAll();

 private:
  SimClock clock_;
  std::mutex threads_mutex_;
  // Keyed by a per-executor activity number, never reused (thread ids are,
  // once joined).
  std::unordered_map<uint64_t, std::thread> threads_;
  uint64_t next_activity_ = 0;
  // Activities that have returned and only wait to be joined.
  std::vector<uint64_t> finished_;
};

}  // namespace faasm

#endif  // FAASM_SIM_SIM_CLOCK_H_
