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
// Condition-style waits are built by polling with a small virtual quantum,
// which keeps the executor free of cross-component wake-up plumbing while
// remaining deterministic.
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

  // Polls `pred` every `quantum_ns` of virtual time until it returns true or
  // `deadline_ns` passes. Returns pred()'s final value.
  bool WaitFor(const std::function<bool()>& pred, TimeNs quantum_ns = 100 * kMicrosecond,
               TimeNs deadline_ns = INT64_MAX);

 private:
  struct Waiter {
    TimeNs deadline;
    bool ready = false;
    std::condition_variable cv;
  };

  void SleepUntilLockedImpl(std::unique_lock<std::mutex>& lock, TimeNs deadline_ns);
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
