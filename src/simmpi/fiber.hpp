// Stackful fibers for simulated ranks, pinned to a small pool of worker
// threads (internal to simmpi; user code sees only Runtime/Proc).
//
// Fiber i runs on worker ⌊i·W/n⌋, W = min(n, hardware_concurrency()) (a
// nonzero schedule seed draws W from [1, that] instead); the first worker
// is the thread that calls run(). Fibers never migrate, so only
// the owning worker ever resumes a fiber. A wake issued on the target's own
// worker goes to that worker's unlocked local queue; a wake from another
// thread goes to its mutex-guarded remote queue. Each worker runs its ready
// fibers until they block and sleeps only when both queues are empty.
//
// On x86-64 a switch is an in-tree, register-only swap: the callee-saved
// GPRs, rsp, MXCSR and the x87 control word — no signal-mask syscall, so a
// park/resume pair never enters the kernel. Other ISAs (and builds with
// shadow stacks) fall back to glibc ucontext. Fiber stacks come from a
// bounded process-wide pool and go back to it when the scheduler is
// destroyed, so a job maps stacks only until the pool has enough of them.
//
// A fiber leaves the CPU only by park() or by returning; park() is matched
// by exactly one wake(). Deadlock detection counts idle *workers*, not
// runnable fibers, so a wake or a park touches no line shared by all
// workers unless it crosses workers: a local wake is a plain push, and a
// resume touches no atomic except the unfinished count when a fiber
// returns. A worker is idle when its local and remote queues are both
// empty. It then increments the idle count under its own mutex and sleeps;
// a remote wake that finds it asleep clears its sleeping flag and
// decrements the count under that mutex, before notifying; a worker whose
// fibers have all returned counts as idle for the rest of the run. The
// worker whose increment brings the count to W while fibers are unfinished
// takes its increment back and calls the stall callback once, then looks at
// its queues again (the callback may have woken its own fibers).
//
// Why the count is exact: a wake comes only from a running fiber or from
// the stall callback, whose worker is not counted while it runs. A worker
// counts itself idle only after finding both queues empty under its mutex,
// and a remote wake takes a sleeping target out of the count before the
// waker's own worker can go idle. So the count is W exactly when no fiber
// runs and no wake is in flight: nothing but the stall callback can ever
// wake the unfinished fibers, and detection needs no timeout. The
// schedule-perturbation tests (SchedulePerturbation.* in simmpi_test,
// fault_test, coll_test, checkpoint_test and xgyro_test) check that every
// stall is still reported, with the same blocked set, under shuffled ready
// batches and random worker counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace xg::mpi::detail {

class FiberScheduler {
 public:
  /// `body(i)` runs as fiber i and must not throw. `on_stall()` runs on a
  /// worker thread, outside any fiber, when every unfinished fiber is
  /// parked; to let the run finish it must wake every parked fiber (and
  /// make them return). A nonzero `schedule_seed` perturbs the host
  /// schedule: it picks the worker count from [1, workers_for(nfibers)] and
  /// shuffles each ready batch before resuming it.
  FiberScheduler(int nfibers, std::function<void(int)> body,
                 std::function<void()> on_stall,
                 std::uint64_t schedule_seed = 0);
  /// Returns the fibers' stacks to the pool.
  ~FiberScheduler();
  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Run every fiber to completion; the calling thread is worker 0.
  void run();

  /// Suspend fiber `id`, which must be the calling fiber, until wake(id).
  void park(int id);

  /// Make parked fiber `id` runnable. Callable from any thread, including
  /// before the matching park() has switched away.
  void wake(int id);

  /// Worker threads a run of `nfibers` uses: min(nfibers, nproc).
  static int workers_for(int nfibers);

  /// Fiber stacks this process has mapped so far. Stacks reused from the
  /// pool are not counted again.
  static std::uint64_t stacks_mapped();

 private:
  struct Fiber;
  struct Worker;

  static void entry(void* fiber) noexcept;
  void resume(Worker& w, Fiber& f);
  void worker_loop(Worker& w);

  std::function<void(int)> body_;
  std::function<void()> on_stall_;
  bool shuffle_ = false;  ///< a nonzero schedule seed was given
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Workers with nothing to run (asleep, or out of fibers for good); W
  /// with unfinished fibers = stall.
  std::atomic<int> idle_{0};
  std::atomic<int> unfinished_{0};
};

}  // namespace xg::mpi::detail
