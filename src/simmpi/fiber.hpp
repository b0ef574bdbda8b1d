// Stackful fibers for simulated ranks, pinned to a small pool of worker
// threads (internal to simmpi; user code sees only Runtime/Proc).
//
// Fiber i runs on worker ⌊i·W/n⌋, W = min(n, hardware_concurrency()); the
// first worker is the thread that calls run(). Fibers never migrate, so only
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
// by exactly one wake(). The scheduler counts runnable fibers (ready plus
// running). When that count drops to zero while some fibers are unfinished,
// nothing can ever wake them except the stall callback, which the
// scheduler then calls once per stall — deadlock detection is exact and
// needs no timeout.
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
  /// make them return).
  FiberScheduler(int nfibers, std::function<void(int)> body,
                 std::function<void()> on_stall);
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
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Fibers that are ready or running; 0 with unfinished fibers = stall.
  std::atomic<int> runnable_{0};
  std::atomic<int> unfinished_{0};
};

}  // namespace xg::mpi::detail
