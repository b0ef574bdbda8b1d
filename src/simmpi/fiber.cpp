#include "simmpi/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define XG_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define XG_ASAN_FIBERS 1
#endif
#endif
#ifdef XG_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// The register-only switch cannot keep a CET shadow stack in step (its `ret`
// lands on another fiber's return address), so shadow-stack builds keep
// ucontext, as every other ISA does.
#if defined(__x86_64__) && !(defined(__CET__) && (__CET__ & 2))
#define XG_FIBER_ASM_SWITCH 1
#else
#include <ucontext.h>
#endif

#ifdef XG_FIBER_ASM_SWITCH
// xg_fiber_switch(save_sp, load_sp): push the callee-saved GPRs and the
// MXCSR/x87 control words on the current stack, store rsp in *save_sp, load
// load_sp and pop the same frame from it. Everything else is caller-saved
// under the SysV ABI, so the compiler already keeps it across the call.
//
// xg_fiber_start: where a new fiber's first switch returns to. It calls
// r13(r12) on the fresh, 16-byte-aligned stack; rip is undefined at its
// frame, so unwinders and debuggers stop there.
asm(R"(
        .text
        .p2align 4
        .globl  xg_fiber_switch
        .hidden xg_fiber_switch
        .type   xg_fiber_switch, @function
xg_fiber_switch:
        .cfi_startproc
        pushq   %rbp
        .cfi_adjust_cfa_offset 8
        pushq   %rbx
        .cfi_adjust_cfa_offset 8
        pushq   %r12
        .cfi_adjust_cfa_offset 8
        pushq   %r13
        .cfi_adjust_cfa_offset 8
        pushq   %r14
        .cfi_adjust_cfa_offset 8
        pushq   %r15
        .cfi_adjust_cfa_offset 8
        subq    $8, %rsp
        .cfi_adjust_cfa_offset 8
        stmxcsr (%rsp)
        fnstcw  4(%rsp)
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        ldmxcsr (%rsp)
        fldcw   4(%rsp)
        addq    $8, %rsp
        .cfi_adjust_cfa_offset -8
        popq    %r15
        .cfi_adjust_cfa_offset -8
        popq    %r14
        .cfi_adjust_cfa_offset -8
        popq    %r13
        .cfi_adjust_cfa_offset -8
        popq    %r12
        .cfi_adjust_cfa_offset -8
        popq    %rbx
        .cfi_adjust_cfa_offset -8
        popq    %rbp
        .cfi_adjust_cfa_offset -8
        ret
        .cfi_endproc
        .size   xg_fiber_switch, .-xg_fiber_switch

        .p2align 4
        .globl  xg_fiber_start
        .hidden xg_fiber_start
        .type   xg_fiber_start, @function
xg_fiber_start:
        .cfi_startproc
        .cfi_undefined rip
        movq    %r12, %rdi
        call    *%r13
        ud2
        .cfi_endproc
        .size   xg_fiber_start, .-xg_fiber_start
)");

extern "C" void xg_fiber_switch(void** save_sp, void* load_sp);
extern "C" void xg_fiber_start();
#endif

namespace xg::mpi::detail {
namespace {

#ifdef XG_ASAN_FIBERS
constexpr std::size_t kStackBytes = std::size_t{4} << 20;  // ASan redzones
#else
constexpr std::size_t kStackBytes = std::size_t{1} << 20;
#endif
/// Stacks the pool keeps between runs: enough for one job at the Runtime's
/// rank cap. A stack beyond that is unmapped when its run ends.
constexpr std::size_t kMaxPooledStacks = 4096;

std::atomic<std::uint64_t> g_stacks_mapped{0};

/// The worker the calling thread is running, or nullptr outside a run.
thread_local const void* t_worker = nullptr;

// AddressSanitizer must be told about every stack switch, or it reports
// false stack-buffer overflows on the fiber stacks.
#ifdef XG_ASAN_FIBERS
void asan_start_switch(void** fake_stack, const void* bottom,
                       std::size_t size) {
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
}
void asan_finish_switch(void* fake_stack, const void** bottom_old,
                        std::size_t* size_old) {
  __sanitizer_finish_switch_fiber(fake_stack, bottom_old, size_old);
}
#else
void asan_start_switch(void** /*fake_stack*/, const void* /*bottom*/,
                       std::size_t /*size*/) {}
void asan_finish_switch(void* /*fake_stack*/, const void** /*bottom_old*/,
                        std::size_t* /*size_old*/) {}
#endif

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// An mmap'd fiber stack with a PROT_NONE guard page below it. Pages are
/// committed only when touched (MAP_NORESERVE). A plain handle: the pool
/// owns the mapping.
struct Stack {
  char* base = nullptr;  ///< the guard page; the stack starts one page up

  [[nodiscard]] void* bottom() const { return base + page_bytes(); }
  [[nodiscard]] static std::size_t size() { return kStackBytes; }
};

/// Process-wide pool of fiber stacks, so back-to-back runs reuse mappings
/// instead of paying mmap/mprotect/munmap per rank per job.
class StackPool {
 public:
  Stack acquire() {
    {
      const std::scoped_lock lock(mu_);
      if (!free_.empty()) {
        const Stack s = free_.back();
        free_.pop_back();
        return s;
      }
    }
    return map_stack();
  }

  void release(Stack s) {
#ifdef XG_ASAN_FIBERS
    // Frames the last fiber never unwound leave poisoned redzones behind.
    ASAN_UNPOISON_MEMORY_REGION(s.bottom(), Stack::size());
#endif
    {
      const std::scoped_lock lock(mu_);
      if (free_.size() < kMaxPooledStacks) {
        free_.push_back(s);
        return;
      }
    }
    munmap(s.base, kStackBytes + page_bytes());
  }

 private:
  static Stack map_stack() {
    const std::size_t page = page_bytes();
    void* p = mmap(nullptr, kStackBytes + page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    if (p == MAP_FAILED) throw Error("simmpi: cannot map a fiber stack");
    Stack s{static_cast<char*>(p)};
    if (mprotect(s.base, page, PROT_NONE) != 0) {
      munmap(s.base, kStackBytes + page);
      throw Error("simmpi: cannot protect a fiber stack guard page");
    }
    g_stacks_mapped.fetch_add(1, std::memory_order_relaxed);
    return s;
  }

  std::mutex mu_;
  std::vector<Stack> free_;  ///< guarded by mu_
};

StackPool& stack_pool() {
  // Never destroyed: a run may still return stacks during static teardown.
  static auto* const pool = new StackPool();
  return *pool;
}

#ifdef XG_FIBER_ASM_SWITCH
/// A suspended context: the stack pointer xg_fiber_switch saved.
struct Context {
  void* sp = nullptr;
};

/// Lay out the frame xg_fiber_switch pops, so the first switch to `ctx`
/// returns into xg_fiber_start, which calls fn(arg). The fiber starts with
/// the calling thread's MXCSR and x87 control word.
void make_context(Context& ctx, const Stack& stack, void (*fn)(void*),
                  void* arg) {
  const auto top = (reinterpret_cast<std::uintptr_t>(stack.bottom()) +
                    Stack::size()) & ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uint64_t*>(top) - 8;
  std::uint32_t mxcsr = 0;
  std::uint16_t fpcw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpcw));
  frame[0] = mxcsr | (std::uint64_t{fpcw} << 32);
  frame[1] = 0;                                  // r15
  frame[2] = 0;                                  // r14
  frame[3] = reinterpret_cast<std::uint64_t>(fn);   // r13
  frame[4] = reinterpret_cast<std::uint64_t>(arg);  // r12
  frame[5] = 0;                                  // rbx
  frame[6] = 0;                                  // rbp
  frame[7] = reinterpret_cast<std::uint64_t>(&xg_fiber_start);
  ctx.sp = frame;
}

void switch_context(Context& from, const Context& to) {
  xg_fiber_switch(&from.sp, to.sp);
}
#else
struct Context {
  ucontext_t uc{};
};

std::uint64_t join_halves(unsigned hi, unsigned lo) {
  return (static_cast<std::uint64_t>(hi) << 32) | static_cast<std::uint64_t>(lo);
}

// makecontext passes int arguments only: each pointer arrives split in two.
void ucontext_start(unsigned fn_hi, unsigned fn_lo, unsigned arg_hi,
                    unsigned arg_lo) {
  auto* fn = reinterpret_cast<void (*)(void*)>(join_halves(fn_hi, fn_lo));
  fn(reinterpret_cast<void*>(join_halves(arg_hi, arg_lo)));
}

// A function of its own: getcontext "returns twice" as far as the compiler
// knows, which would pin the caller's locals to memory.
void make_context(Context& ctx, const Stack& stack, void (*fn)(void*),
                  void* arg) {
  if (getcontext(&ctx.uc) != 0) {
    throw Error("simmpi: getcontext failed for a fiber");
  }
  ctx.uc.uc_stack.ss_sp = stack.bottom();
  ctx.uc.uc_stack.ss_size = Stack::size();
  ctx.uc.uc_link = nullptr;
  const auto f = reinterpret_cast<std::uint64_t>(fn);
  const auto a = reinterpret_cast<std::uint64_t>(arg);
  makecontext(&ctx.uc, reinterpret_cast<void (*)()>(&ucontext_start), 4,
              static_cast<unsigned>(f >> 32),
              static_cast<unsigned>(f & 0xffffffffU),
              static_cast<unsigned>(a >> 32),
              static_cast<unsigned>(a & 0xffffffffU));
}

void switch_context(Context& from, const Context& to) {
  swapcontext(&from.uc, &to.uc);
}
#endif

}  // namespace

struct FiberScheduler::Fiber {
  FiberScheduler* sched = nullptr;
  int id = -1;
  int worker = -1;
  bool done = false;  ///< set by the fiber as it returns; read by its worker
  Stack stack = stack_pool().acquire();
  Context ctx;
  void* asan_fake_stack = nullptr;

  Fiber() = default;
  ~Fiber() { stack_pool().release(stack); }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
};

struct alignas(64) FiberScheduler::Worker {
  /// Wakes issued on this worker's own thread. Only that thread touches it,
  /// so it takes no lock.
  std::vector<int> local;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> remote;  ///< guarded by mu: wakes from other threads
  /// Guarded by mu. Set, together with this worker's idle_ increment, when
  /// it sleeps; a remote wake clears it and takes the increment back.
  bool sleeping = false;
  int unfinished = 0;       ///< this worker's fibers not yet returned
  Rng rng{0};               ///< shuffles ready batches under a schedule seed
  Context ctx;              ///< where parked/returning fibers switch back to
  const void* asan_stack_bottom = nullptr;
  std::size_t asan_stack_size = 0;
};

int FiberScheduler::workers_for(int nfibers) {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::min(nfibers, nproc);
}

std::uint64_t FiberScheduler::stacks_mapped() {
  return g_stacks_mapped.load(std::memory_order_relaxed);
}

FiberScheduler::FiberScheduler(int nfibers, std::function<void(int)> body,
                               std::function<void()> on_stall,
                               std::uint64_t schedule_seed)
    : body_(std::move(body)),
      on_stall_(std::move(on_stall)),
      shuffle_(schedule_seed != 0) {
  XG_REQUIRE(nfibers >= 1, "FiberScheduler: need at least one fiber");
  std::uint64_t seed_state = schedule_seed;
  int nworkers = workers_for(nfibers);
  if (shuffle_) {
    nworkers = 1 + static_cast<int>(
                       Rng(splitmix64(seed_state))
                           .next_below(static_cast<std::uint64_t>(nworkers)));
  }
  workers_.reserve(static_cast<size_t>(nworkers));
  for (int w = 0; w < nworkers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
    if (shuffle_) workers_.back()->rng = Rng(splitmix64(seed_state));
  }
  fibers_.reserve(static_cast<size_t>(nfibers));
  for (int i = 0; i < nfibers; ++i) {
    auto f = std::make_unique<Fiber>();
    f->sched = this;
    f->id = i;
    // Contiguous blocks: fiber i belongs to worker floor(i * W / n).
    f->worker = static_cast<int>(static_cast<std::int64_t>(i) * nworkers /
                                 nfibers);
    make_context(f->ctx, f->stack, &FiberScheduler::entry, f.get());
    Worker& w = *workers_[static_cast<size_t>(f->worker)];
    w.local.push_back(i);
    w.unfinished += 1;
    fibers_.push_back(std::move(f));
  }
  // A fiber sits in at most one queue at a time, so with this capacity no
  // wake ever allocates.
  for (auto& w : workers_) {
    w->local.reserve(static_cast<size_t>(w->unfinished));
    w->remote.reserve(static_cast<size_t>(w->unfinished));
  }
  unfinished_.store(nfibers);
}

FiberScheduler::~FiberScheduler() = default;

void FiberScheduler::entry(void* fiber) noexcept {
  auto* f = static_cast<Fiber*>(fiber);
  Worker& w = *f->sched->workers_[static_cast<size_t>(f->worker)];
  asan_finish_switch(nullptr, &w.asan_stack_bottom, &w.asan_stack_size);
  f->sched->body_(f->id);
  f->done = true;
  // nullptr fake stack: this fiber's stack is never switched to again.
  asan_start_switch(nullptr, w.asan_stack_bottom, w.asan_stack_size);
  switch_context(f->ctx, w.ctx);
  __builtin_unreachable();
}

void FiberScheduler::park(int id) {
  Fiber& f = *fibers_[static_cast<size_t>(id)];
  Worker& w = *workers_[static_cast<size_t>(f.worker)];
  asan_start_switch(&f.asan_fake_stack, w.asan_stack_bottom,
                    w.asan_stack_size);
  switch_context(f.ctx, w.ctx);
  asan_finish_switch(f.asan_fake_stack, &w.asan_stack_bottom,
                     &w.asan_stack_size);
}

void FiberScheduler::wake(int id) {
  const Fiber& f = *fibers_[static_cast<size_t>(id)];
  Worker& w = *workers_[static_cast<size_t>(f.worker)];
  if (t_worker == &w) {
    w.local.push_back(id);
    return;
  }
  bool notify = false;
  {
    const std::scoped_lock lock(w.mu);
    w.remote.push_back(id);
    if (w.sleeping) {
      // Out of the idle count before this waker's own worker can go idle.
      w.sleeping = false;
      idle_.fetch_sub(1);
      notify = true;
    }
  }
  if (notify) w.cv.notify_one();
}

void FiberScheduler::resume(Worker& w, Fiber& f) {
  void* fake_stack = nullptr;
  asan_start_switch(&fake_stack, f.stack.bottom(), Stack::size());
  switch_context(w.ctx, f.ctx);
  asan_finish_switch(fake_stack, nullptr, nullptr);
  if (f.done) {
    w.unfinished -= 1;
    unfinished_.fetch_sub(1);
  }
}

void FiberScheduler::worker_loop(Worker& w) {
  const int nworkers = static_cast<int>(workers_.size());
  std::vector<int> batch;
  batch.reserve(w.local.capacity());
  for (;;) {
    batch.swap(w.local);
    {
      std::unique_lock lock(w.mu);
      batch.insert(batch.end(), w.remote.begin(), w.remote.end());
      w.remote.clear();
      if (batch.empty()) {
        if (idle_.fetch_add(1) + 1 == nworkers && unfinished_.load() > 0) {
          // Every worker is idle and no wake is in flight: a stall. This
          // worker is not idle while on_stall runs.
          idle_.fetch_sub(1);
          lock.unlock();
          on_stall_();
          continue;
        }
        if (w.unfinished == 0) return;  // idle for the rest of the run
        w.sleeping = true;
        w.cv.wait(lock, [&w] { return !w.sleeping; });
        continue;  // the waker took this worker out of the idle count
      }
    }
    if (shuffle_) {
      for (size_t i = batch.size(); i > 1; --i) {
        std::swap(batch[i - 1], batch[w.rng.next_below(i)]);
      }
    }
    for (const int id : batch) resume(w, *fibers_[static_cast<size_t>(id)]);
    batch.clear();
  }
}

void FiberScheduler::run() {
  std::vector<std::thread> threads;
  threads.reserve(workers_.size() - 1);
  for (size_t w = 1; w < workers_.size(); ++w) {
    threads.emplace_back([this, w] {
      t_worker = workers_[w].get();
      worker_loop(*workers_[w]);
    });
  }
  // The caller may itself be a worker of an enclosing run (a rank body that
  // runs a nested job): restore its worker afterwards.
  const void* const enclosing = t_worker;
  t_worker = workers_[0].get();
  worker_loop(*workers_[0]);
  t_worker = enclosing;
  for (auto& t : threads) t.join();
}

}  // namespace xg::mpi::detail
