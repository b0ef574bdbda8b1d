#include "simmpi/fiber.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

#include "util/error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define XG_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define XG_ASAN_FIBERS 1
#endif
#endif
#ifdef XG_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace xg::mpi::detail {
namespace {

#ifdef XG_ASAN_FIBERS
constexpr std::size_t kStackBytes = std::size_t{4} << 20;  // ASan redzones
#else
constexpr std::size_t kStackBytes = std::size_t{1} << 20;
#endif

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

/// An mmap'd fiber stack with a PROT_NONE guard page below it. Pages are
/// committed only when touched (MAP_NORESERVE).
class Stack {
 public:
  Stack() : page_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
    void* p = mmap(nullptr, kStackBytes + page_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    if (p == MAP_FAILED) throw Error("simmpi: cannot map a fiber stack");
    base_ = static_cast<char*>(p);
    if (mprotect(base_, page_, PROT_NONE) != 0) {
      munmap(base_, kStackBytes + page_);
      throw Error("simmpi: cannot protect a fiber stack guard page");
    }
  }
  ~Stack() { munmap(base_, kStackBytes + page_); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  [[nodiscard]] void* bottom() const { return base_ + page_; }
  [[nodiscard]] static std::size_t size() { return kStackBytes; }

 private:
  std::size_t page_;
  char* base_ = nullptr;
};

}  // namespace

struct FiberScheduler::Fiber {
  FiberScheduler* sched = nullptr;
  int id = -1;
  int worker = -1;
  bool done = false;  ///< set by the fiber as it returns; read by its worker
  Stack stack;
  ucontext_t ctx{};
  void* asan_fake_stack = nullptr;
};

struct FiberScheduler::Worker {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> ready;  ///< guarded by mu
  bool sleeping = false;   ///< guarded by mu
  int unfinished = 0;      ///< this worker's fibers not yet returned
  ucontext_t ctx{};        ///< where parked/returning fibers switch back to
  const void* asan_stack_bottom = nullptr;
  std::size_t asan_stack_size = 0;
};

int FiberScheduler::workers_for(int nfibers) {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::min(nfibers, nproc);
}

FiberScheduler::FiberScheduler(int nfibers, std::function<void(int)> body,
                               std::function<void()> on_stall)
    : body_(std::move(body)), on_stall_(std::move(on_stall)) {
  XG_REQUIRE(nfibers >= 1, "FiberScheduler: need at least one fiber");
  const int nworkers = workers_for(nfibers);
  workers_.reserve(static_cast<size_t>(nworkers));
  for (int w = 0; w < nworkers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  fibers_.reserve(static_cast<size_t>(nfibers));
  for (int i = 0; i < nfibers; ++i) {
    auto f = std::make_unique<Fiber>();
    f->sched = this;
    f->id = i;
    // Contiguous blocks: fiber i belongs to worker floor(i * W / n).
    f->worker = static_cast<int>(static_cast<std::int64_t>(i) * nworkers /
                                 nfibers);
    init_context(*f);
    Worker& w = *workers_[static_cast<size_t>(f->worker)];
    w.ready.push_back(i);
    w.unfinished += 1;
    fibers_.push_back(std::move(f));
  }
  runnable_.store(nfibers);
  unfinished_.store(nfibers);
}

FiberScheduler::~FiberScheduler() = default;

// Kept out of the constructor: getcontext "returns twice" as far as the
// compiler knows, which would pin the constructor's locals to memory.
void FiberScheduler::init_context(Fiber& f) {
  if (getcontext(&f.ctx) != 0) {
    throw Error("simmpi: getcontext failed for a fiber");
  }
  f.ctx.uc_stack.ss_sp = f.stack.bottom();
  f.ctx.uc_stack.ss_size = Stack::size();
  f.ctx.uc_link = nullptr;
  // makecontext passes int arguments only: split the pointer in two.
  const auto p = reinterpret_cast<std::uint64_t>(&f);
  makecontext(&f.ctx, reinterpret_cast<void (*)()>(&FiberScheduler::entry), 2,
              static_cast<unsigned>(p >> 32),
              static_cast<unsigned>(p & 0xffffffffU));
}

void FiberScheduler::entry(unsigned hi, unsigned lo) noexcept {
  auto* f = reinterpret_cast<Fiber*>((static_cast<std::uint64_t>(hi) << 32) |
                                     static_cast<std::uint64_t>(lo));
  Worker& w = *f->sched->workers_[static_cast<size_t>(f->worker)];
  asan_finish_switch(nullptr, &w.asan_stack_bottom, &w.asan_stack_size);
  f->sched->body_(f->id);
  f->done = true;
  // nullptr fake stack: this fiber's stack is never switched to again.
  asan_start_switch(nullptr, w.asan_stack_bottom, w.asan_stack_size);
  setcontext(&w.ctx);
}

void FiberScheduler::park(int id) {
  Fiber& f = *fibers_[static_cast<size_t>(id)];
  Worker& w = *workers_[static_cast<size_t>(f.worker)];
  asan_start_switch(&f.asan_fake_stack, w.asan_stack_bottom,
                    w.asan_stack_size);
  swapcontext(&f.ctx, &w.ctx);
  asan_finish_switch(f.asan_fake_stack, &w.asan_stack_bottom,
                     &w.asan_stack_size);
}

void FiberScheduler::wake(int id) {
  const Fiber& f = *fibers_[static_cast<size_t>(id)];
  Worker& w = *workers_[static_cast<size_t>(f.worker)];
  // Count before publishing, so the woken fiber's eventual park can never
  // take the count to zero ahead of this increment.
  runnable_.fetch_add(1);
  bool notify = false;
  {
    const std::scoped_lock lock(w.mu);
    w.ready.push_back(id);
    notify = w.sleeping;
  }
  if (notify) w.cv.notify_one();
}

void FiberScheduler::resume(Worker& w, Fiber& f) {
  void* fake_stack = nullptr;
  asan_start_switch(&fake_stack, f.stack.bottom(), Stack::size());
  swapcontext(&w.ctx, &f.ctx);
  asan_finish_switch(fake_stack, nullptr, nullptr);
  if (f.done) {
    w.unfinished -= 1;
    unfinished_.fetch_sub(1);
  }
  // The fiber parked or returned. Every wake comes from a running fiber (or
  // from on_stall), so a count of zero means no wake can ever arrive.
  if (runnable_.fetch_sub(1) == 1 && unfinished_.load() > 0) on_stall_();
}

void FiberScheduler::worker_loop(Worker& w) {
  std::vector<int> batch;
  while (w.unfinished > 0) {
    {
      std::unique_lock lock(w.mu);
      w.sleeping = true;
      w.cv.wait(lock, [&w] { return !w.ready.empty(); });
      w.sleeping = false;
      batch.swap(w.ready);
    }
    for (const int id : batch) resume(w, *fibers_[static_cast<size_t>(id)]);
    batch.clear();
  }
}

void FiberScheduler::run() {
  std::vector<std::thread> threads;
  threads.reserve(workers_.size() - 1);
  for (size_t w = 1; w < workers_.size(); ++w) {
    threads.emplace_back([this, w] { worker_loop(*workers_[w]); });
  }
  worker_loop(*workers_[0]);
  for (auto& t : threads) t.join();
}

}  // namespace xg::mpi::detail
