// Simulated MPI runtime: runs every rank as a fiber on a small pool of
// worker threads, gives each a virtual clock driven by the simnet cost
// model, and collects per-rank statistics. Real data moves between ranks
// (small test/physics grids), or "virtual payloads" carrying only byte
// counts (paper-scale model runs) — both follow the identical message
// schedule.
//
// The per-message path allocates nothing and takes no lock shared by all
// ranks once a run is warm: a Proc charges its cached phase bucket,
// collective schedules draw their rank and block lists from per-Proc
// scratch, a mailbox reuses its capacity, and the invariant monitor locks
// only the shard that holds the collective instance.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "simmpi/fault.hpp"
#include "simmpi/message.hpp"
#include "simmpi/stats.hpp"
#include "simnet/machine.hpp"
#include "util/rng.hpp"

namespace xg::mpi {

class CollSelector;
class Comm;
class InvariantMonitor;
class Runtime;

namespace detail {
struct Group;

/// Reusable scratch for collective schedules. It belongs to one Proc, never
/// to a thread: the fibers on one worker interleave across parks, so a
/// thread_local buffer could change under a parked schedule.
struct CollScratch {
  std::vector<int> ranks;        ///< 0, 1, ..., world size − 1
  std::vector<int> send_blocks;  ///< Bruck: blocks one round sends
  std::vector<int> recv_blocks;  ///< Bruck: blocks one round receives
  std::vector<int> perm;         ///< Bruck: the final rotation
  /// Rabenseifner: the range owned before each halving step.
  std::vector<std::pair<size_t, size_t>> ranges;
};
}  // namespace detail

/// Per-rank execution context handed to the user body. All methods are
/// called only from that rank's own fiber.
class Proc {
 public:
  [[nodiscard]] int world_rank() const { return rank_; }
  [[nodiscard]] int world_size() const;

  /// Current virtual time (seconds since job start).
  [[nodiscard]] double now() const { return clock_; }

  /// Charge raw virtual time (setup costs, I/O stand-ins).
  void advance(double seconds);

  /// Charge compute work: max(flops-bound, memory-bound) per the machine's
  /// effective rates. Accounted as compute time in the current phase.
  void compute(double flops, double bytes = 0.0);

  /// Charge one accelerator kernel: launch overhead (if the machine has a
  /// GPU) plus the compute charge. On CPU-only machines identical to
  /// compute().
  void kernel(double flops, double bytes = 0.0);

  /// Charge the host-staging cost of communicating `bytes` of device-
  /// resident data when the MPI library is NOT GPU-aware: D2H before the
  /// send plus H2D after the receive (2× bytes over the host link).
  /// No-op on CPU machines or with GPU-aware MPI. Accounted as comm time.
  void stage_for_comm(std::uint64_t bytes);

  /// One-direction upload (H2D), e.g. the initial cmat transfer. Accounted
  /// as compute time in the current phase. No-op without a GPU.
  void stage_upload(std::uint64_t bytes);

  /// Name the current accounting phase ("str_comm", "coll", ...). Subsequent
  /// communication and compute charges accrue to this bucket.
  void set_phase(std::string name);
  [[nodiscard]] const std::string& phase() const { return phase_; }

  /// Communicator spanning all ranks in the job.
  [[nodiscard]] Comm world();

  [[nodiscard]] const net::Placement& placement() const;

  // --- internals used by Comm (not for user code) -------------------------

  /// Eager send: charges injection time to this rank, deposits the message
  /// with its virtual arrival timestamp into dst's mailbox. `data == nullptr`
  /// marks a virtual payload. `nic_sharers` is the number of co-located
  /// ranks contending for the node NIC (communicator-derived; -1 = worst
  /// case, all ranks on the node).
  void p2p_send(int dst_world, std::uint64_t context, int tag, const void* data,
                std::uint64_t bytes, int nic_sharers = -1);

  /// Blocking receive; advances the virtual clock to the message arrival.
  /// `data == nullptr` accepts only virtual payloads.
  void p2p_recv(int src_world, std::uint64_t context, int tag, void* data,
                std::uint64_t bytes);

  /// Nonblocking send: the CPU is charged only the send overhead; the
  /// injection is scheduled on this rank's NIC timeline (serialized with
  /// other outstanding sends). Returns the virtual time at which the send
  /// completes locally (i.e. when a Wait on it would return).
  double p2p_isend(int dst_world, std::uint64_t context, int tag,
                   const void* data, std::uint64_t bytes, int nic_sharers = -1);

  /// Complete a nonblocking send: advance the clock to its local completion.
  void complete_send(double complete_at_s);

  void record_trace(TraceEvent event);
  void record_span(SpanEvent event);
  [[nodiscard]] bool tracing() const;

  /// Attribute subsequent trace/span rows from this rank to ensemble member
  /// `member` (-1 = single-simulation job, no attribution). Set once by the
  /// ensemble driver after it learns which member this rank belongs to.
  void set_trace_member(int member) { member_ = member; }
  [[nodiscard]] int trace_member() const { return member_; }

  /// Report one member's view of a completed collective to the runtime's
  /// invariant monitor (internal, called by Comm).
  void observe_collective(std::uint64_t context, std::uint64_t seq,
                          TraceEvent::Kind kind, CollAlg alg, int participants,
                          std::uint64_t payload_bytes, bool has_hash,
                          std::uint64_t result_hash,
                          const std::string& comm_label);

  /// The run's collective-algorithm decision table (RuntimeOptions::
  /// coll_selector, or the built-in tuned table when unset). Consulted by
  /// every collective entered with CollAlg::kAuto.
  [[nodiscard]] const CollSelector& coll_selector() const;

  /// This rank's scratch for collective schedules (internal, used by the
  /// collective implementations).
  [[nodiscard]] detail::CollScratch& coll_scratch() { return coll_scratch_; }

 private:
  friend class Runtime;
  friend class Comm;

  /// The current phase's stats, looked up at its first charge, so a phase
  /// that is never charged never appears in stats_.
  PhaseStats& bucket() {
    if (bucket_ == nullptr) bucket_ = &stats_[phase_];
    return *bucket_;
  }

  /// Apply straggler slowdown + jitter to a compute-side charge; returns
  /// the (possibly stretched) duration and accounts the injected excess.
  double charge_faulted(double dt);

  /// Throw RankFailure if this rank's fault-plan kill time has been reached;
  /// park for good if its hang time has.
  void fault_check();

  Runtime* rt_ = nullptr;
  int rank_ = -1;
  int member_ = -1;  ///< ensemble-member attribution for telemetry
  double clock_ = 0.0;
  double nic_free_ = 0.0;  ///< when this rank's injection engine frees up
  std::string phase_ = "default";
  std::map<std::string, PhaseStats> stats_;
  PhaseStats* bucket_ = nullptr;  ///< &stats_[phase_] once charged
  detail::CollScratch coll_scratch_;

  /// Cached world group so repeated world() calls share one collective
  /// sequence counter (keeps (context, seq) unique within a run).
  std::shared_ptr<detail::Group> world_group_;

  // Fault-injection state (inactive unless the run has a FaultPlan).
  const FaultPlan* faults_ = nullptr;
  Rng fault_rng_{0};
  double straggle_factor_ = 1.0;
  double jitter_frac_ = 0.0;
  double kill_at_ = -1.0;  ///< virtual kill time; < 0 = immortal
  double hang_at_ = -1.0;  ///< virtual hang time; < 0 = never hangs
  FaultStats fstats_;
};

/// RAII span over virtual time: records a SpanEvent covering [construction,
/// destruction) on the rank's trace. When tracing is disabled the
/// constructor stores a null Proc and the destructor returns immediately —
/// zero allocations on the hot path (`name` must be a string literal or
/// otherwise outlive the span).
class ScopedSpan {
 public:
  ScopedSpan(Proc& proc, const char* name)
      : proc_(proc.tracing() ? &proc : nullptr),
        name_(name),
        t0_(proc_ != nullptr ? proc.now() : 0.0) {}
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Proc* proc_;
  const char* name_;
  double t0_;
};

struct RuntimeOptions {
  bool enable_trace = false;    ///< record TraceEvents + SpanEvents
  bool enable_traffic = false;  ///< record per-destination byte counters
  /// Cross-check every collective for member agreement (sequence number,
  /// kind, payload bytes, and bitwise-identical typed results). Cheap; on
  /// by default so every run doubles as a runtime self-test.
  bool check_invariants = true;
  /// Deterministic fault-injection plan (default: inactive).
  FaultPlan faults;
  /// Collective-algorithm decision table for this run. nullptr = the
  /// built-in tuned table (CollSelector::tuned()). Use
  /// CollSelector::legacy() for the fixed pre-selector behavior, or a table
  /// loaded from an xgyro_colltune JSON file.
  std::shared_ptr<const CollSelector> coll_selector;
};

/// Owns mailboxes and rank fibers for one simulated job.
///
/// Each rank runs as a stackful fiber. The fibers are pinned, in contiguous
/// blocks, to W = min(nranks, std::thread::hardware_concurrency()) worker
/// threads; the first worker is the thread that calls run(). A fiber gives
/// up its worker only when it blocks in a receive or returns. Virtual time
/// depends only on message arrival stamps, so it is the same under any
/// schedule.
///
/// The fiber contract for rank bodies:
///  - A rank body may block its OS thread outside simmpi (a host mutex held
///    across a simmpi call, a host std::barrier between ranks, ...) only
///    when nranks <= std::thread::hardware_concurrency(), so that every
///    rank has a worker of its own. Otherwise a rank blocked that way also
///    stops the other fibers on its worker, and the run can hang.
///  - A rank must not make a blocking simmpi call (a receive, a collective)
///    inside a `catch` handler: the fibers on one worker share the C++
///    runtime's per-thread stack of caught exceptions.
class Runtime {
 public:
  /// `nranks` may be smaller than the machine's total rank slots (partial
  /// allocation) but never larger.
  Runtime(net::MachineSpec spec, int nranks, RuntimeOptions opts = {});
  ~Runtime();

  /// Execute `body` on every rank (one fiber each); returns per-rank stats
  /// and the trace. Rethrows the first rank exception, if any — including
  /// RankFailure (fault-plan kill), DeadlockError (every unfinished rank is
  /// blocked in a receive no running rank can satisfy; raised as soon as
  /// the last runnable rank blocks), and InvariantViolation (collective
  /// disagreement).
  RunResult run(const std::function<void(Proc&)>& body);

  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] const net::Placement& placement() const { return placement_; }

 private:
  friend class Proc;
  friend class Comm;

  /// Record `error` as the run's failure (first one wins) and wake every
  /// blocked rank so the run unwinds.
  void fail(std::exception_ptr error);
  /// Called when every unfinished rank is parked: fail with a DeadlockError
  /// naming each blocked rank and what it waits for.
  void report_deadlock(const std::vector<Proc>& procs);
  [[nodiscard]] DeadlockError deadlock_error(
      const std::vector<Proc>& procs) const;

  net::MachineSpec spec_;
  net::Placement placement_;
  RuntimeOptions opts_;
  int nranks_ = 0;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::unique_ptr<InvariantMonitor> monitor_;

  std::mutex trace_mu_;
  std::vector<TraceEvent> trace_;
  std::vector<SpanEvent> spans_;

  std::mutex err_mu_;
  std::exception_ptr first_error_;
};

/// Convenience wrapper: build a Runtime and run one job.
RunResult run_simulation(const net::MachineSpec& spec, int nranks,
                         const std::function<void(Proc&)>& body,
                         RuntimeOptions opts = {});

}  // namespace xg::mpi
