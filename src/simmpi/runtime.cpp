#include "simmpi/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "simmpi/coll.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/fiber.hpp"
#include "simmpi/invariant.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"

namespace xg::mpi {

// The context a hung rank waits on; no communicator uses it.
const std::uint64_t kHangContext = Hasher().str("xgyro.hang").digest();

int Proc::world_size() const { return rt_->nranks_; }

const net::Placement& Proc::placement() const { return rt_->placement_; }

double Proc::charge_faulted(double dt) {
  if (straggle_factor_ == 1.0 && jitter_frac_ == 0.0) return dt;
  double out = dt * straggle_factor_;
  if (jitter_frac_ > 0.0) {
    out *= 1.0 + jitter_frac_ * fault_rng_.next_double();
  }
  fstats_.straggler_added_s += out - dt;
  return out;
}

void Proc::rearm_faults() {
  next_fault_at_ = std::numeric_limits<double>::infinity();
  if (kill_at_ >= 0.0) next_fault_at_ = std::min(next_fault_at_, kill_at_);
  if (hang_at_ >= 0.0) next_fault_at_ = std::min(next_fault_at_, hang_at_);
}

void Proc::fire_faults() {
  if (kill_at_ >= 0.0 && clock_ >= kill_at_) {
    // Disarm before throwing so error reporting can't re-trigger the kill.
    kill_at_ = -1.0;
    rearm_faults();
    throw RankFailure(rank_, clock_, phase_);
  }
  if (hang_at_ >= 0.0 && clock_ >= hang_at_) {
    hang_at_ = -1.0;
    rearm_faults();
    // Wait on a context no communicator uses: nothing ever matches, so the
    // rank parks until the runtime reports the stalled schedule as a
    // deadlock and aborts the run.
    (void)rt_->mailboxes_[rank_]->take(kHangContext, rank_, 0);
  }
}

void Proc::advance(double seconds) {
  XG_ASSERT_MSG(seconds >= 0.0, "cannot advance virtual time backwards");
  const double dt = charge_faulted(seconds);
  clock_ += dt;
  bucket().compute_s += dt;
  fault_check();
}

void Proc::compute(double flops, double bytes) {
  const double dt = charge_faulted(rt_->placement_.compute_time(flops, bytes));
  clock_ += dt;
  bucket().compute_s += dt;
  fault_check();
}

void Proc::kernel(double flops, double bytes) {
  const auto& spec = rt_->placement_.spec();
  if (spec.has_gpu) {
    const double dt = charge_faulted(spec.kernel_launch_s);
    clock_ += dt;
    bucket().compute_s += dt;
  }
  compute(flops, bytes);
}

void Proc::stage_for_comm(std::uint64_t bytes) {
  const auto& spec = rt_->placement_.spec();
  if (!spec.has_gpu || spec.gpu_aware_mpi || spec.h2d_bw_Bps <= 0.0) return;
  const double dt = 2.0 * static_cast<double>(bytes) / spec.h2d_bw_Bps;
  clock_ += dt;
  bucket().comm_s += dt;
}

void Proc::stage_upload(std::uint64_t bytes) {
  const auto& spec = rt_->placement_.spec();
  if (!spec.has_gpu || spec.h2d_bw_Bps <= 0.0) return;
  const double dt = static_cast<double>(bytes) / spec.h2d_bw_Bps;
  clock_ += dt;
  bucket().compute_s += dt;
}

void Proc::set_phase(std::string name) {
  phase_ = std::move(name);
  bucket_ = nullptr;
}

Comm Proc::world() { return Comm::make_world(*this); }

void Proc::p2p_send(int dst_world, std::uint64_t context, int tag,
                    const void* data, std::uint64_t bytes, int nic_sharers) {
  // A blocking send is a nonblocking send completed immediately. When no
  // nonblocking sends are outstanding (NIC idle), this reduces exactly to
  // the classic charge of send_overhead + bytes/bandwidth.
  complete_send(p2p_isend(dst_world, context, tag, data, bytes, nic_sharers));
}

double Proc::p2p_isend(int dst_world, std::uint64_t context, int tag,
                       const void* data, std::uint64_t bytes, int nic_sharers) {
  XG_ASSERT_MSG(dst_world >= 0 && dst_world < rt_->nranks_, "send: bad rank");
  fault_check();
  const auto& place = rt_->placement_;
  // CPU side: only the software overhead.
  clock_ += place.spec().send_overhead_s;
  auto& b = bucket();
  b.comm_s += place.spec().send_overhead_s;
  b.bytes_sent += bytes;
  b.msgs_sent += 1;
  if (rt_->opts_.enable_traffic) b.bytes_to[dst_world] += bytes;
  // NIC side: serialize this injection after any outstanding ones.
  const double inj = place.injection_time(rank_, dst_world, bytes, nic_sharers) -
                     place.spec().send_overhead_s;
  const double start = std::max(clock_, nic_free_);
  const double complete_at = start + inj;
  nic_free_ = complete_at;

  Message m;
  m.context = context;
  m.src_world = rank_;
  m.tag = tag;
  m.arrival_s = complete_at + place.wire_latency(rank_, dst_world);
  m.bytes = bytes;
  m.is_virtual = (data == nullptr);
  if (data != nullptr && bytes > 0) {
    m.data.resize(bytes);
    std::memcpy(m.data.data(), data, bytes);
  }
  // Fault injection: hold the message back on the wire. The receiving
  // mailbox clamps per-channel arrival order, so a delayed message can
  // never overtake — or be overtaken by — a later one on the same channel.
  if (faults_ != nullptr && faults_->perturbs_messages() &&
      fault_rng_.next_double() < faults_->delay_probability) {
    m.arrival_s += faults_->delay_s;
    fstats_.delayed_msgs += 1;
    fstats_.delay_added_s += faults_->delay_s;
  }
  rt_->mailboxes_[dst_world]->deliver(std::move(m));
  return complete_at;
}

void Proc::complete_send(double complete_at_s) {
  if (complete_at_s > clock_) {
    bucket().comm_s += complete_at_s - clock_;
    clock_ = complete_at_s;
  }
}

void Proc::p2p_recv(int src_world, std::uint64_t context, int tag, void* data,
                    std::uint64_t bytes) {
  XG_ASSERT_MSG(src_world >= 0 && src_world < rt_->nranks_, "recv: bad rank");
  fault_check();
  const double t0 = clock_;
  Message m = rt_->mailboxes_[rank_]->take(context, src_world, tag);
  if (m.bytes != bytes) {
    throw MpiUsageError(strprintf(
        "recv: payload mismatch on rank %d from %d tag %d: expected %llu "
        "bytes, got %llu",
        rank_, src_world, tag, static_cast<unsigned long long>(bytes),
        static_cast<unsigned long long>(m.bytes)));
  }
  if (data != nullptr) {
    if (m.is_virtual) {
      throw MpiUsageError(
          "recv: virtual payload delivered to a real receive (mixed modes)");
    }
    if (bytes > 0) std::memcpy(data, m.data.data(), bytes);
  }
  clock_ = std::max(clock_, m.arrival_s) + rt_->placement_.recv_overhead();
  bucket().comm_s += clock_ - t0;
  fault_check();
}

void Proc::record_trace(TraceEvent event) {
  if (!rt_->opts_.enable_trace) return;
  const std::scoped_lock lock(rt_->trace_mu_);
  rt_->trace_.push_back(std::move(event));
}

void Proc::record_span(SpanEvent event) {
  if (!rt_->opts_.enable_trace) return;
  const std::scoped_lock lock(rt_->trace_mu_);
  rt_->spans_.push_back(std::move(event));
}

bool Proc::tracing() const { return rt_->opts_.enable_trace; }

ScopedSpan::~ScopedSpan() {
  if (proc_ == nullptr) return;
  SpanEvent e;
  e.name = name_;
  e.phase = proc_->phase();
  e.world_rank = proc_->world_rank();
  e.member = proc_->trace_member();
  e.t_start = t0_;
  e.t_end = proc_->now();
  proc_->record_span(std::move(e));
}

void Proc::observe_collective(std::uint64_t context, std::uint64_t seq,
                              TraceEvent::Kind kind, CollAlg alg,
                              int participants, std::uint64_t payload_bytes,
                              bool has_hash, std::uint64_t result_hash,
                              const std::string& comm_label) {
  if (!rt_->opts_.check_invariants || rt_->monitor_ == nullptr) return;
  InvariantMonitor::Report r;
  r.context = context;
  r.seq = seq;
  r.kind = kind;
  r.alg = alg;
  r.participants = participants;
  r.payload_bytes = payload_bytes;
  r.has_hash = has_hash;
  r.result_hash = result_hash;
  r.world_rank = rank_;
  r.comm_label = comm_label;
  rt_->monitor_->observe(r);
}

const CollSelector& Proc::coll_selector() const {
  return rt_->opts_.coll_selector != nullptr ? *rt_->opts_.coll_selector
                                             : CollSelector::tuned();
}

Runtime::Runtime(net::MachineSpec spec, int nranks, RuntimeOptions opts)
    : spec_(std::move(spec)),
      placement_(spec_),
      opts_(std::move(opts)),
      nranks_(nranks) {
  XG_REQUIRE(nranks >= 1, "Runtime: need at least one rank");
  XG_REQUIRE(nranks <= spec_.total_ranks(),
             strprintf("Runtime: %d ranks exceed machine capacity %d", nranks,
                       spec_.total_ranks()));
  XG_REQUIRE(nranks <= 4096, "Runtime: rank count cap (4096) exceeded");
  for (const auto& s : opts_.faults.stragglers) {
    XG_REQUIRE(s.rank < nranks_,
               strprintf("faults: straggler rank %d >= nranks %d", s.rank,
                         nranks_));
    placement_.set_rank_compute_scale(s.rank, s.value);
  }
  for (const auto& s : opts_.faults.jitters) {
    XG_REQUIRE(s.rank < nranks_,
               strprintf("faults: jitter rank %d >= nranks %d", s.rank,
                         nranks_));
  }
  for (const auto& k : opts_.faults.kills) {
    XG_REQUIRE(k.rank < nranks_,
               strprintf("faults: kill rank %d >= nranks %d", k.rank, nranks_));
  }
  for (const auto& h : opts_.faults.hangs) {
    XG_REQUIRE(h.rank < nranks_,
               strprintf("faults: hang rank %d >= nranks %d", h.rank, nranks_));
  }
  mailboxes_.reserve(nranks_);
  for (int r = 0; r < nranks_; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

Runtime::~Runtime() = default;

void Runtime::record_kill(const RankFailure& kill, std::exception_ptr error) {
  const std::pair key(kill.virtual_time_s(), kill.world_rank());
  const std::scoped_lock lock(err_mu_);
  if (first_error_ && !(first_kill_ && key < *first_kill_)) return;
  first_error_ = std::move(error);
  first_kill_ = key;
}

void Runtime::fail(std::exception_ptr error) {
  {
    const std::scoped_lock lock(err_mu_);
    if (!first_error_) first_error_ = std::move(error);
  }
  for (auto& mb : mailboxes_) mb->abort();
}

void Runtime::report_deadlock(const std::vector<Proc>& procs) {
  // Runs on a worker outside any fiber: whatever happens, the run must be
  // failed so the parked ranks wake and unwind. After a rank kill the
  // stall is expected (the survivors wait on the dead rank) and the kill
  // stays the run's error.
  try {
    fail(std::make_exception_ptr(deadlock_error(procs)));
  } catch (...) {
    fail(std::current_exception());
  }
}

DeadlockError Runtime::deadlock_error(const std::vector<Proc>& procs) const {
  // Every unfinished rank is parked, so its Proc and mailbox are quiescent.
  std::vector<BlockedRankInfo> blocked;
  for (int r = 0; r < nranks_; ++r) {
    const auto waiting = mailboxes_[r]->waiter();
    if (!waiting) continue;
    BlockedRankInfo info;
    info.world_rank = r;
    info.virtual_time_s = procs[r].clock_;
    info.phase = procs[r].phase_;
    info.waiting_src_world = waiting->src_world;
    info.waiting_tag = waiting->tag;
    info.waiting_context = waiting->context;
    info.hung = waiting->context == kHangContext;
    info.mailbox_pending = mailboxes_[r]->pending();
    blocked.push_back(std::move(info));
  }
  std::string msg = strprintf(
      "simmpi: virtual schedule is stuck — %zu rank(s) blocked in receives "
      "that no running rank can satisfy:",
      blocked.size());
  for (const auto& b : blocked) {
    msg += strprintf(
        "\n  rank %d: phase '%s', virtual t=%.9g s, waiting for src=%d tag=%d "
        "ctx=%016llx; %zu pending message(s) in its mailbox",
        b.world_rank, b.phase.c_str(), b.virtual_time_s, b.waiting_src_world,
        b.waiting_tag, static_cast<unsigned long long>(b.waiting_context),
        b.mailbox_pending);
  }
  return DeadlockError(msg, std::move(blocked));
}

RunResult Runtime::run(const std::function<void(Proc&)>& body) {
  first_error_ = nullptr;
  first_kill_.reset();
  trace_.clear();
  spans_.clear();
  monitor_ = std::make_unique<InvariantMonitor>();
  const bool faults_on = opts_.faults.active();

  std::vector<Proc> procs(static_cast<size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    procs[r].rt_ = this;
    procs[r].rank_ = r;
    procs[r].fstats_.world_rank = r;
    if (faults_on) {
      procs[r].faults_ = &opts_.faults;
      procs[r].fault_rng_ = Rng(opts_.faults.rank_seed(r));
      procs[r].straggle_factor_ = placement_.rank_compute_scale(r);
      procs[r].jitter_frac_ = opts_.faults.jitter_frac(r);
      procs[r].kill_at_ = opts_.faults.kill_time_for(r);
      procs[r].hang_at_ = opts_.faults.hang_time_for(r);
      procs[r].rearm_faults();
    }
  }

  detail::FiberScheduler sched(
      nranks_,
      [this, &body, &procs](int r) {
        try {
          body(procs[r]);
        } catch (const RankFailure& kill) {
          // A killed rank just stops. The others run on until they wait on
          // it, so how far they get (the snapshots they commit, say) is
          // fixed by virtual time, not by the host schedule; the stall that
          // follows ends the run.
          record_kill(kill, std::current_exception());
        } catch (...) {
          fail(std::current_exception());
        }
      },
      [this, &procs] { report_deadlock(procs); }, opts_.schedule_seed);
  for (int r = 0; r < nranks_; ++r) {
    mailboxes_[r]->begin_run(&sched, r,
                             faults_on && opts_.faults.perturbs_messages());
  }
  sched.run();
  if (first_error_) std::rethrow_exception(first_error_);
  if (opts_.check_invariants) monitor_->final_check();

  RunResult result;
  result.collectives_checked =
      opts_.check_invariants ? monitor_->completed() : 0;
  if (faults_on) {
    result.fault_stats.reserve(static_cast<size_t>(nranks_));
    for (int r = 0; r < nranks_; ++r) {
      result.fault_stats.push_back(procs[r].fstats_);
    }
  }
  result.ranks.reserve(static_cast<size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    ProcStats ps;
    ps.world_rank = r;
    ps.final_time_s = procs[r].clock_;
    ps.phases = std::move(procs[r].stats_);
    result.makespan_s = std::max(result.makespan_s, ps.final_time_s);
    result.ranks.push_back(std::move(ps));
  }
  {
    const std::scoped_lock lock(trace_mu_);
    // Ranks on different workers append concurrently, so trace_ and spans_
    // arrive interleaved in a run-dependent order. A stable sort makes the
    // order total: records with equal keys come from one rank (world_rank
    // is a key), whose own appends are in its record order, which is thus
    // the last key.
    result.trace = std::move(trace_);
    std::stable_sort(result.trace.begin(), result.trace.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.t_start != b.t_start) return a.t_start < b.t_start;
                       return a.world_rank < b.world_rank;
                     });
    annotate_collective_arrivals(result.trace);
    result.spans = std::move(spans_);
    std::stable_sort(result.spans.begin(), result.spans.end(),
                     [](const SpanEvent& a, const SpanEvent& b) {
                       if (a.t_start != b.t_start) return a.t_start < b.t_start;
                       if (a.world_rank != b.world_rank) return a.world_rank < b.world_rank;
                       return a.t_end > b.t_end;  // enclosing span first
                     });
  }
  return result;
}

RunResult run_simulation(const net::MachineSpec& spec, int nranks,
                         const std::function<void(Proc&)>& body,
                         RuntimeOptions opts) {
  return Runtime(spec, nranks, opts).run(body);
}

void annotate_collective_arrivals(std::vector<TraceEvent>& trace) {
  struct Arrival {
    double min_start = 0.0;
    double max_start = 0.0;
    int last_arriver = -1;
    bool seen = false;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, Arrival> groups;
  for (const auto& e : trace) {
    Arrival& a = groups[{e.comm_context, e.seq}];
    if (!a.seen) {
      a.seen = true;
      a.min_start = a.max_start = e.t_start;
      a.last_arriver = e.world_rank;
      continue;
    }
    a.min_start = std::min(a.min_start, e.t_start);
    // Ties go to the lower world rank: trace is sorted by (t_start, rank),
    // but annotation must not depend on that, so compare explicitly.
    if (e.t_start > a.max_start ||
        (e.t_start == a.max_start && e.world_rank < a.last_arriver)) {
      a.max_start = e.t_start;
      a.last_arriver = e.world_rank;
    }
  }
  for (auto& e : trace) {
    const Arrival& a = groups.at({e.comm_context, e.seq});
    e.arrival_skew_s = a.max_start - a.min_start;
    e.last_arrival_s = a.max_start;
    e.last_arriver = a.last_arriver;
  }
}

const char* trace_kind_name(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kBarrier: return "Barrier";
    case TraceEvent::Kind::kBcast: return "Bcast";
    case TraceEvent::Kind::kReduce: return "Reduce";
    case TraceEvent::Kind::kAllReduce: return "AllReduce";
    case TraceEvent::Kind::kAllGather: return "AllGather";
    case TraceEvent::Kind::kAllToAll: return "AllToAll";
    case TraceEvent::Kind::kGather: return "Gather";
    case TraceEvent::Kind::kScatter: return "Scatter";
    case TraceEvent::Kind::kReduceScatter: return "ReduceScatter";
    case TraceEvent::Kind::kScan: return "Scan";
  }
  return "?";
}

}  // namespace xg::mpi
