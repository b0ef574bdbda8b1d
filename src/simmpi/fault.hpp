// Deterministic fault injection for the simulated MPI runtime.
//
// A FaultPlan is a seed-driven description of "what goes wrong" during a
// run: eager messages get extra latency (but stay within the legal MPI
// matching order), chosen ranks run slow or jittery (stragglers), and a
// rank can be killed at a virtual time — surfacing a structured
// RankFailure instead of deadlocking the schedule — or hung, which stalls
// the schedule into a DeadlockError report. The same seed always
// reproduces the same injected schedule, so fault runs are replayable and
// usable as regression tests for the runtime itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace xg::mpi {

/// Seed-driven fault-injection plan. Parse one from a spec string
/// (the `--faults` CLI syntax), components separated by ';':
///
///   seed=N              base seed; expanded per rank, so every rank draws
///                       an independent deterministic stream
///   straggler=RxF       rank R runs compute-side charges F times slower
///                       (repeatable for multiple stragglers)
///   jitter=RxJ          rank R's compute charges are stretched by a random
///                       factor in [1, 1+J) drawn per charge (repeatable)
///   delay=PxS           each eager message is held back S extra virtual
///                       seconds with probability P (per-sender draw)
///   kill=R@T            rank R throws RankFailure at the first virtual-clock
///                       observation point at or after time T (repeatable:
///                       each clause arms an independent kill, so a recovered
///                       job can be killed again in a later attempt)
///   hang=R@T            rank R stops answering at the first observation
///                       point at or after time T: it parks in a receive
///                       nothing satisfies, so the run ends in a
///                       DeadlockError once every other rank waits on it or
///                       has finished (repeatable)
///
/// Example: "seed=42;straggler=2x3.0;jitter=2x0.5;delay=0.3x5e-6;kill=1@0.02"
struct FaultPlan {
  struct RankScale {
    int rank = -1;
    double value = 1.0;
  };

  struct Kill {
    int rank = -1;
    double time_s = 0.0;
  };

  std::uint64_t seed = 0;
  std::vector<RankScale> stragglers;  ///< {rank, slowdown factor >= 1}
  std::vector<RankScale> jitters;     ///< {rank, max jitter fraction >= 0}
  double delay_probability = 0.0;     ///< per-message delay probability
  double delay_s = 0.0;               ///< extra virtual latency per delayed msg
  std::vector<Kill> kills;            ///< armed kills; empty = nobody dies
  std::vector<Kill> hangs;            ///< armed hangs, {rank, time} as kills

  /// True if any fault mechanism is configured.
  [[nodiscard]] bool active() const {
    return !stragglers.empty() || !jitters.empty() ||
           (delay_probability > 0.0 && delay_s > 0.0) || !kills.empty() ||
           !hangs.empty();
  }

  /// Earliest kill time armed for `rank`, or a negative value if immortal.
  [[nodiscard]] double kill_time_for(int rank) const {
    return earliest_for(kills, rank);
  }
  /// Earliest hang time armed for `rank`, or a negative value if none.
  [[nodiscard]] double hang_time_for(int rank) const {
    return earliest_for(hangs, rank);
  }

  /// Convenience: arm one more kill clause.
  void add_kill(int rank, double time_s) { kills.push_back({rank, time_s}); }

  /// True if the plan perturbs the message schedule (enables the mailbox
  /// arrival-order clamp that keeps per-channel FIFO timestamps legal).
  [[nodiscard]] bool perturbs_messages() const {
    return delay_probability > 0.0 && delay_s > 0.0;
  }

  [[nodiscard]] double straggle_factor(int rank) const;
  [[nodiscard]] double jitter_frac(int rank) const;

  /// Per-rank RNG seed: splitmix64-expanded so adjacent ranks decorrelate.
  [[nodiscard]] std::uint64_t rank_seed(int rank) const;

  /// Copy of this plan with kill clauses removed. Elastic recovery treats a
  /// fired kill as a transient fault: the resumed attempt keeps the
  /// stragglers, jitter, and message delays (same seed) but must not die
  /// again at the same virtual time — the restarted clock begins at zero.
  /// `fired_rank >= 0` strips only the clauses armed for that rank, so a
  /// plan with kills for several ranks keeps firing across attempts (the
  /// mechanism behind max_recoveries-exhaustion tests); the default strips
  /// every kill.
  [[nodiscard]] FaultPlan without_kill(int fired_rank = -1) const {
    FaultPlan plan = *this;
    if (fired_rank < 0) {
      plan.kills.clear();
    } else {
      std::erase_if(plan.kills,
                    [fired_rank](const Kill& k) { return k.rank == fired_rank; });
    }
    return plan;
  }

  /// Copy with every rank-targeted clause aimed at ranks >= nranks removed.
  /// Elastic recovery shrinks the job; clauses aimed at ranks that no
  /// longer exist must not trip the runtime's configuration guard when the
  /// surviving allocation retries.
  [[nodiscard]] FaultPlan pruned_to(int nranks) const {
    FaultPlan plan = *this;
    std::erase_if(plan.stragglers,
                  [nranks](const RankScale& s) { return s.rank >= nranks; });
    std::erase_if(plan.jitters,
                  [nranks](const RankScale& s) { return s.rank >= nranks; });
    std::erase_if(plan.kills,
                  [nranks](const Kill& k) { return k.rank >= nranks; });
    std::erase_if(plan.hangs,
                  [nranks](const Kill& k) { return k.rank >= nranks; });
    return plan;
  }

  /// Parse the spec grammar above; throws InputError with context on any
  /// malformed component. An empty spec yields an inactive plan.
  static FaultPlan parse(const std::string& spec);

  /// Human-readable one-line summary (deterministic, for logs and reports).
  [[nodiscard]] std::string describe() const;

 private:
  static double earliest_for(const std::vector<Kill>& clauses, int rank) {
    double t = -1.0;
    for (const auto& k : clauses) {
      if (k.rank == rank && (t < 0.0 || k.time_s < t)) t = k.time_s;
    }
    return t;
  }
};

/// Per-rank accounting of what the fault layer actually injected. Returned
/// in RunResult::fault_stats so tests can assert that the same seed
/// reproduces the identical injected schedule.
struct FaultStats {
  int world_rank = -1;
  std::uint64_t delayed_msgs = 0;   ///< eager messages given extra latency
  double delay_added_s = 0.0;       ///< total injected message delay
  double straggler_added_s = 0.0;   ///< extra virtual time from slowdown+jitter
};

/// Structured failure raised when a FaultPlan kills a rank. The other ranks
/// run on until they wait on the dead one; the runtime then aborts them and
/// rethrows this from Runtime::run, so a dead rank never hangs the run.
class RankFailure : public Error {
 public:
  RankFailure(int world_rank, double virtual_time_s, std::string phase);

  [[nodiscard]] int world_rank() const { return world_rank_; }
  [[nodiscard]] double virtual_time_s() const { return virtual_time_s_; }
  [[nodiscard]] const std::string& phase() const { return phase_; }

 private:
  int world_rank_;
  double virtual_time_s_;
  std::string phase_;
};

/// One blocked rank in a deadlock report: what it was waiting for and how
/// far its virtual clock had advanced when the schedule stopped.
struct BlockedRankInfo {
  int world_rank = -1;
  double virtual_time_s = 0.0;
  std::string phase;
  int waiting_src_world = -1;       ///< sender the rank is blocked on
  int waiting_tag = 0;
  std::uint64_t waiting_context = 0;
  std::size_t mailbox_pending = 0;  ///< delivered-but-unmatched messages
  bool hung = false;  ///< parked by a FaultPlan hang clause
};

/// Raised by the runtime as soon as every unfinished rank is blocked in a
/// receive that no running rank can satisfy: the virtual schedule can never
/// make progress again.
/// what() carries the full formatted report; blocked() the structured form.
class DeadlockError : public Error {
 public:
  DeadlockError(const std::string& what, std::vector<BlockedRankInfo> blocked)
      : Error(what), blocked_(std::move(blocked)) {}

  [[nodiscard]] const std::vector<BlockedRankInfo>& blocked() const {
    return blocked_;
  }

 private:
  std::vector<BlockedRankInfo> blocked_;
};

}  // namespace xg::mpi
