// Schedule-perturbation support shared by the runtime, collective, fault,
// checkpoint and job-runner tests: the seeds each perturbation case runs,
// and a digest of every bit of an mpi::RunResult.
//
// A perturbation case runs the same job at schedule seed 0 (the fixed host
// order) and at each seed in 1..kScheduleSeeds, which shuffle every
// worker's ready batch and pick the worker count at random, and requires
// the same digest each time: virtual time, traffic, fault accounting and
// the sorted trace must not depend on how fibers are scheduled.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "simmpi/stats.hpp"
#include "util/hash.hpp"

namespace xg::testing {

/// Nonzero schedule seeds each perturbation case compares against seed 0.
inline constexpr std::uint64_t kScheduleSeeds = 20;

/// FNV-1a over raw bits: unlike Hasher::f64, -0.0 and +0.0 differ.
inline void hash_bits(Hasher& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  h.u64(bits);
}

inline void hash_phase(Hasher& h, const mpi::PhaseStats& p) {
  hash_bits(h, p.comm_s);
  hash_bits(h, p.compute_s);
  h.u64(p.bytes_sent).u64(p.msgs_sent).u64(p.bytes_to.size());
  for (const auto& [dst, bytes] : p.bytes_to) {
    h.i64(dst).u64(bytes);
  }
}

/// Digest of every field of `r`: per-rank clocks and phase stats, fault
/// accounting, the checked-collective count, and the trace and span rows in
/// the order Runtime::run sorted them.
inline std::uint64_t run_digest(const mpi::RunResult& r) {
  Hasher h;
  hash_bits(h, r.makespan_s);
  h.u64(r.collectives_checked).u64(r.ranks.size());
  for (const auto& rank : r.ranks) {
    h.i64(rank.world_rank);
    hash_bits(h, rank.final_time_s);
    h.u64(rank.phases.size());
    for (const auto& [name, phase] : rank.phases) {
      h.str(name);
      hash_phase(h, phase);
    }
  }
  h.u64(r.fault_stats.size());
  for (const auto& f : r.fault_stats) {
    h.i64(f.world_rank).u64(f.delayed_msgs);
    hash_bits(h, f.delay_added_s);
    hash_bits(h, f.straggler_added_s);
  }
  h.u64(r.trace.size());
  for (const auto& e : r.trace) {
    h.i64(static_cast<int>(e.kind)).i64(static_cast<int>(e.alg));
    h.u64(e.comm_context).u64(e.seq).str(e.comm_label);
    h.i64(e.participants).u64(e.payload_bytes);
    h.i64(e.world_rank).i64(e.local_rank).i64(e.member);
    hash_bits(h, e.t_start);
    hash_bits(h, e.t_end);
    h.str(e.phase);
    hash_bits(h, e.arrival_skew_s);
    hash_bits(h, e.last_arrival_s);
    h.i64(e.last_arriver);
  }
  h.u64(r.spans.size());
  for (const auto& s : r.spans) {
    h.str(s.name).str(s.phase).i64(s.world_rank).i64(s.member);
    hash_bits(h, s.t_start);
    hash_bits(h, s.t_end);
  }
  return h.digest();
}

}  // namespace xg::testing
