// Per-collective invariant monitor for the simulated MPI runtime.
//
// Every member of a collective reports (context, seq, kind, participants,
// payload bytes, and — for value-returning typed collectives — a hash of
// the result buffer) when its part of the operation completes. Members of
// the same collective instance must agree on all of it: a rank that calls a
// different collective at the same sequence number, passes a different
// payload size, or computes a bitwise-different result is a runtime bug the
// benchmarks would otherwise silently absorb. The monitor is on by default
// in every run (RuntimeOptions::check_invariants), so the entire existing
// test and bench suite doubles as its clean-run corpus.
//
// The monitor sits on every collective's path, so a clean observation
// formats nothing and locks only the shard its (context, seq) hashes to;
// the message text is built only when a check fails.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "simmpi/stats.hpp"
#include "util/error.hpp"

namespace xg::mpi {

/// Raised when two members of the same collective instance disagree, or
/// when a run ends with a collective only some members entered.
class InvariantViolation : public Error {
 public:
  explicit InvariantViolation(const std::string& what) : Error(what) {}
};

class InvariantMonitor {
 public:
  struct Report {
    std::uint64_t context = 0;
    std::uint64_t seq = 0;
    TraceEvent::Kind kind{};
    CollAlg alg = CollAlg::kAuto;  ///< algorithm that ran (members must agree)
    int participants = 0;
    std::uint64_t payload_bytes = 0;
    bool has_hash = false;        ///< typed value-returning collective
    std::uint64_t result_hash = 0;
    int world_rank = -1;
    std::string_view comm_label;  ///< must outlive the observe() call
  };

  /// Record one member's view of a completed collective. Thread-safe.
  /// Throws InvariantViolation if it disagrees with an earlier member.
  void observe(const Report& r);

  /// End-of-run check: every observed collective must have been completed
  /// by all of its members. Called only on otherwise-clean runs.
  void final_check() const;

  /// Number of collective instances fully checked (all members agreed).
  [[nodiscard]] std::uint64_t completed() const;

  static constexpr std::size_t kShards = 16;
  /// The shard that holds collective instance (context, seq).
  static std::size_t shard_of(std::uint64_t context, std::uint64_t seq);

 private:
  struct Inflight {
    TraceEvent::Kind kind{};
    CollAlg alg = CollAlg::kAuto;
    int participants = 0;
    std::uint64_t payload_bytes = 0;
    bool has_hash = false;
    std::uint64_t result_hash = 0;
    int first_rank = -1;
    int count = 0;
    std::string comm_label;
  };

  struct alignas(64) Shard {
    mutable std::mutex mu;  ///< guards the members below
    std::map<std::pair<std::uint64_t, std::uint64_t>, Inflight> inflight;
    std::uint64_t completed = 0;
  };

  std::array<Shard, kShards> shards_;
};

}  // namespace xg::mpi
