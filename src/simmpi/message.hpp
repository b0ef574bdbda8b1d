// Message and per-rank mailbox for the simulated MPI runtime.
//
// Delivery model: eager buffered send. The sender never blocks; it deposits
// the message (with a virtual arrival timestamp) into the receiver's mailbox.
// A receive parks the receiving rank's *fiber* until a matching message
// exists, then advances the receiver's *virtual clock* to max(local,
// arrival). Virtual time is therefore independent of how fibers are
// scheduled onto worker threads; the SchedulePerturbation.* tests check it
// by comparing runs under shuffled schedules and random worker counts
// (RuntimeOptions::schedule_seed) bit for bit against the fixed order.
//
// Hot-path cost: a virtual payload moves no bytes and allocates nothing. A
// mailbox is a vector of pending messages whose capacity survives across
// runs, scanned in arrival order and erased in place, so a send/receive
// pair touches no allocator once the mailbox has grown to its run's
// high-water mark. A real payload still owns one byte vector.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

namespace xg::mpi {

namespace detail {
class FiberScheduler;
}  // namespace detail

struct Message {
  std::uint64_t context = 0;  ///< communicator context id
  int src_world = -1;         ///< sender's world rank
  int tag = 0;
  double arrival_s = 0.0;        ///< virtual time the message reaches dst
  std::uint64_t bytes = 0;       ///< logical payload size
  std::vector<std::byte> data;   ///< empty for virtual payloads
  bool is_virtual = false;
};

/// A receive's matching key.
struct Channel {
  std::uint64_t context = 0;
  int src_world = -1;
  int tag = 0;
};

/// One mailbox per world rank. Matching is (context, src, tag), FIFO within
/// a channel — the order messages were sent on that channel.
class Mailbox {
 public:
  /// Reset per-run state: clears any leftover messages, the abort flag, the
  /// waiter and the per-channel arrival clock. `owner` is the rank (fiber of
  /// `sched`) that takes from this mailbox. `enforce_arrival_order` turns on
  /// the FIFO timestamp clamp used under fault injection: a message whose
  /// injected arrival would precede an earlier message on the same channel
  /// is clamped to that message's arrival, so delays can never reorder a
  /// channel beyond what MPI matching rules allow.
  void begin_run(detail::FiberScheduler* sched, int owner,
                 bool enforce_arrival_order);

  /// Enqueue `msg`; wakes the owner if it is parked on exactly this
  /// message's channel.
  void deliver(Message msg);

  /// Called from the owner's fiber: park until a matching message arrives
  /// (or the run aborts), remove and return it. Throws xg::Error if the run
  /// was aborted.
  Message take(std::uint64_t context, int src_world, int tag);

  /// Mark the run aborted and wake the owner if it is parked.
  void abort();

  /// The channel the owner is parked on, if it is parked in take().
  [[nodiscard]] std::optional<Channel> waiter() const;

  /// Number of undelivered messages (used by shutdown sanity checks).
  [[nodiscard]] size_t pending() const;

 private:
  detail::FiberScheduler* sched_ = nullptr;
  int owner_ = -1;
  mutable std::mutex mu_;  ///< guards everything below
  std::vector<Message> queue_;  ///< pending messages, in arrival order
  std::optional<Channel> waiter_;
  bool aborted_ = false;
  bool enforce_arrival_order_ = false;
  /// Latest arrival timestamp seen per (context, src, tag) channel.
  std::map<std::tuple<std::uint64_t, int, int>, double> channel_arrival_;
};

}  // namespace xg::mpi
