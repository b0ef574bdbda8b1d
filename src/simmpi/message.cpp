#include "simmpi/message.hpp"

#include "simmpi/fiber.hpp"
#include "util/error.hpp"

namespace xg::mpi {

namespace {
/// Pending messages a mailbox holds without growing: one per peer for two
/// overlapping collective instances on a 32-rank communicator. A mailbox
/// keeps any larger capacity a run needed.
constexpr size_t kInitialCapacity = 64;
}  // namespace

void Mailbox::begin_run(detail::FiberScheduler* sched, int owner,
                        bool enforce_arrival_order) {
  const std::scoped_lock lock(mu_);
  sched_ = sched;
  owner_ = owner;
  queue_.clear();
  queue_.reserve(kInitialCapacity);
  waiter_.reset();
  aborted_ = false;
  enforce_arrival_order_ = enforce_arrival_order;
  channel_arrival_.clear();
}

void Mailbox::deliver(Message msg) {
  bool wake = false;
  {
    const std::scoped_lock lock(mu_);
    if (enforce_arrival_order_) {
      double& last = channel_arrival_[{msg.context, msg.src_world, msg.tag}];
      if (msg.arrival_s < last) {
        msg.arrival_s = last;
      } else {
        last = msg.arrival_s;
      }
    }
    wake = waiter_ && waiter_->context == msg.context &&
           waiter_->src_world == msg.src_world && waiter_->tag == msg.tag;
    if (wake) waiter_.reset();
    queue_.push_back(std::move(msg));
  }
  if (wake) sched_->wake(owner_);
}

Message Mailbox::take(std::uint64_t context, int src_world, int tag) {
  std::unique_lock lock(mu_);
  while (true) {
    if (aborted_) throw Error("simmpi: run aborted while waiting for a message");
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->context == context && it->src_world == src_world && it->tag == tag) {
        Message msg = std::move(*it);
        queue_.erase(it);
        return msg;
      }
    }
    waiter_ = Channel{context, src_world, tag};
    lock.unlock();
    sched_->park(owner_);
    lock.lock();
  }
}

void Mailbox::abort() {
  bool wake = false;
  {
    const std::scoped_lock lock(mu_);
    aborted_ = true;
    wake = waiter_.has_value();
    waiter_.reset();
  }
  if (wake) sched_->wake(owner_);
}

std::optional<Channel> Mailbox::waiter() const {
  const std::scoped_lock lock(mu_);
  return waiter_;
}

size_t Mailbox::pending() const {
  const std::scoped_lock lock(mu_);
  return queue_.size();
}

}  // namespace xg::mpi
