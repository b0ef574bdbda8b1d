// Communicators and collective operations for the simulated MPI runtime.
//
// Collectives are implemented with the textbook algorithms real MPI
// libraries use (binomial trees, recursive doubling, ring reduce-scatter,
// Rabenseifner, Bruck, pairwise exchange, hierarchical leader schedules),
// built on the eager p2p layer. Their cost therefore *emerges* from the
// message schedule — in particular, AllReduce cost grows with the number of
// participating processes, which is exactly the effect the XGYRO paper
// exploits by shrinking the str-phase communicator.
//
// Which algorithm runs is decided per call: an explicit CollAlg request, or
// (the default, CollAlg::kAuto) the run's CollSelector mapping
// (kind, bytes, participants, spans_nodes) → algorithm. The resolved
// algorithm is recorded on the trace rows and member agreement on it is
// enforced by the invariant monitor.
//
// Every collective has a typed form (moves real data) and a `_virtual` form
// (moves byte counts only). Both follow the identical message schedule, so
// paper-scale model runs time exactly what small real runs execute.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "simmpi/runtime.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace xg::mpi {

class Comm;

namespace detail {

struct Group {
  std::uint64_t context = 0;
  std::string label;
  std::vector<int> members;    ///< world ranks indexed by local rank
  std::uint64_t next_seq = 1;  ///< collective sequence (consistent across
                               ///< members because collective calls are
                               ///< ordered identically on every member)
  std::uint64_t next_split = 1;
  /// NIC-sharing factor for this communicator's traffic. -1 = conservative
  /// default (all ranks of the node contend — correct for bulk-synchronous
  /// phases where sibling communicators run concurrently). A communicator
  /// created with exclusive_network=true instead uses its own max members
  /// per node, modelling a communicator that runs alone on the machine.
  int nic_sharers = -1;
  /// Temporary NIC-sharing override (> 0 wins over nic_sharers) used by the
  /// hierarchical schedules: during the inter-node stage only one rank per
  /// node (the leader) injects, so it gets the exclusive per-rank attach
  /// bandwidth. Managed by ScopedNicExclusive.
  int nic_override = 0;

  // --- lazily computed topology view (Group objects are per rank — the
  // world group is cached per Proc, split groups are created per rank — so
  // in-place mutation here is thread-safe).
  int spans_nodes = -1;  ///< members on more than one node; -1 = not yet known
  bool node_info_ready = false;
  /// Local ranks grouped by node (ascending within a node), ordered by node
  /// id. One group per distinct node the members occupy.
  std::vector<std::vector<int>> node_groups;
  int my_group = -1;  ///< index into node_groups of this rank's node
};

/// Type-erased element buffer used by reduce-style collectives.
class CollBuf {
 public:
  virtual ~CollBuf() = default;
  [[nodiscard]] virtual size_t count() const = 0;
  [[nodiscard]] virtual std::uint64_t elem_bytes() const = 0;
  virtual void send_range(Comm& c, int dst, int tag, size_t lo, size_t hi) = 0;
  virtual void recv_replace(Comm& c, int src, int tag, size_t lo, size_t hi) = 0;
  /// Receive [lo,hi) and fold into the local buffer. `partner_lower` fixes
  /// the operand order so floating-point results are rank-order stable.
  virtual void recv_reduce(Comm& c, int src, int tag, size_t lo, size_t hi,
                           bool partner_lower) = 0;
  [[nodiscard]] std::uint64_t total_bytes() const { return count() * elem_bytes(); }
};

/// Type-erased uniform-block buffer used by alltoall/allgather.
class BlockBuf {
 public:
  virtual ~BlockBuf() = default;
  virtual void send_in(Comm& c, int block, int dst, int tag) = 0;
  virtual void send_out(Comm& c, int block, int dst, int tag) = 0;
  virtual void recv_out(Comm& c, int block, int src, int tag) = 0;
  virtual void copy_in_to_out(int in_block, int out_block) = 0;
  /// Send/receive a set of out-blocks as ONE message (packed contiguously in
  /// `blocks` order). The Bruck algorithms owe their log(P) step count to
  /// this aggregation; P separate messages would pay P latencies.
  virtual void send_out_blocks(Comm& c, std::span<const int> blocks, int dst,
                               int tag) = 0;
  virtual void recv_out_blocks(Comm& c, std::span<const int> blocks, int src,
                               int tag) = 0;
  /// In-place block permutation: new_out[j] = old_out[perm[j]]. No traffic,
  /// so the virtual form is a no-op.
  virtual void permute_out(std::span<const int> perm) = 0;
  [[nodiscard]] virtual std::uint64_t block_bytes() const = 0;
};

// Each impl resolves `alg` (kAuto → the run's CollSelector), runs the
// schedule, and returns the algorithm that actually ran — which the caller
// records on the trace row and reports to the invariant monitor.
CollAlg allreduce_impl(Comm& c, CollBuf& buf, CollAlg alg);
CollAlg reduce_impl(Comm& c, CollBuf& buf, int root, CollAlg alg);
CollAlg bcast_impl(Comm& c, CollBuf& buf, int root, CollAlg alg);
CollAlg alltoall_impl(Comm& c, BlockBuf& buf, CollAlg alg);
CollAlg allgather_impl(Comm& c, BlockBuf& buf, CollAlg alg);
/// Ring reduce-scatter: after return, rank r holds the fully reduced chunk
/// (r+1) mod size in its buffer (chunk_lo partition).
void ring_reduce_scatter_impl(Comm& c, CollBuf& buf, int tag);
void scan_impl(Comm& c, CollBuf& buf);

}  // namespace detail

/// Handle to a nonblocking operation; complete it with Comm::wait. Default
/// constructed = empty (wait is a no-op). Value-semantic and cheap.
class Request {
 public:
  Request() = default;
  [[nodiscard]] bool valid() const { return kind_ != Kind::kNone; }

 private:
  friend class Comm;
  enum class Kind { kNone, kSend, kRecv };
  Kind kind_ = Kind::kNone;
  double send_complete_at_ = 0.0;  // send only
  int src_ = -1;                   // recv only (local rank)
  int tag_ = 0;
  void* data_ = nullptr;
  std::uint64_t bytes_ = 0;
};

class Comm {
 public:
  Comm() = default;

  [[nodiscard]] bool valid() const { return group_ != nullptr; }
  [[nodiscard]] int rank() const { return myrank_; }
  [[nodiscard]] int size() const { return static_cast<int>(group_->members.size()); }
  [[nodiscard]] std::uint64_t context() const { return group_->context; }
  [[nodiscard]] const std::string& label() const { return group_->label; }
  [[nodiscard]] const std::vector<int>& members() const { return group_->members; }
  [[nodiscard]] int world_rank_of(int local) const { return group_->members[local]; }
  [[nodiscard]] Proc& proc() const { return *proc_; }

  // --- point to point (local ranks; user tags must be >= 0) ---------------

  void send_bytes(int dst, int tag, const void* data, std::uint64_t bytes);
  void recv_bytes(int src, int tag, void* data, std::uint64_t bytes);

  template <typename T>
  void send(std::span<const T> data, int dst, int tag) {
    send_bytes(dst, tag, data.data(), data.size_bytes());
  }
  template <typename T>
  void recv(std::span<T> data, int src, int tag) {
    recv_bytes(src, tag, data.data(), data.size_bytes());
  }
  void send_virtual(std::uint64_t bytes, int dst, int tag) {
    send_bytes(dst, tag, nullptr, bytes);
  }
  void recv_virtual(std::uint64_t bytes, int src, int tag) {
    recv_bytes(src, tag, nullptr, bytes);
  }

  // --- nonblocking p2p ------------------------------------------------------
  // isend charges only the CPU-side overhead now; the injection runs on the
  // rank's NIC timeline, so compute performed before wait() overlaps with
  // the transfer — the mechanism behind CGYRO-style comm/compute overlap.
  // irecv records the match; wait() blocks until the message arrives.

  Request isend_bytes(int dst, int tag, const void* data, std::uint64_t bytes);
  Request irecv_bytes(int src, int tag, void* data, std::uint64_t bytes);
  template <typename T>
  Request isend(std::span<const T> data, int dst, int tag) {
    return isend_bytes(dst, tag, data.data(), data.size_bytes());
  }
  template <typename T>
  Request irecv(std::span<T> data, int src, int tag) {
    return irecv_bytes(src, tag, data.data(), data.size_bytes());
  }
  Request isend_virtual(std::uint64_t bytes, int dst, int tag) {
    return isend_bytes(dst, tag, nullptr, bytes);
  }
  Request irecv_virtual(std::uint64_t bytes, int src, int tag) {
    return irecv_bytes(src, tag, nullptr, bytes);
  }

  /// Complete one request (no-op for an empty one); clears it.
  void wait(Request& request);
  /// Complete all requests, in order.
  void waitall(std::span<Request> requests);

  // --- collectives ---------------------------------------------------------
  // The `alg` parameter requests a specific algorithm; the default kAuto
  // defers to the run's CollSelector (see simmpi/coll.hpp).

  void barrier();

  template <typename T, typename Op>
  void allreduce(std::span<T> data, Op op, CollAlg alg = CollAlg::kAuto);
  template <typename T>
  void allreduce_sum(std::span<T> data, CollAlg alg = CollAlg::kAuto) {
    allreduce(data, [](T a, T b) { return a + b; }, alg);
  }
  void allreduce_virtual(std::uint64_t bytes, CollAlg alg = CollAlg::kAuto);

  template <typename T, typename Op>
  void reduce(std::span<T> data, Op op, int root, CollAlg alg = CollAlg::kAuto);
  void reduce_virtual(std::uint64_t bytes, int root,
                      CollAlg alg = CollAlg::kAuto);

  template <typename T>
  void bcast(std::span<T> data, int root, CollAlg alg = CollAlg::kAuto);
  void bcast_virtual(std::uint64_t bytes, int root,
                     CollAlg alg = CollAlg::kAuto);

  /// MPI_Alltoall: `send.size() == recv.size() == count_per_rank * size()`.
  template <typename T>
  void alltoall(std::span<const T> send_data, std::span<T> recv_data,
                CollAlg alg = CollAlg::kAuto);
  void alltoall_virtual(std::uint64_t bytes_per_pair,
                        CollAlg alg = CollAlg::kAuto);

  /// MPI_Allgather: `all.size() == mine.size() * size()`.
  template <typename T>
  void allgather(std::span<const T> mine, std::span<T> all,
                 CollAlg alg = CollAlg::kAuto);
  void allgather_virtual(std::uint64_t bytes_per_rank,
                         CollAlg alg = CollAlg::kAuto);

  /// MPI_Reduce_scatter_block: `full.size() == count * size()`; rank r ends
  /// with the element-wise reduction of everyone's block r in `mine`
  /// (`mine.size() == count`). Ring algorithm — bandwidth-optimal, the
  /// building block of the large-payload AllReduce.
  template <typename T, typename Op>
  void reduce_scatter_block(std::span<const T> full, std::span<T> mine, Op op);
  void reduce_scatter_virtual(std::uint64_t bytes_per_block);

  /// MPI_Scan (inclusive prefix reduction in rank order): rank r ends with
  /// op(block_0, ..., block_r). Linear chain algorithm.
  template <typename T, typename Op>
  void scan(std::span<T> data, Op op);
  void scan_virtual(std::uint64_t bytes);

  /// MPI_Gather / MPI_Scatter (linear algorithms). Non-root ranks may pass
  /// an empty `all` span.
  template <typename T>
  void gather(std::span<const T> mine, std::span<T> all, int root);
  template <typename T>
  void scatter(std::span<const T> all, std::span<T> mine, int root);

  // --- construction --------------------------------------------------------

  /// Collective: partition members by `color` (>= 0); order within a new
  /// communicator by (key, parent rank). Mirrors MPI_Comm_split.
  /// `exclusive_network`: declare that this communicator's collectives run
  /// with no sibling traffic on the same nodes, so sparse placements get the
  /// per-rank NIC attach bandwidth instead of the full-node fair share.
  /// Leave false (the default) for communicators used in bulk-synchronous
  /// phases where every co-located rank communicates concurrently.
  [[nodiscard]] Comm split(int color, int key, std::string label = "",
                           bool exclusive_network = false) const;

  static Comm make_world(Proc& proc);

  // --- topology view (used by the selector and hierarchical schedules) -----

  /// True when this communicator's members are placed on more than one node.
  [[nodiscard]] bool spans_nodes() const;
  /// Members grouped by node: local ranks (ascending within each node),
  /// groups ordered by node id. Each node's leader is its first entry.
  [[nodiscard]] const std::vector<std::vector<int>>& node_groups() const;
  /// Index into node_groups() of the calling rank's node.
  [[nodiscard]] int my_node_group() const;

  // --- internals used by the collective impls -----------------------------

  [[nodiscard]] int internal_tag() { return -static_cast<int>(group_->next_seq++ % 1000000000) - 1; }

  /// Sequence number the next collective on this communicator will use.
  /// Captured before a collective's impl runs; (context, seq) identifies the
  /// collective instance across members for the invariant monitor.
  [[nodiscard]] std::uint64_t collective_seq() const { return group_->next_seq; }

  /// Resolve a per-call algorithm request: an explicit request passes
  /// through; kAuto consults the run's CollSelector with this communicator's
  /// member-agreed (bytes, participants, spans_nodes) key.
  [[nodiscard]] CollAlg resolve_alg(TraceEvent::Kind kind, std::uint64_t bytes,
                                    CollAlg request) const;

  void trace_collective(TraceEvent::Kind kind, CollAlg alg,
                        std::uint64_t payload_bytes, double t_start,
                        std::uint64_t seq) const;

  /// Epilogue of every collective: report to the invariant monitor (member
  /// agreement on kind/algorithm/participants/bytes, plus bitwise result
  /// identity when `has_hash` — only set for typed collectives whose result
  /// is identical on every member and whose element type has no padding
  /// bytes), then record the trace event.
  void finish_collective(TraceEvent::Kind kind, CollAlg alg,
                         std::uint64_t payload_bytes, double t_start,
                         std::uint64_t seq, bool has_hash,
                         std::uint64_t result_hash) const;

 private:
  friend class ScopedNicExclusive;

  Comm(Proc* proc, std::shared_ptr<detail::Group> group, int myrank)
      : proc_(proc), group_(std::move(group)), myrank_(myrank) {}

  void compute_node_info() const;

  Proc* proc_ = nullptr;
  std::shared_ptr<detail::Group> group_;
  int myrank_ = -1;
};

/// RAII: model the calling rank as its node's only NIC injector for the
/// scope's duration. The hierarchical schedules wrap their inter-node stage
/// in this — exactly one rank per node (the leader) is communicating, so the
/// machine model's NIC fair-share divisor drops to 1 and sparse injectors
/// get the full per-rank attach bandwidth.
class ScopedNicExclusive {
 public:
  explicit ScopedNicExclusive(Comm& c) : group_(c.group_.get()) {
    saved_ = group_->nic_override;
    group_->nic_override = 1;
  }
  ~ScopedNicExclusive() { group_->nic_override = saved_; }
  ScopedNicExclusive(const ScopedNicExclusive&) = delete;
  ScopedNicExclusive& operator=(const ScopedNicExclusive&) = delete;

 private:
  detail::Group* group_;
  int saved_ = 0;
};

namespace detail {

template <typename T, typename Op>
class TypedCollBuf final : public CollBuf {
 public:
  TypedCollBuf(std::span<T> buf, Op op) : buf_(buf), op_(op) {}

  [[nodiscard]] size_t count() const override { return buf_.size(); }
  [[nodiscard]] std::uint64_t elem_bytes() const override { return sizeof(T); }

  void send_range(Comm& c, int dst, int tag, size_t lo, size_t hi) override {
    c.send_bytes(dst, tag, buf_.data() + lo, (hi - lo) * sizeof(T));
  }
  void recv_replace(Comm& c, int src, int tag, size_t lo, size_t hi) override {
    c.recv_bytes(src, tag, buf_.data() + lo, (hi - lo) * sizeof(T));
  }
  void recv_reduce(Comm& c, int src, int tag, size_t lo, size_t hi,
                   bool partner_lower) override {
    scratch_.resize(hi - lo);
    c.recv_bytes(src, tag, scratch_.data(), (hi - lo) * sizeof(T));
    for (size_t i = 0; i < hi - lo; ++i) {
      buf_[lo + i] = partner_lower ? op_(scratch_[i], buf_[lo + i])
                                   : op_(buf_[lo + i], scratch_[i]);
    }
  }

 private:
  std::span<T> buf_;
  Op op_;
  std::vector<T> scratch_;
};

class VirtualCollBuf final : public CollBuf {
 public:
  explicit VirtualCollBuf(std::uint64_t bytes) : bytes_(bytes) {}
  [[nodiscard]] size_t count() const override { return bytes_; }
  [[nodiscard]] std::uint64_t elem_bytes() const override { return 1; }
  void send_range(Comm& c, int dst, int tag, size_t lo, size_t hi) override {
    c.send_virtual(hi - lo, dst, tag);
  }
  void recv_replace(Comm& c, int src, int tag, size_t lo, size_t hi) override {
    c.recv_virtual(hi - lo, src, tag);
  }
  void recv_reduce(Comm& c, int src, int tag, size_t lo, size_t hi, bool) override {
    c.recv_virtual(hi - lo, src, tag);
  }

 private:
  std::uint64_t bytes_;
};

template <typename T>
class TypedBlockBuf final : public BlockBuf {
 public:
  /// `in` may alias nothing in `out`; `count` elements per block.
  TypedBlockBuf(std::span<const T> in, std::span<T> out, size_t count)
      : in_(in), out_(out), count_(count) {}

  void send_in(Comm& c, int block, int dst, int tag) override {
    c.send_bytes(dst, tag, in_.data() + block * count_, count_ * sizeof(T));
  }
  void send_out(Comm& c, int block, int dst, int tag) override {
    c.send_bytes(dst, tag, out_.data() + block * count_, count_ * sizeof(T));
  }
  void recv_out(Comm& c, int block, int src, int tag) override {
    c.recv_bytes(src, tag, out_.data() + block * count_, count_ * sizeof(T));
  }
  void copy_in_to_out(int in_block, int out_block) override {
    std::memcpy(out_.data() + out_block * count_, in_.data() + in_block * count_,
                count_ * sizeof(T));
  }
  void send_out_blocks(Comm& c, std::span<const int> blocks, int dst,
                       int tag) override {
    scratch_.resize(blocks.size() * count_);
    for (size_t i = 0; i < blocks.size(); ++i) {
      std::memcpy(scratch_.data() + i * count_,
                  out_.data() + static_cast<size_t>(blocks[i]) * count_,
                  count_ * sizeof(T));
    }
    c.send_bytes(dst, tag, scratch_.data(), scratch_.size() * sizeof(T));
  }
  void recv_out_blocks(Comm& c, std::span<const int> blocks, int src,
                       int tag) override {
    scratch_.resize(blocks.size() * count_);
    c.recv_bytes(src, tag, scratch_.data(), scratch_.size() * sizeof(T));
    for (size_t i = 0; i < blocks.size(); ++i) {
      std::memcpy(out_.data() + static_cast<size_t>(blocks[i]) * count_,
                  scratch_.data() + i * count_, count_ * sizeof(T));
    }
  }
  void permute_out(std::span<const int> perm) override {
    std::vector<T> old(out_.begin(), out_.end());
    for (size_t j = 0; j < perm.size(); ++j) {
      std::memcpy(out_.data() + j * count_,
                  old.data() + static_cast<size_t>(perm[j]) * count_,
                  count_ * sizeof(T));
    }
  }
  [[nodiscard]] std::uint64_t block_bytes() const override {
    return count_ * sizeof(T);
  }

 private:
  std::span<const T> in_;
  std::span<T> out_;
  size_t count_;
  std::vector<T> scratch_;
};

class VirtualBlockBuf final : public BlockBuf {
 public:
  explicit VirtualBlockBuf(std::uint64_t bytes_per_block) : bytes_(bytes_per_block) {}
  void send_in(Comm& c, int, int dst, int tag) override {
    c.send_virtual(bytes_, dst, tag);
  }
  void send_out(Comm& c, int, int dst, int tag) override {
    c.send_virtual(bytes_, dst, tag);
  }
  void recv_out(Comm& c, int, int src, int tag) override {
    c.recv_virtual(bytes_, src, tag);
  }
  void copy_in_to_out(int, int) override {}
  void send_out_blocks(Comm& c, std::span<const int> blocks, int dst,
                       int tag) override {
    c.send_virtual(bytes_ * blocks.size(), dst, tag);
  }
  void recv_out_blocks(Comm& c, std::span<const int> blocks, int src,
                       int tag) override {
    c.recv_virtual(bytes_ * blocks.size(), src, tag);
  }
  void permute_out(std::span<const int>) override {}
  [[nodiscard]] std::uint64_t block_bytes() const override { return bytes_; }

 private:
  std::uint64_t bytes_;
};

}  // namespace detail

// --- template method definitions -------------------------------------------

template <typename T, typename Op>
void Comm::allreduce(std::span<T> data, Op op, CollAlg alg) {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  detail::TypedCollBuf<T, Op> buf(data, op);
  const CollAlg ran = detail::allreduce_impl(*this, buf, alg);
  finish_collective(TraceEvent::Kind::kAllReduce, ran, data.size_bytes(), t0,
                    seq, /*has_hash=*/true,
                    word_digest(data.data(), data.size_bytes()));
}

template <typename T, typename Op>
void Comm::reduce(std::span<T> data, Op op, int root, CollAlg alg) {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  detail::TypedCollBuf<T, Op> buf(data, op);
  const CollAlg ran = detail::reduce_impl(*this, buf, root, alg);
  finish_collective(TraceEvent::Kind::kReduce, ran, data.size_bytes(), t0, seq,
                    /*has_hash=*/false, 0);
}

template <typename T>
void Comm::bcast(std::span<T> data, int root, CollAlg alg) {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  // Op unused by bcast; supply a no-op combiner.
  auto nop = [](T a, T) { return a; };
  detail::TypedCollBuf<T, decltype(nop)> buf(data, nop);
  const CollAlg ran = detail::bcast_impl(*this, buf, root, alg);
  finish_collective(TraceEvent::Kind::kBcast, ran, data.size_bytes(), t0, seq,
                    /*has_hash=*/true,
                    word_digest(data.data(), data.size_bytes()));
}

template <typename T>
void Comm::alltoall(std::span<const T> send_data, std::span<T> recv_data,
                    CollAlg alg) {
  XG_REQUIRE(send_data.size() == recv_data.size(),
             "alltoall: send/recv size mismatch");
  XG_REQUIRE(send_data.size() % size() == 0,
             "alltoall: payload not divisible by communicator size");
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  const size_t count = send_data.size() / size();
  detail::TypedBlockBuf<T> buf(send_data, recv_data, count);
  const CollAlg ran = detail::alltoall_impl(*this, buf, alg);
  finish_collective(TraceEvent::Kind::kAllToAll, ran, count * sizeof(T), t0,
                    seq, /*has_hash=*/false, 0);
}

template <typename T>
void Comm::allgather(std::span<const T> mine, std::span<T> all, CollAlg alg) {
  XG_REQUIRE(all.size() == mine.size() * static_cast<size_t>(size()),
             "allgather: output must be size() blocks");
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  detail::TypedBlockBuf<T> buf(mine, all, mine.size());
  const CollAlg ran = detail::allgather_impl(*this, buf, alg);
  finish_collective(TraceEvent::Kind::kAllGather, ran, mine.size_bytes(), t0,
                    seq, /*has_hash=*/true,
                    word_digest(all.data(), all.size_bytes()));
}

template <typename T, typename Op>
void Comm::reduce_scatter_block(std::span<const T> full, std::span<T> mine,
                                Op op) {
  const int p = size();
  XG_REQUIRE(full.size() == mine.size() * static_cast<size_t>(p),
             "reduce_scatter_block: full must be size() blocks");
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  const size_t count = mine.size();
  if (p == 1) {
    std::copy(full.begin(), full.end(), mine.begin());
    finish_collective(TraceEvent::Kind::kReduceScatter, CollAlg::kRing,
                      count * sizeof(T), t0, seq, /*has_hash=*/false, 0);
    return;
  }
  // Stage blocks shifted by +1 so the ring's natural owner — rank r ends
  // with physical chunk (r+1) mod p — corresponds to logical block r.
  std::vector<T> scratch(full.size());
  for (int j = 0; j < p; ++j) {
    std::copy(full.begin() + static_cast<size_t>(j) * count,
              full.begin() + static_cast<size_t>(j + 1) * count,
              scratch.begin() + (static_cast<size_t>((j + 1) % p)) * count);
  }
  detail::TypedCollBuf<T, Op> buf(std::span<T>(scratch), op);
  detail::ring_reduce_scatter_impl(*this, buf, internal_tag());
  const size_t own = static_cast<size_t>((rank() + 1) % p) * count;
  std::copy(scratch.begin() + own, scratch.begin() + own + count, mine.begin());
  finish_collective(TraceEvent::Kind::kReduceScatter, CollAlg::kRing,
                    count * sizeof(T), t0, seq, /*has_hash=*/false, 0);
}

template <typename T, typename Op>
void Comm::scan(std::span<T> data, Op op) {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  detail::TypedCollBuf<T, Op> buf(data, op);
  detail::scan_impl(*this, buf);
  finish_collective(TraceEvent::Kind::kScan, CollAlg::kChain, data.size_bytes(),
                    t0, seq, /*has_hash=*/false, 0);
}

template <typename T>
void Comm::gather(std::span<const T> mine, std::span<T> all, int root) {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  const int tag = internal_tag();
  if (myrank_ == root) {
    XG_REQUIRE(all.size() == mine.size() * static_cast<size_t>(size()),
               "gather: root output must be size() blocks");
    for (int r = 0; r < size(); ++r) {
      if (r == root) {
        std::memcpy(all.data() + static_cast<size_t>(r) * mine.size(),
                    mine.data(), mine.size_bytes());
      } else {
        recv_bytes(r, tag, all.data() + static_cast<size_t>(r) * mine.size(),
                   mine.size_bytes());
      }
    }
  } else {
    send(mine, root, tag);
  }
  finish_collective(TraceEvent::Kind::kGather, CollAlg::kLinear,
                    mine.size_bytes(), t0, seq, /*has_hash=*/false, 0);
}

template <typename T>
void Comm::scatter(std::span<const T> all, std::span<T> mine, int root) {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  const int tag = internal_tag();
  if (myrank_ == root) {
    XG_REQUIRE(all.size() == mine.size() * static_cast<size_t>(size()),
               "scatter: root input must be size() blocks");
    for (int r = 0; r < size(); ++r) {
      if (r == root) {
        std::memcpy(mine.data(), all.data() + static_cast<size_t>(r) * mine.size(),
                    mine.size_bytes());
      } else {
        send_bytes(r, tag, all.data() + static_cast<size_t>(r) * mine.size(),
                   mine.size_bytes());
      }
    }
  } else {
    recv(mine, root, tag);
  }
  finish_collective(TraceEvent::Kind::kScatter, CollAlg::kLinear,
                    mine.size_bytes(), t0, seq, /*has_hash=*/false, 0);
}

}  // namespace xg::mpi
