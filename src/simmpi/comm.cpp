#include "simmpi/comm.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "simmpi/coll.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"

namespace xg::mpi {

void Comm::send_bytes(int dst, int tag, const void* data, std::uint64_t bytes) {
  XG_ASSERT_MSG(valid(), "send on an invalid communicator");
  if (dst < 0 || dst >= size()) {
    throw MpiUsageError(strprintf("send: destination %d out of range [0,%d)",
                                  dst, size()));
  }
  XG_ASSERT_MSG(dst != myrank_, "send to self is not supported");
  proc_->p2p_send(group_->members[dst], group_->context, tag, data, bytes,
                  group_->nic_override);
}

void Comm::recv_bytes(int src, int tag, void* data, std::uint64_t bytes) {
  XG_ASSERT_MSG(valid(), "recv on an invalid communicator");
  if (src < 0 || src >= size()) {
    throw MpiUsageError(strprintf("recv: source %d out of range [0,%d)", src,
                                  size()));
  }
  XG_ASSERT_MSG(src != myrank_, "recv from self is not supported");
  proc_->p2p_recv(group_->members[src], group_->context, tag, data, bytes);
}

Request Comm::isend_bytes(int dst, int tag, const void* data,
                          std::uint64_t bytes) {
  XG_ASSERT_MSG(valid(), "isend on an invalid communicator");
  if (dst < 0 || dst >= size()) {
    throw MpiUsageError(strprintf("isend: destination %d out of range [0,%d)",
                                  dst, size()));
  }
  XG_ASSERT_MSG(dst != myrank_, "isend to self is not supported");
  Request r;
  r.kind_ = Request::Kind::kSend;
  r.send_complete_at_ =
      proc_->p2p_isend(group_->members[dst], group_->context, tag, data, bytes,
                       group_->nic_override);
  return r;
}

Request Comm::irecv_bytes(int src, int tag, void* data, std::uint64_t bytes) {
  XG_ASSERT_MSG(valid(), "irecv on an invalid communicator");
  if (src < 0 || src >= size()) {
    throw MpiUsageError(strprintf("irecv: source %d out of range [0,%d)", src,
                                  size()));
  }
  XG_ASSERT_MSG(src != myrank_, "irecv from self is not supported");
  Request r;
  r.kind_ = Request::Kind::kRecv;
  r.src_ = src;
  r.tag_ = tag;
  r.data_ = data;
  r.bytes_ = bytes;
  return r;
}

void Comm::wait(Request& request) {
  switch (request.kind_) {
    case Request::Kind::kNone:
      break;
    case Request::Kind::kSend:
      proc_->complete_send(request.send_complete_at_);
      break;
    case Request::Kind::kRecv:
      recv_bytes(request.src_, request.tag_, request.data_, request.bytes_);
      break;
  }
  request = Request();
}

void Comm::waitall(std::span<Request> requests) {
  for (auto& r : requests) wait(r);
}

void Comm::barrier() {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  const int tag = internal_tag();
  const int p = size();
  // Dissemination barrier: ceil(log2 P) rounds of zero-byte messages.
  for (int k = 1; k < p; k <<= 1) {
    const int dst = (myrank_ + k) % p;
    const int src = (myrank_ - k % p + p) % p;
    send_virtual(0, dst, tag);
    recv_virtual(0, src, tag);
  }
  finish_collective(TraceEvent::Kind::kBarrier, CollAlg::kDissemination, 0, t0,
                    seq, /*has_hash=*/false, 0);
}

void Comm::allreduce_virtual(std::uint64_t bytes, CollAlg alg) {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  detail::VirtualCollBuf buf(bytes);
  const CollAlg ran = detail::allreduce_impl(*this, buf, alg);
  finish_collective(TraceEvent::Kind::kAllReduce, ran, bytes, t0, seq,
                    /*has_hash=*/false, 0);
}

void Comm::reduce_virtual(std::uint64_t bytes, int root, CollAlg alg) {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  detail::VirtualCollBuf buf(bytes);
  const CollAlg ran = detail::reduce_impl(*this, buf, root, alg);
  finish_collective(TraceEvent::Kind::kReduce, ran, bytes, t0, seq,
                    /*has_hash=*/false, 0);
}

void Comm::bcast_virtual(std::uint64_t bytes, int root, CollAlg alg) {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  detail::VirtualCollBuf buf(bytes);
  const CollAlg ran = detail::bcast_impl(*this, buf, root, alg);
  finish_collective(TraceEvent::Kind::kBcast, ran, bytes, t0, seq,
                    /*has_hash=*/false, 0);
}

void Comm::alltoall_virtual(std::uint64_t bytes_per_pair, CollAlg alg) {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  detail::VirtualBlockBuf buf(bytes_per_pair);
  const CollAlg ran = detail::alltoall_impl(*this, buf, alg);
  finish_collective(TraceEvent::Kind::kAllToAll, ran, bytes_per_pair, t0, seq,
                    /*has_hash=*/false, 0);
}

void Comm::allgather_virtual(std::uint64_t bytes_per_rank, CollAlg alg) {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  detail::VirtualBlockBuf buf(bytes_per_rank);
  const CollAlg ran = detail::allgather_impl(*this, buf, alg);
  finish_collective(TraceEvent::Kind::kAllGather, ran, bytes_per_rank, t0, seq,
                    /*has_hash=*/false, 0);
}

void Comm::reduce_scatter_virtual(std::uint64_t bytes_per_block) {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  if (size() > 1) {
    detail::VirtualCollBuf buf(bytes_per_block * size());
    detail::ring_reduce_scatter_impl(*this, buf, internal_tag());
  }
  finish_collective(TraceEvent::Kind::kReduceScatter, CollAlg::kRing,
                    bytes_per_block, t0, seq, /*has_hash=*/false, 0);
}

void Comm::scan_virtual(std::uint64_t bytes) {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  detail::VirtualCollBuf buf(bytes);
  detail::scan_impl(*this, buf);
  finish_collective(TraceEvent::Kind::kScan, CollAlg::kChain, bytes, t0, seq,
                    /*has_hash=*/false, 0);
}

Comm Comm::split(int color, int key, std::string label) const {
  XG_REQUIRE(color >= 0, "split: color must be >= 0 (no MPI_UNDEFINED here)");
  // Exchange (color, key, parent rank) across the parent communicator.
  struct Entry {
    int color, key, parent_rank;
  };
  const Entry mine{color, key, myrank_};
  std::vector<Entry> all(static_cast<size_t>(size()));
  // allgather over Entry as raw bytes (POD).
  {
    // const_cast-free typed spans over POD entries
    std::span<const Entry> mine_span(&mine, 1);
    std::span<Entry> all_span(all);
    const_cast<Comm*>(this)->allgather(mine_span, all_span);
  }
  std::vector<Entry> group;
  for (const auto& e : all) {
    if (e.color == color) group.push_back(e);
  }
  std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.parent_rank) < std::tie(b.key, b.parent_rank);
  });

  auto g = std::make_shared<detail::Group>();
  Hasher h;
  h.u64(group_->context).u64(group_->next_split).i64(color);
  g->context = h.digest();
  group_->next_split += 1;
  g->label = label.empty()
                 ? strprintf("%s/split%llu.c%d", group_->label.c_str(),
                             static_cast<unsigned long long>(group_->next_split - 1),
                             color)
                 : std::move(label);
  int new_rank = -1;
  g->members.reserve(group.size());
  for (size_t i = 0; i < group.size(); ++i) {
    g->members.push_back(group_->members[group[i].parent_rank]);
    if (group[i].parent_rank == myrank_) new_rank = static_cast<int>(i);
  }
  XG_ASSERT(new_rank >= 0);
  return Comm(proc_, std::move(g), new_rank);
}

Comm Comm::make_world(Proc& proc) {
  // Cache the group on the Proc: every world() call must share one
  // collective sequence counter, so (context, seq) stays unique per run —
  // the invariant monitor keys collective instances by that pair.
  if (!proc.world_group_) {
    auto g = std::make_shared<detail::Group>();
    g->context = Hasher().str("xgyro.world").digest();
    g->label = "world";
    g->members.resize(static_cast<size_t>(proc.world_size()));
    for (int r = 0; r < proc.world_size(); ++r) g->members[r] = r;
    proc.world_group_ = std::move(g);
  }
  return Comm(&proc, proc.world_group_, proc.world_rank());
}

void Comm::compute_node_info() const {
  auto* g = group_.get();
  if (g->node_info_ready) return;
  const auto& place = proc_->placement();
  // (node, local rank) sorted: node ids ascending, then local ranks
  // ascending within a node — the same group order on every member.
  std::vector<std::pair<int, int>> by_node(g->members.size());
  for (size_t local = 0; local < g->members.size(); ++local) {
    by_node[local] = {place.node_of(g->members[local]),
                      static_cast<int>(local)};
  }
  std::sort(by_node.begin(), by_node.end());
  g->node_groups.clear();
  const int my_node = place.node_of(g->members[myrank_]);
  for (size_t lo = 0; lo < by_node.size();) {
    size_t hi = lo + 1;
    while (hi < by_node.size() && by_node[hi].first == by_node[lo].first) ++hi;
    if (by_node[lo].first == my_node) {
      g->my_group = static_cast<int>(g->node_groups.size());
    }
    auto& locals = g->node_groups.emplace_back();
    locals.reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i) locals.push_back(by_node[i].second);
    lo = hi;
  }
  g->node_info_ready = true;
}

bool Comm::spans_nodes() const {
  // Every collective's selector asks this, so answer it without building
  // the node groups only the hierarchical schedules read.
  auto* g = group_.get();
  if (g->spans_nodes < 0) {
    const auto& place = proc_->placement();
    const int node0 = place.node_of(g->members.front());
    g->spans_nodes =
        std::any_of(g->members.begin(), g->members.end(),
                    [&](int r) { return place.node_of(r) != node0; })
            ? 1
            : 0;
  }
  return g->spans_nodes == 1;
}

const std::vector<std::vector<int>>& Comm::node_groups() const {
  compute_node_info();
  return group_->node_groups;
}

int Comm::my_node_group() const {
  compute_node_info();
  return group_->my_group;
}

CollAlg Comm::resolve_alg(TraceEvent::Kind kind, std::uint64_t bytes,
                          CollAlg request) const {
  if (request != CollAlg::kAuto) return request;
  return proc_->coll_selector().choose(kind, bytes, size(), spans_nodes());
}

void Comm::trace_collective(TraceEvent::Kind kind, CollAlg alg,
                            std::uint64_t payload_bytes, double t_start,
                            std::uint64_t seq) const {
  // Every member records its own row (t_start is *this* member's entry time),
  // so per-member skew — a straggler entering a collective late — survives
  // into the trace. Consumers wanting one row per collective instance filter
  // on local_rank == 0 or group by (comm_context, seq).
  if (!proc_->tracing()) return;
  TraceEvent e;
  e.kind = kind;
  e.alg = alg;
  e.comm_context = group_->context;
  e.seq = seq;
  e.comm_label = group_->label;
  e.participants = size();
  e.payload_bytes = payload_bytes;
  e.world_rank = proc_->world_rank();
  e.local_rank = myrank_;
  e.member = proc_->trace_member();
  e.t_start = t_start;
  e.t_end = proc_->now();
  e.phase = proc_->phase();
  proc_->record_trace(std::move(e));
}

void Comm::finish_collective(TraceEvent::Kind kind, CollAlg alg,
                             std::uint64_t payload_bytes, double t_start,
                             std::uint64_t seq, bool has_hash,
                             std::uint64_t result_hash) const {
  proc_->observe_collective(group_->context, seq, kind, alg, size(),
                            payload_bytes, has_hash, result_hash,
                            group_->label);
  trace_collective(kind, alg, payload_bytes, t_start, seq);
}

}  // namespace xg::mpi
