// Collective algorithm library + decision logic.
//
// Every algorithm here is expressed as a schedule of CollBuf/BlockBuf
// operations over a communicator, so one implementation serves the typed,
// virtual, and fault-injected paths identically. The *_subset variants run
// a schedule over an ordered subset of a communicator's local ranks — the
// building block of the hierarchical (leader-based) schedules, which reduce
// within each node first so only one rank per node injects into the fabric.
#include "simmpi/coll.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <vector>

#include "simmpi/comm.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::mpi {

namespace detail {

namespace {

/// MPICH-style latency/bandwidth crossover for AllReduce, also reused by the
/// hierarchical schedule to pick its inter-node stage.
constexpr std::uint64_t kRingThresholdBytes = 64 * 1024;
/// Segment size of the segmented ring (pipelined) AllReduce.
constexpr std::uint64_t kRingSegmentBytes = 64 * 1024;

/// Largest power of two <= n (n >= 1).
int pow2_floor(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

/// Balanced range partition: chunk c of n elements over P chunks.
size_t chunk_lo(size_t n, int nchunks, int c) {
  return n * static_cast<size_t>(c) / static_cast<size_t>(nchunks);
}

int index_of(std::span<const int> ranks, int r) {
  const auto it = std::find(ranks.begin(), ranks.end(), r);
  XG_ASSERT(it != ranks.end());
  return static_cast<int>(it - ranks.begin());
}

/// 0, 1, ..., c.size() − 1, from the calling rank's scratch. Filled once to
/// the world size, so the span stays valid for the rest of the run.
std::span<const int> identity_ranks(Comm& c) {
  auto& ranks = c.proc().coll_scratch().ranks;
  if (ranks.empty()) {
    ranks.resize(static_cast<size_t>(c.proc().world_size()));
    std::iota(ranks.begin(), ranks.end(), 0);
  }
  return std::span<const int>(ranks).first(static_cast<size_t>(c.size()));
}

// --- AllReduce schedules over an ordered rank subset ------------------------
// `ranks` lists the participating local ranks; `my_idx` is the caller's
// position in it. Partner-order decisions use subset indices, so results are
// identical whichever physical ranks participate.

/// Recursive-doubling allreduce with the standard non-power-of-two fold.
/// `skip_final_fold` (kBrokenForTesting) omits handing the result back to
/// the folded odd ranks, leaving them with stale partial sums — a seeded
/// defect the invariant monitor must detect via the result-hash check.
void allreduce_rdb_subset(Comm& c, CollBuf& buf, int tag,
                          std::span<const int> ranks, int my_idx,
                          bool skip_final_fold = false) {
  const int p = static_cast<int>(ranks.size());
  const size_t n = buf.count();
  const int p2 = pow2_floor(p);
  const int rem = p - p2;

  // Fold the ranks beyond the largest power of two into their even partner.
  if (my_idx < 2 * rem) {
    if (my_idx % 2 == 1) {
      buf.send_range(c, ranks[my_idx - 1], tag, 0, n);
    } else {
      buf.recv_reduce(c, ranks[my_idx + 1], tag, 0, n, /*partner_lower=*/false);
    }
  }
  const int newrank =
      (my_idx < 2 * rem) ? ((my_idx % 2 == 0) ? my_idx / 2 : -1) : my_idx - rem;
  if (newrank >= 0) {
    for (int mask = 1; mask < p2; mask <<= 1) {
      const int partner_new = newrank ^ mask;
      const int partner_idx =
          (partner_new < rem) ? partner_new * 2 : partner_new + rem;
      buf.send_range(c, ranks[partner_idx], tag, 0, n);
      buf.recv_reduce(c, ranks[partner_idx], tag, 0, n,
                      /*partner_lower=*/partner_idx < my_idx);
    }
  }
  // Hand the result back to the folded odd ranks.
  if (skip_final_fold) return;
  if (my_idx < 2 * rem) {
    if (my_idx % 2 == 0) {
      buf.send_range(c, ranks[my_idx + 1], tag, 0, n);
    } else {
      buf.recv_replace(c, ranks[my_idx - 1], tag, 0, n);
    }
  }
}

/// Ring reduce-scatter over element range [lo0, lo0+n) of the buffer: after
/// return, subset member i holds chunk (i+1) mod P fully reduced.
void ring_reduce_scatter_subset(Comm& c, CollBuf& buf, int tag,
                                std::span<const int> ranks, int my_idx,
                                size_t lo0, size_t n) {
  const int p = static_cast<int>(ranks.size());
  const int right = ranks[(my_idx + 1) % p];
  const int left = ranks[(my_idx - 1 + p) % p];
  for (int step = 0; step < p - 1; ++step) {
    const int send_chunk = (my_idx - step + 2 * p) % p;
    const int recv_chunk = (my_idx - step - 1 + 2 * p) % p;
    buf.send_range(c, right, tag, lo0 + chunk_lo(n, p, send_chunk),
                   lo0 + chunk_lo(n, p, send_chunk + 1));
    buf.recv_reduce(c, left, tag, lo0 + chunk_lo(n, p, recv_chunk),
                    lo0 + chunk_lo(n, p, recv_chunk + 1),
                    /*partner_lower=*/true);
  }
}

/// Ring allreduce (reduce-scatter + ring allgather) over [lo0, lo0+n).
/// Optimal bandwidth (2·(P−1)/P · bytes per rank) for large payloads.
void allreduce_ring_subset(Comm& c, CollBuf& buf, int tag,
                           std::span<const int> ranks, int my_idx, size_t lo0,
                           size_t n) {
  const int p = static_cast<int>(ranks.size());
  const int right = ranks[(my_idx + 1) % p];
  const int left = ranks[(my_idx - 1 + p) % p];
  ring_reduce_scatter_subset(c, buf, tag, ranks, my_idx, lo0, n);
  // Allgather the reduced chunks around the ring.
  for (int step = 0; step < p - 1; ++step) {
    const int send_chunk = (my_idx + 1 - step + 2 * p) % p;
    const int recv_chunk = (my_idx - step + 2 * p) % p;
    buf.send_range(c, right, tag, lo0 + chunk_lo(n, p, send_chunk),
                   lo0 + chunk_lo(n, p, send_chunk + 1));
    buf.recv_replace(c, left, tag, lo0 + chunk_lo(n, p, recv_chunk),
                     lo0 + chunk_lo(n, p, recv_chunk + 1));
  }
}

/// Segmented (pipelined) ring: one full ring allreduce per <= 64 KiB
/// segment. Early segments' allgather traffic overlaps later segments'
/// reduce-scatter on the eager p2p layer.
void allreduce_segmented_ring(Comm& c, CollBuf& buf, int tag,
                              std::span<const int> ranks, int my_idx) {
  const size_t n = buf.count();
  const std::uint64_t eb = buf.elem_bytes() > 0 ? buf.elem_bytes() : 1;
  const size_t seg = std::max<size_t>(1, kRingSegmentBytes / eb);
  for (size_t lo = 0; lo < n; lo += seg) {
    allreduce_ring_subset(c, buf, tag, ranks, my_idx, lo,
                          std::min(seg, n - lo));
  }
}

/// Rabenseifner allreduce: recursive-halving reduce-scatter followed by a
/// recursive-doubling allgather. Asymptotically halves the large-message
/// byte volume of plain recursive doubling while keeping log(P) steps.
void allreduce_rabenseifner(Comm& c, CollBuf& buf, int tag) {
  const int p = c.size();
  const int r = c.rank();
  const size_t n = buf.count();
  const int p2 = pow2_floor(p);
  const int rem = p - p2;

  // Fold the ranks beyond the largest power of two into their even partner.
  if (r < 2 * rem) {
    if (r % 2 == 1) {
      buf.send_range(c, r - 1, tag, 0, n);
    } else {
      buf.recv_reduce(c, r + 1, tag, 0, n, /*partner_lower=*/false);
    }
  }
  const int newrank = (r < 2 * rem) ? ((r % 2 == 0) ? r / 2 : -1) : r - rem;
  const auto old_of = [&](int nr) { return nr < rem ? nr * 2 : nr + rem; };
  if (newrank >= 0 && p2 > 1) {
    // Recursive halving: each step trades away half of the owned range.
    size_t lo = 0;
    size_t hi = n;
    auto& enclosing = c.proc().coll_scratch().ranges;  // range before split
    enclosing.clear();
    for (int mask = p2 >> 1; mask > 0; mask >>= 1) {
      const int partner_new = newrank ^ mask;
      const int partner = old_of(partner_new);
      enclosing.emplace_back(lo, hi);
      const size_t mid = lo + (hi - lo) / 2;
      if (newrank & mask) {
        buf.send_range(c, partner, tag, lo, mid);
        buf.recv_reduce(c, partner, tag, mid, hi,
                        /*partner_lower=*/partner < r);
        lo = mid;
      } else {
        buf.send_range(c, partner, tag, mid, hi);
        buf.recv_reduce(c, partner, tag, lo, mid,
                        /*partner_lower=*/partner < r);
        hi = mid;
      }
    }
    // Recursive doubling allgather, unwinding the splits in reverse.
    for (int mask = 1; mask < p2; mask <<= 1) {
      const int partner_new = newrank ^ mask;
      const int partner = old_of(partner_new);
      const auto [elo, ehi] = enclosing.back();
      enclosing.pop_back();
      buf.send_range(c, partner, tag, lo, hi);
      if (newrank & mask) {
        buf.recv_replace(c, partner, tag, elo, lo);
        lo = elo;
      } else {
        buf.recv_replace(c, partner, tag, hi, ehi);
        hi = ehi;
      }
    }
  }
  // Hand the full result back to the folded odd ranks.
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      buf.send_range(c, r + 1, tag, 0, n);
    } else {
      buf.recv_replace(c, r - 1, tag, 0, n);
    }
  }
}

// --- rooted schedules -------------------------------------------------------

/// Linear reduce: every non-root sends its full vector to the root, which
/// folds them in ascending-rank order.
void reduce_linear(Comm& c, CollBuf& buf, int tag, int root) {
  const int p = c.size();
  const size_t n = buf.count();
  if (c.rank() == root) {
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      buf.recv_reduce(c, r, tag, 0, n, /*partner_lower=*/r < root);
    }
  } else {
    buf.send_range(c, root, tag, 0, n);
  }
}

/// Binomial-tree reduce, leaves send first.
void reduce_binomial(Comm& c, CollBuf& buf, int tag, int root) {
  const int p = c.size();
  const size_t n = buf.count();
  const int relative = (c.rank() - root + p) % p;
  for (int mask = 1; mask < p; mask <<= 1) {
    if (relative & mask) {
      const int dst = ((relative & ~mask) + root) % p;
      buf.send_range(c, dst, tag, 0, n);
      break;
    }
    const int src_rel = relative | mask;
    if (src_rel < p) {
      const int src = (src_rel + root) % p;
      // The subtree rooted at a higher relative rank folds in from the right.
      buf.recv_reduce(c, src, tag, 0, n, /*partner_lower=*/false);
    }
  }
}

/// Linear bcast: the root sends the full vector to every other rank.
void bcast_linear(Comm& c, CollBuf& buf, int tag, int root) {
  const int p = c.size();
  const size_t n = buf.count();
  if (c.rank() == root) {
    for (int r = 0; r < p; ++r) {
      if (r != root) buf.send_range(c, r, tag, 0, n);
    }
  } else {
    buf.recv_replace(c, root, tag, 0, n);
  }
}

/// Chain bcast: root → root+1 → ... around the ring. Latency-poor but each
/// link carries the bytes exactly once (pipelines well across calls).
void bcast_chain(Comm& c, CollBuf& buf, int tag, int root) {
  const int p = c.size();
  const size_t n = buf.count();
  const int rel = (c.rank() - root + p) % p;
  if (rel > 0) buf.recv_replace(c, (root + rel - 1) % p, tag, 0, n);
  if (rel < p - 1) buf.send_range(c, (root + rel + 1) % p, tag, 0, n);
}

/// Binomial-tree bcast over an ordered rank subset, rooted at subset index
/// `root_idx`.
void bcast_binomial_subset(Comm& c, CollBuf& buf, int tag,
                           std::span<const int> ranks, int my_idx,
                           int root_idx) {
  const int p = static_cast<int>(ranks.size());
  if (p <= 1) return;
  const size_t n = buf.count();
  const int relative = (my_idx - root_idx + p) % p;
  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      buf.recv_replace(c, ranks[(relative - mask + root_idx) % p], tag, 0, n);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      buf.send_range(c, ranks[(relative + mask + root_idx) % p], tag, 0, n);
    }
    mask >>= 1;
  }
}

// --- hierarchical (leader-based) schedules ----------------------------------
// The machine model charges each node's NIC as a fair share across all
// concurrently injecting co-located ranks (Placement::inter_bw_effective).
// Reducing within the node first means only one rank per node — the leader —
// touches the fabric, so the inter-node stage runs with nic_sharers == 1 and
// gets the full per-rank attach bandwidth: ranks_per_node·n_nodes injectors
// become n_nodes.

void allreduce_hierarchical(Comm& c, CollBuf& buf, int tag) {
  const auto& groups = c.node_groups();
  const int g = c.my_node_group();
  const auto& mine = groups[static_cast<size_t>(g)];
  const int leader = mine.front();  // lowest local rank on the node
  const int r = c.rank();
  const size_t n = buf.count();

  // 1) intra-node linear reduce onto the node leader (ascending-rank fold).
  if (r == leader) {
    for (size_t i = 1; i < mine.size(); ++i) {
      buf.recv_reduce(c, mine[i], tag, 0, n, /*partner_lower=*/false);
    }
  } else {
    buf.send_range(c, leader, tag, 0, n);
  }

  // 2) inter-node allreduce among the leaders only, one NIC injector per
  //    node. Same size crossover as the flat selector: recursive doubling
  //    when latency-bound, ring when bandwidth-bound.
  if (groups.size() > 1 && r == leader) {
    std::vector<int> leaders;
    leaders.reserve(groups.size());
    for (const auto& grp : groups) leaders.push_back(grp.front());
    ScopedNicExclusive exclusive(c);
    if (buf.total_bytes() >= kRingThresholdBytes && leaders.size() > 2) {
      allreduce_ring_subset(c, buf, tag, leaders, g, 0, n);
    } else {
      allreduce_rdb_subset(c, buf, tag, leaders, g);
    }
  }

  // 3) intra-node bcast of the reduced vector from the leader.
  if (mine.size() > 1) {
    bcast_binomial_subset(c, buf, tag, mine, index_of(mine, r),
                          /*root_idx=*/0);
  }
}

void bcast_hierarchical(Comm& c, CollBuf& buf, int tag, int root) {
  const auto& groups = c.node_groups();
  const int g = c.my_node_group();
  const auto& mine = groups[static_cast<size_t>(g)];
  const int r = c.rank();

  // One representative per node: the leader, except the root's node which
  // the root itself represents (no extra intra-node hop before the fabric).
  std::vector<int> reps;
  reps.reserve(groups.size());
  int root_gidx = -1;
  for (size_t i = 0; i < groups.size(); ++i) {
    int rep = groups[i].front();
    if (std::find(groups[i].begin(), groups[i].end(), root) !=
        groups[i].end()) {
      rep = root;
      root_gidx = static_cast<int>(i);
    }
    reps.push_back(rep);
  }
  XG_ASSERT(root_gidx >= 0);

  // 1) inter-node bcast among the representatives, one injector per node.
  if (groups.size() > 1 && r == reps[static_cast<size_t>(g)]) {
    ScopedNicExclusive exclusive(c);
    bcast_binomial_subset(c, buf, tag, reps, g, root_gidx);
  }
  // 2) intra-node bcast from each node's representative.
  if (mine.size() > 1) {
    bcast_binomial_subset(c, buf, tag, mine, index_of(mine, r),
                          index_of(mine, reps[static_cast<size_t>(g)]));
  }
}

// --- block collectives ------------------------------------------------------

void allgather_linear(Comm& c, BlockBuf& buf, int tag) {
  const int p = c.size();
  const int r = c.rank();
  buf.copy_in_to_out(0, r);
  // Spread schedule: at step s send to r+s, receive from r-s, so no single
  // rank is a hotspot.
  for (int step = 1; step < p; ++step) {
    const int dst = (r + step) % p;
    const int src = (r - step + p) % p;
    buf.send_in(c, 0, dst, tag);
    buf.recv_out(c, src, src, tag);
  }
}

void allgather_ring(Comm& c, BlockBuf& buf, int tag) {
  const int p = c.size();
  const int r = c.rank();
  buf.copy_in_to_out(0, r);
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  // Ring: forward the newest block each step.
  for (int step = 0; step < p - 1; ++step) {
    const int send_block = (r - step + 2 * p) % p;
    const int recv_block = (r - step - 1 + 2 * p) % p;
    buf.send_out(c, send_block, right, tag);
    buf.recv_out(c, recv_block, left, tag);
  }
}

/// Bruck allgather: ceil(log2 P) rounds of doubling aggregated messages —
/// latency-optimal for small blocks where the ring's P−1 rounds dominate.
/// Invariant after the round with offset k: out[i] holds rank (r+i)%p's
/// block for i in [0, min(2k, p)).
void allgather_bruck(Comm& c, BlockBuf& buf, int tag) {
  const int p = c.size();
  const int r = c.rank();
  buf.copy_in_to_out(0, 0);
  auto& scratch = c.proc().coll_scratch();
  auto& send_blocks = scratch.send_blocks;
  auto& recv_blocks = scratch.recv_blocks;
  for (int k = 1; k < p; k <<= 1) {
    const int m = std::min(k, p - k);
    send_blocks.resize(static_cast<size_t>(m));
    std::iota(send_blocks.begin(), send_blocks.end(), 0);
    recv_blocks.resize(static_cast<size_t>(m));
    std::iota(recv_blocks.begin(), recv_blocks.end(), k);
    buf.send_out_blocks(c, send_blocks, (r - k + p) % p, tag);
    buf.recv_out_blocks(c, recv_blocks, (r + k) % p, tag);
  }
  // Final rotation: out[j] must hold rank j's block, currently at slot
  // (j - r) mod p.
  auto& perm = scratch.perm;
  perm.resize(static_cast<size_t>(p));
  for (int j = 0; j < p; ++j) perm[static_cast<size_t>(j)] = (j - r + p) % p;
  buf.permute_out(perm);
}

void alltoall_pairwise(Comm& c, BlockBuf& buf, int tag) {
  const int p = c.size();
  const int r = c.rank();
  buf.copy_in_to_out(r, r);
  // Pairwise exchange ("spread" schedule): at step s, send to r+s, receive
  // from r-s. Eager sends make the simultaneous exchange deadlock-free.
  for (int step = 1; step < p; ++step) {
    const int dst = (r + step) % p;
    const int src = (r - step + p) % p;
    buf.send_in(c, dst, dst, tag);
    buf.recv_out(c, src, src, tag);
  }
}

void alltoall_linear(Comm& c, BlockBuf& buf, int tag) {
  const int p = c.size();
  const int r = c.rank();
  buf.copy_in_to_out(r, r);
  // All sends posted eagerly, then all receives — the naive schedule.
  for (int dst = 0; dst < p; ++dst) {
    if (dst != r) buf.send_in(c, dst, dst, tag);
  }
  for (int src = 0; src < p; ++src) {
    if (src != r) buf.recv_out(c, src, src, tag);
  }
}

/// Bruck alltoall: ceil(log2 P) rounds of aggregated half-buffer exchanges —
/// latency-optimal for small blocks where pairwise's P−1 rounds dominate.
void alltoall_bruck(Comm& c, BlockBuf& buf, int tag) {
  const int p = c.size();
  const int r = c.rank();
  // Phase 1: local rotation out[i] = in[(r+i) mod p], so the block destined
  // for rank d sits at slot (d - r) mod p on every rank.
  for (int i = 0; i < p; ++i) buf.copy_in_to_out((r + i) % p, i);
  // Phase 2: for each bit k, the blocks whose slot has bit k set move k
  // ranks forward — each block travels exactly the bits of its distance.
  auto& scratch = c.proc().coll_scratch();
  auto& blocks = scratch.send_blocks;
  for (int k = 1; k < p; k <<= 1) {
    blocks.clear();
    for (int i = 0; i < p; ++i) {
      if ((i & k) != 0) blocks.push_back(i);
    }
    buf.send_out_blocks(c, blocks, (r + k) % p, tag);
    buf.recv_out_blocks(c, blocks, (r - k + p) % p, tag);
  }
  // Phase 3: inverse rotation; slot j's final content is currently at slot
  // (r - j) mod p.
  auto& perm = scratch.perm;
  perm.resize(static_cast<size_t>(p));
  for (int j = 0; j < p; ++j) perm[static_cast<size_t>(j)] = (r - j + p) % p;
  buf.permute_out(perm);
}

[[noreturn]] void throw_bad_alg(const char* which, CollAlg alg) {
  throw MpiUsageError(strprintf("%s: algorithm '%s' is not valid for this "
                                "collective",
                                which, coll_alg_name(alg)));
}

}  // namespace

void ring_reduce_scatter_impl(Comm& c, CollBuf& buf, int tag) {
  const auto ranks = identity_ranks(c);
  ring_reduce_scatter_subset(c, buf, tag, ranks, c.rank(), 0, buf.count());
}

void scan_impl(Comm& c, CollBuf& buf) {
  const int tag = c.internal_tag();
  const int p = c.size();
  const int r = c.rank();
  const size_t n = buf.count();
  if (r > 0) buf.recv_reduce(c, r - 1, tag, 0, n, /*partner_lower=*/true);
  if (r < p - 1) buf.send_range(c, r + 1, tag, 0, n);
}

CollAlg allreduce_impl(Comm& c, CollBuf& buf, CollAlg alg) {
  alg = c.resolve_alg(TraceEvent::Kind::kAllReduce, buf.total_bytes(), alg);
  const int tag = c.internal_tag();
  if (c.size() == 1) return alg;
  const auto ranks = identity_ranks(c);
  const int r = c.rank();
  switch (alg) {
    case CollAlg::kLinear:
      reduce_linear(c, buf, tag, /*root=*/0);
      bcast_binomial_subset(c, buf, c.internal_tag(), ranks, r, 0);
      break;
    case CollAlg::kBinomial:
      reduce_binomial(c, buf, tag, /*root=*/0);
      bcast_binomial_subset(c, buf, c.internal_tag(), ranks, r, 0);
      break;
    case CollAlg::kRecursiveDoubling:
      allreduce_rdb_subset(c, buf, tag, ranks, r);
      break;
    case CollAlg::kRing:
      allreduce_ring_subset(c, buf, tag, ranks, r, 0, buf.count());
      break;
    case CollAlg::kSegmentedRing:
      allreduce_segmented_ring(c, buf, tag, ranks, r);
      break;
    case CollAlg::kRabenseifner:
      allreduce_rabenseifner(c, buf, tag);
      break;
    case CollAlg::kHierarchical:
      allreduce_hierarchical(c, buf, tag);
      break;
    case CollAlg::kBrokenForTesting:
      allreduce_rdb_subset(c, buf, tag, ranks, r, /*skip_final_fold=*/true);
      break;
    default:
      throw_bad_alg("allreduce", alg);
  }
  return alg;
}

CollAlg reduce_impl(Comm& c, CollBuf& buf, int root, CollAlg alg) {
  alg = c.resolve_alg(TraceEvent::Kind::kReduce, buf.total_bytes(), alg);
  const int tag = c.internal_tag();
  if (c.size() == 1) return alg;
  switch (alg) {
    case CollAlg::kLinear:
      reduce_linear(c, buf, tag, root);
      break;
    case CollAlg::kBinomial:
      reduce_binomial(c, buf, tag, root);
      break;
    default:
      throw_bad_alg("reduce", alg);
  }
  return alg;
}

CollAlg bcast_impl(Comm& c, CollBuf& buf, int root, CollAlg alg) {
  alg = c.resolve_alg(TraceEvent::Kind::kBcast, buf.total_bytes(), alg);
  const int tag = c.internal_tag();
  if (c.size() == 1) return alg;
  const auto ranks = identity_ranks(c);
  switch (alg) {
    case CollAlg::kLinear:
      bcast_linear(c, buf, tag, root);
      break;
    case CollAlg::kChain:
      bcast_chain(c, buf, tag, root);
      break;
    case CollAlg::kBinomial:
      bcast_binomial_subset(c, buf, tag, ranks, c.rank(), root);
      break;
    case CollAlg::kHierarchical:
      bcast_hierarchical(c, buf, tag, root);
      break;
    default:
      throw_bad_alg("bcast", alg);
  }
  return alg;
}

CollAlg alltoall_impl(Comm& c, BlockBuf& buf, CollAlg alg) {
  alg = c.resolve_alg(TraceEvent::Kind::kAllToAll, buf.block_bytes(), alg);
  const int tag = c.internal_tag();
  switch (alg) {
    case CollAlg::kLinear:
      alltoall_linear(c, buf, tag);
      break;
    case CollAlg::kPairwise:
      alltoall_pairwise(c, buf, tag);
      break;
    case CollAlg::kBruck:
      alltoall_bruck(c, buf, tag);
      break;
    default:
      throw_bad_alg("alltoall", alg);
  }
  return alg;
}

CollAlg allgather_impl(Comm& c, BlockBuf& buf, CollAlg alg) {
  alg = c.resolve_alg(TraceEvent::Kind::kAllGather, buf.block_bytes(), alg);
  const int tag = c.internal_tag();
  switch (alg) {
    case CollAlg::kLinear:
      allgather_linear(c, buf, tag);
      break;
    case CollAlg::kRing:
      allgather_ring(c, buf, tag);
      break;
    case CollAlg::kBruck:
      allgather_bruck(c, buf, tag);
      break;
    default:
      throw_bad_alg("allgather", alg);
  }
  return alg;
}

}  // namespace detail

// --- names and validity -----------------------------------------------------

const char* coll_alg_name(CollAlg alg) {
  switch (alg) {
    case CollAlg::kAuto: return "auto";
    case CollAlg::kLinear: return "linear";
    case CollAlg::kChain: return "chain";
    case CollAlg::kBinomial: return "binomial";
    case CollAlg::kRecursiveDoubling: return "recursive_doubling";
    case CollAlg::kRing: return "ring";
    case CollAlg::kSegmentedRing: return "segmented_ring";
    case CollAlg::kRabenseifner: return "rabenseifner";
    case CollAlg::kBruck: return "bruck";
    case CollAlg::kPairwise: return "pairwise";
    case CollAlg::kHierarchical: return "hierarchical";
    case CollAlg::kDissemination: return "dissemination";
    case CollAlg::kBrokenForTesting: return "broken_for_testing";
  }
  return "unknown";
}

CollAlg coll_alg_from_name(std::string_view name) {
  static constexpr std::array<CollAlg, 13> kAll = {
      CollAlg::kAuto,           CollAlg::kLinear,
      CollAlg::kChain,          CollAlg::kBinomial,
      CollAlg::kRecursiveDoubling, CollAlg::kRing,
      CollAlg::kSegmentedRing,  CollAlg::kRabenseifner,
      CollAlg::kBruck,          CollAlg::kPairwise,
      CollAlg::kHierarchical,   CollAlg::kDissemination,
      CollAlg::kBrokenForTesting,
  };
  for (const CollAlg a : kAll) {
    if (name == coll_alg_name(a)) return a;
  }
  throw InputError(strprintf("unknown collective algorithm '%.*s'",
                             static_cast<int>(name.size()), name.data()));
}

const char* coll_kind_key(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kAllReduce: return "allreduce";
    case TraceEvent::Kind::kReduce: return "reduce";
    case TraceEvent::Kind::kBcast: return "bcast";
    case TraceEvent::Kind::kAllGather: return "allgather";
    case TraceEvent::Kind::kAllToAll: return "alltoall";
    default: return nullptr;
  }
}

TraceEvent::Kind coll_kind_from_key(std::string_view key) {
  static constexpr std::array<TraceEvent::Kind, 5> kGoverned = {
      TraceEvent::Kind::kAllReduce, TraceEvent::Kind::kReduce,
      TraceEvent::Kind::kBcast, TraceEvent::Kind::kAllGather,
      TraceEvent::Kind::kAllToAll,
  };
  for (const auto k : kGoverned) {
    if (key == coll_kind_key(k)) return k;
  }
  throw InputError(strprintf("unknown collective kind '%.*s'",
                             static_cast<int>(key.size()), key.data()));
}

namespace {

constexpr std::array<CollAlg, 7> kAllReduceAlgs = {
    CollAlg::kLinear,       CollAlg::kBinomial,     CollAlg::kRecursiveDoubling,
    CollAlg::kRing,         CollAlg::kSegmentedRing, CollAlg::kRabenseifner,
    CollAlg::kHierarchical,
};
constexpr std::array<CollAlg, 2> kReduceAlgs = {CollAlg::kLinear,
                                                CollAlg::kBinomial};
constexpr std::array<CollAlg, 4> kBcastAlgs = {
    CollAlg::kLinear, CollAlg::kChain, CollAlg::kBinomial,
    CollAlg::kHierarchical};
constexpr std::array<CollAlg, 3> kAllGatherAlgs = {
    CollAlg::kLinear, CollAlg::kRing, CollAlg::kBruck};
constexpr std::array<CollAlg, 3> kAllToAllAlgs = {
    CollAlg::kLinear, CollAlg::kPairwise, CollAlg::kBruck};

/// The pre-selector fixed behavior and the tuned fallbacks share this shape;
/// `legacy` disables every topology-aware or small-message refinement.
CollAlg builtin_choose(TraceEvent::Kind kind, std::uint64_t bytes, int p,
                       bool spans, bool legacy) {
  // The tuned cutoffs below are the xgyro_colltune sweep's argmins on the
  // frontier_like machine (256 B .. 1 MiB x 2 .. 256 ranks); rerun the tool
  // after a network-model change to re-derive them.
  constexpr std::uint64_t kRingThresholdBytes = 64 * 1024;
  switch (kind) {
    case TraceEvent::Kind::kAllReduce:
      if (legacy) {
        // Pre-selector behavior: MPICH-style crossover, latency-bound small
        // payloads on recursive doubling, large ones on the ring.
        return (bytes >= kRingThresholdBytes && p > 2)
                   ? CollAlg::kRing
                   : CollAlg::kRecursiveDoubling;
      }
      // Rabenseifner's halving/doubling sends half the ring's volume in
      // log(P) rounds instead of 2(P-1): past ~256 KiB it beats recursive
      // doubling, and it beats the ring everywhere the sweep looked.
      return (bytes >= 256 * 1024 && p > 2) ? CollAlg::kRabenseifner
                                            : CollAlg::kRecursiveDoubling;
    case TraceEvent::Kind::kReduce:
      if (legacy) return CollAlg::kBinomial;
      // The root's receives are o_recv-bound once eager sends overlap, so
      // linear wins within a node and for bandwidth-bound large payloads;
      // binomial wins the latency-bound internode cells.
      if (spans && bytes < 512 * 1024) return CollAlg::kBinomial;
      return CollAlg::kLinear;
    case TraceEvent::Kind::kBcast:
      // Hierarchical wins every node-spanning cell in the sweep: one copy
      // crosses each node boundary instead of log(P) internode hops, and
      // the leaders exchange on an exclusive NIC.
      if (!legacy && spans && p > 2) return CollAlg::kHierarchical;
      if (!legacy && !spans && p <= 8 && bytes <= 4096) {
        return CollAlg::kLinear;
      }
      return CollAlg::kBinomial;
    case TraceEvent::Kind::kAllGather:
      // Bruck's log(P) doubling rounds move the same total volume as the
      // ring's P-1 rounds but pay (P-1-log P) fewer latencies.
      if (!legacy && p > 2) return CollAlg::kBruck;
      return CollAlg::kRing;
    case TraceEvent::Kind::kAllToAll:
      // Bruck aggregates while blocks are small; past ~4 KiB per pair the
      // ceil(P/2)x volume blowup loses to eager linear exchange.
      if (!legacy && bytes <= 4096 && p > 4) return CollAlg::kBruck;
      if (!legacy && bytes > 4096) return CollAlg::kLinear;
      return CollAlg::kPairwise;
    default:
      return CollAlg::kAuto;
  }
}

}  // namespace

std::span<const CollAlg> selectable_algs(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kAllReduce: return kAllReduceAlgs;
    case TraceEvent::Kind::kReduce: return kReduceAlgs;
    case TraceEvent::Kind::kBcast: return kBcastAlgs;
    case TraceEvent::Kind::kAllGather: return kAllGatherAlgs;
    case TraceEvent::Kind::kAllToAll: return kAllToAllAlgs;
    default: return {};
  }
}

bool alg_valid_for(TraceEvent::Kind kind, CollAlg alg) {
  const auto algs = selectable_algs(kind);
  return std::find(algs.begin(), algs.end(), alg) != algs.end();
}

CollSelector::CollSelector(std::vector<CollRule> rules, std::string origin)
    : rules_(std::move(rules)), origin_(std::move(origin)) {
  for (const auto& rule : rules_) {
    if (coll_kind_key(rule.kind) == nullptr) {
      throw InputError(strprintf(
          "collective decision table: kind '%s' is not selector-governed",
          trace_kind_name(rule.kind)));
    }
    if (!alg_valid_for(rule.kind, rule.alg)) {
      throw InputError(strprintf(
          "collective decision table: algorithm '%s' is not valid for %s",
          coll_alg_name(rule.alg), coll_kind_key(rule.kind)));
    }
    if (rule.spans_nodes < -1 || rule.spans_nodes > 1) {
      throw InputError("collective decision table: spans_nodes must be "
                       "-1 (any), 0, or 1");
    }
    if (rule.max_participants < 1) {
      throw InputError(
          "collective decision table: max_participants must be >= 1");
    }
  }
}

const CollSelector& CollSelector::tuned() {
  static const CollSelector s;
  return s;
}

const CollSelector& CollSelector::legacy() {
  static const CollSelector s = [] {
    CollSelector x;
    x.legacy_ = true;
    x.origin_ = "legacy";
    return x;
  }();
  return s;
}

const CollSelector* CollSelector::named(std::string_view name) {
  if (name == "tuned") return &tuned();
  if (name == "legacy") return &legacy();
  return nullptr;
}

CollAlg CollSelector::choose(TraceEvent::Kind kind, std::uint64_t bytes,
                             int participants, bool spans_nodes) const {
  if (coll_kind_key(kind) == nullptr) return CollAlg::kAuto;
  if (!legacy_) {
    for (const auto& rule : rules_) {
      if (rule.kind != kind) continue;
      if (bytes > rule.max_bytes) continue;
      if (participants > rule.max_participants) continue;
      if (rule.spans_nodes >= 0 && rule.spans_nodes != (spans_nodes ? 1 : 0)) {
        continue;
      }
      return rule.alg;
    }
  }
  return builtin_choose(kind, bytes, participants, spans_nodes, legacy_);
}

}  // namespace xg::mpi
