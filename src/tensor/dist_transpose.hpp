// Distributed layout change between the streaming and collision phases.
//
// CGYRO (k = 1): over the nv-splitting communicator of size P_v, move from
//   str  layout  (nv_loc, nc,      nt_loc)  — every rank holds all of nc
//   coll layout  (nc_loc, nv,      nt_loc)  — every rank holds all of nv
// with nc_loc = nc / P_v, via one uniform AllToAll.
//
// XGYRO (k > 1): the *same* exchange runs over the ensemble-wide collision
// communicator of size Q = k·P_v (paper Fig. 3). Each rank still sends one
// uniform block to every peer, but now owns only nc / Q configuration cells
// — for *every one of the k simulations*. The constant tensor cmat is stored
// per (nc cell), so its per-rank slice shrinks by k while the per-rank state
// volume is unchanged. This class implements both cases with one code path;
// k = 1 is exactly CGYRO's transpose.
//
// Conventions:
//  * The collision communicator orders ranks simulation-major:
//    coll_rank = sim_index · P_v + p_v, where p_v is the rank's position in
//    its simulation's nv communicator.
//  * nc must be divisible by k·P_v and nv by P_v (CGYRO imposes the same
//    style of divisibility constraints on its own grids).
#pragma once

#include <algorithm>
#include <vector>

#include "simmpi/comm.hpp"
#include "tensor/tensor.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::tensor {

template <typename T>
class EnsembleTransposer {
 public:
  /// k simulations, each str-distributed over `pv` ranks; configuration dim
  /// `nc`, velocity dim `nv`, inner (toroidal-local) dim `n_inner`.
  EnsembleTransposer(int n_sims, int pv, int nc, int nv, int n_inner)
      : k_(n_sims), pv_(pv), nc_(nc), nv_(nv), inner_(n_inner) {
    XG_REQUIRE(k_ >= 1 && pv_ >= 1 && nc_ >= 1 && nv_ >= 1 && inner_ >= 1,
               "EnsembleTransposer: all dimensions must be positive");
    q_ = k_ * pv_;
    XG_REQUIRE(nc_ % q_ == 0,
               strprintf("EnsembleTransposer: nc=%d not divisible by k*pv=%d",
                         nc_, q_));
    XG_REQUIRE(nv_ % pv_ == 0,
               strprintf("EnsembleTransposer: nv=%d not divisible by pv=%d",
                         nv_, pv_));
    nc_loc_ = nc_ / q_;
    nv_loc_ = nv_ / pv_;
    block_ = static_cast<size_t>(nv_loc_) * nc_loc_ * inner_;
    // Staging buffers are allocated on first real-data use: model-mode runs
    // (virtual payloads only) must not pay the full-state footprint.
  }

  [[nodiscard]] int n_sims() const { return k_; }
  [[nodiscard]] int pv() const { return pv_; }
  [[nodiscard]] int nc_loc() const { return nc_loc_; }
  [[nodiscard]] int nv_loc() const { return nv_loc_; }

  /// Shape check helpers for the two layouts.
  [[nodiscard]] Tensor3<T> make_str_tensor() const {
    return Tensor3<T>(nv_loc_, nc_, inner_);
  }
  [[nodiscard]] std::vector<Tensor3<T>> make_coll_tensors() const {
    std::vector<Tensor3<T>> out;
    out.reserve(static_cast<size_t>(k_));
    for (int s = 0; s < k_; ++s) out.emplace_back(nc_loc_, nv_, inner_);
    return out;
  }

  /// str → coll. `str_in` is this rank's simulation state (nv_loc, nc,
  /// inner). `coll_out` gets one (nc_loc, nv, inner) tensor per simulation.
  /// Collective over `coll_comm` (size k·pv, simulation-major order).
  void to_coll(mpi::Comm& coll_comm, const Tensor3<T>& str_in,
               std::vector<Tensor3<T>>& coll_out) {
    check_comm(coll_comm);
    ensure_staging();
    XG_ASSERT(str_in.n0() == nv_loc_ && str_in.n1() == nc_ && str_in.n2() == inner_);
    XG_ASSERT(static_cast<int>(coll_out.size()) == k_);

    // Pack: block for peer q = my nv_loc rows over q's nc_loc cells.
    size_t pos = 0;
    for (int q = 0; q < q_; ++q) {
      const int a0 = q * nc_loc_;
      for (int bl = 0; bl < nv_loc_; ++bl) {
        for (int a = a0; a < a0 + nc_loc_; ++a) {
          const auto row = str_in.inner(bl, a);
          for (int t = 0; t < inner_; ++t) send_[pos++] = row[t];
        }
      }
    }
    coll_comm.alltoall(std::span<const T>(send_), std::span<T>(recv_));

    // Unpack: the block from peer j carries simulation j/pv's rows
    // [ (j%pv)·nv_loc , ... ) over my nc_loc cells.
    pos = 0;
    for (int j = 0; j < q_; ++j) {
      const int sim = j / pv_;
      const int b0 = (j % pv_) * nv_loc_;
      auto& out = coll_out[sim];
      XG_ASSERT(out.n0() == nc_loc_ && out.n1() == nv_ && out.n2() == inner_);
      for (int bl = 0; bl < nv_loc_; ++bl) {
        for (int a = 0; a < nc_loc_; ++a) {
          auto row = out.inner(a, b0 + bl);
          for (int t = 0; t < inner_; ++t) row[t] = recv_[pos++];
        }
      }
    }
  }

  /// coll → str: exact inverse of to_coll.
  void to_str(mpi::Comm& coll_comm, const std::vector<Tensor3<T>>& coll_in,
              Tensor3<T>& str_out) {
    check_comm(coll_comm);
    ensure_staging();
    XG_ASSERT(static_cast<int>(coll_in.size()) == k_);
    XG_ASSERT(str_out.n0() == nv_loc_ && str_out.n1() == nc_ && str_out.n2() == inner_);

    // Pack: block for peer j = j's nv_loc rows of simulation j/pv over my
    // nc_loc cells, ordered (bl, a, t) to mirror to_coll's unpack.
    size_t pos = 0;
    for (int j = 0; j < q_; ++j) {
      const int sim = j / pv_;
      const int b0 = (j % pv_) * nv_loc_;
      const auto& in = coll_in[sim];
      XG_ASSERT(in.n0() == nc_loc_ && in.n1() == nv_ && in.n2() == inner_);
      for (int bl = 0; bl < nv_loc_; ++bl) {
        for (int a = 0; a < nc_loc_; ++a) {
          const auto row = in.inner(a, b0 + bl);
          for (int t = 0; t < inner_; ++t) send_[pos++] = row[t];
        }
      }
    }
    coll_comm.alltoall(std::span<const T>(send_), std::span<T>(recv_));

    // Unpack: block from peer q carries my nv_loc rows over q's nc cells.
    pos = 0;
    for (int q = 0; q < q_; ++q) {
      const int a0 = q * nc_loc_;
      for (int bl = 0; bl < nv_loc_; ++bl) {
        for (int a = a0; a < a0 + nc_loc_; ++a) {
          auto row = str_out.inner(bl, a);
          for (int t = 0; t < inner_; ++t) row[t] = recv_[pos++];
        }
      }
    }
  }

  /// Model-mode variants: identical message schedule, virtual payloads.
  void to_coll_virtual(mpi::Comm& coll_comm) const {
    check_comm(coll_comm);
    coll_comm.alltoall_virtual(block_ * sizeof(T));
  }
  void to_str_virtual(mpi::Comm& coll_comm) const {
    check_comm(coll_comm);
    coll_comm.alltoall_virtual(block_ * sizeof(T));
  }

  // --- pipelined str → coll with per-chunk work (comm/compute overlap) -----
  //
  // The destination cell range nc_loc is split into `n_chunks` sub-ranges.
  // All sub-blocks are posted as nonblocking sends up front; the receiver
  // then completes chunk 0, runs `work(chunk)` on those cells while later
  // chunks are still in flight, and so on — the overlap CGYRO uses to hide
  // its transposes behind the collision kernels. `work(c)` may touch cells
  // [c·nc_loc/n_chunks, (c+1)·nc_loc/n_chunks) of every coll_out tensor.
  // Requires nc_loc % n_chunks == 0. With n_chunks = 1 the message payloads
  // equal the plain path's, but through the pairwise-exchange vs
  // isend-all/recv-all schedules the timings differ slightly.

  template <typename Work>
  void to_coll_pipelined(mpi::Comm& coll_comm, const Tensor3<T>& str_in,
                         std::vector<Tensor3<T>>& coll_out, int n_chunks,
                         Work&& work) {
    check_comm(coll_comm);
    check_chunks(n_chunks);
    XG_ASSERT(str_in.n0() == nv_loc_ && str_in.n1() == nc_ && str_in.n2() == inner_);
    XG_ASSERT(static_cast<int>(coll_out.size()) == k_);
    ensure_staging();
    const int me = coll_comm.rank();
    const int a_per_chunk = nc_loc_ / n_chunks;
    const size_t sub = static_cast<size_t>(nv_loc_) * a_per_chunk * inner_;

    // Pack everything and post all sends (chunk-major staging layout).
    std::vector<mpi::Request> sends;
    sends.reserve(static_cast<size_t>(n_chunks) * (q_ - 1));
    for (int c = 0; c < n_chunks; ++c) {
      for (int q = 0; q < q_; ++q) {
        T* seg = send_.data() + (static_cast<size_t>(c) * q_ + q) * sub;
        size_t pos = 0;
        const int a0 = q * nc_loc_ + c * a_per_chunk;
        for (int bl = 0; bl < nv_loc_; ++bl) {
          for (int a = a0; a < a0 + a_per_chunk; ++a) {
            const auto row = str_in.inner(bl, a);
            for (int t = 0; t < inner_; ++t) seg[pos++] = row[t];
          }
        }
        if (q == me) continue;
        sends.push_back(coll_comm.isend(
            std::span<const T>(seg, sub), q, kPipelineTagBase + c));
      }
    }
    // Complete chunk by chunk, overlapping work with later chunks' flight.
    for (int c = 0; c < n_chunks; ++c) {
      for (int j = 0; j < q_; ++j) {
        T* seg = recv_.data() + static_cast<size_t>(j) * sub;
        if (j == me) {
          const T* self = send_.data() + (static_cast<size_t>(c) * q_ + me) * sub;
          std::copy(self, self + sub, seg);
        } else {
          coll_comm.recv(std::span<T>(seg, sub), j, kPipelineTagBase + c);
        }
        const int sim = j / pv_;
        const int b0 = (j % pv_) * nv_loc_;
        auto& out = coll_out[sim];
        size_t pos = 0;
        for (int bl = 0; bl < nv_loc_; ++bl) {
          for (int a = 0; a < a_per_chunk; ++a) {
            auto row = out.inner(c * a_per_chunk + a, b0 + bl);
            for (int t = 0; t < inner_; ++t) row[t] = seg[pos++];
          }
        }
      }
      work(c);
    }
    coll_comm.waitall(std::span<mpi::Request>(sends));
  }

  /// Model-mode twin of to_coll_pipelined: identical message schedule with
  /// virtual payloads; `work(c)` should charge the chunk's compute.
  template <typename Work>
  void to_coll_pipelined_virtual(mpi::Comm& coll_comm, int n_chunks,
                                 Work&& work) const {
    check_comm(coll_comm);
    check_chunks(n_chunks);
    const int me = coll_comm.rank();
    const int a_per_chunk = nc_loc_ / n_chunks;
    const std::uint64_t sub =
        static_cast<std::uint64_t>(nv_loc_) * a_per_chunk * inner_ * sizeof(T);
    std::vector<mpi::Request> sends;
    sends.reserve(static_cast<size_t>(n_chunks) * (q_ - 1));
    for (int c = 0; c < n_chunks; ++c) {
      for (int q = 0; q < q_; ++q) {
        if (q == me) continue;
        sends.push_back(coll_comm.isend_virtual(sub, q, kPipelineTagBase + c));
      }
    }
    for (int c = 0; c < n_chunks; ++c) {
      for (int j = 0; j < q_; ++j) {
        if (j == me) continue;
        coll_comm.recv_virtual(sub, j, kPipelineTagBase + c);
      }
      work(c);
    }
    coll_comm.waitall(std::span<mpi::Request>(sends));
  }

  /// Largest valid pipeline chunk count ≤ `wanted`.
  [[nodiscard]] int clamp_chunks(int wanted) const {
    int c = std::max(1, std::min(wanted, nc_loc_));
    while (nc_loc_ % c != 0) --c;
    return c;
  }

 private:
  static constexpr int kPipelineTagBase = 1 << 20;

  void check_chunks(int n_chunks) const {
    XG_REQUIRE(n_chunks >= 1 && nc_loc_ % n_chunks == 0,
               strprintf("to_coll_pipelined: nc_loc=%d not divisible by "
                         "n_chunks=%d",
                         nc_loc_, n_chunks));
  }

  void ensure_staging() {
    if (send_.size() != block_ * q_) {
      send_.resize(block_ * q_);
      recv_.resize(block_ * q_);
    }
  }

  void check_comm(const mpi::Comm& comm) const {
    XG_REQUIRE(comm.size() == q_,
               strprintf("EnsembleTransposer: comm size %d, expected k*pv=%d",
                         comm.size(), q_));
  }

  int k_, pv_, nc_, nv_, inner_;
  int q_ = 0, nc_loc_ = 0, nv_loc_ = 0;
  size_t block_ = 0;
  std::vector<T> send_, recv_;
};

}  // namespace xg::tensor
