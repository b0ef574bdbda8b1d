// Elastic checkpoint/restart for solver state.
//
// Recovery needs snapshots that do not depend on the decomposition: after a
// node failure the surviving allocation usually cannot reproduce the
// original (pv, pt) layout, so one file per sim rank readable only by the
// identical layout would be useless. The snapshots written here are
// decomposition-INDEPENDENT — every shard
// carries the *global* index ranges it covers, and the reader assembles any
// target rank's slice from whichever shards overlap it — so a job
// checkpointed on k·pv·pt ranks can resume on a different rank count, a
// different (pv, pt), or even with members split back out to k = 1.
//
// Only the distributed state tensor h and the step counter are saved. cmat
// is deliberately NOT checkpointed: it is a pure function of the input
// (that is the paper's shared-tensor insight), and rebuilding it on restore
// keeps snapshots ~10× smaller than the resident footprint. A cmat
// fingerprint in every shard guards against restoring into physically
// different inputs.
//
// On-disk layout (one directory per snapshot, atomically committed):
//
//   <dir>/ckpt-00000003.tmp/      staging — ignored by readers
//   <dir>/ckpt-00000003/          committed via std::filesystem::rename
//       manifest.json             written LAST, inside the tmp dir
//       m0.v0.t0.shard            member 0, global ranges iv0=0, it0=0
//       m1.v8.t2.shard            ...
//
// A snapshot directory without a manifest is an aborted commit; a manifest
// whose shard hashes do not verify is corruption. Both are skipped by
// find_latest_valid in favor of the previous valid snapshot, and so is a
// snapshot of another format version (kFormatVersion).
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace xg::gyro {
class Simulation;
class Input;
}  // namespace xg::gyro

namespace xg::ckpt {

using cplx = std::complex<double>;

/// On-disk format version, written as the manifest's schema_version and as
/// every shard header's version. Version 2 hashes each payload with the
/// word-wise xg::word_digest over its raw bits; version 1 (byte-wise FNV-1a
/// over -0.0-normalized doubles) is refused, never misread.
inline constexpr int kFormatVersion = 2;

/// Structured failure for missing/truncated/corrupt/incompatible snapshots.
/// Never raised for "no snapshot exists" (that is an empty optional).
class CheckpointError : public Error {
 public:
  using Error::Error;
};

/// The global index ranges of one rank's state slice, streaming layout
/// h(nv_loc, nc, nt_loc) row-major. `member` is the index within the batch
/// being checkpointed (0 for a single simulation).
struct Slice {
  int member = 0;
  int iv0 = 0;      ///< first global velocity index
  int nv_loc = 0;   ///< velocity rows in this slice
  int nc = 0;       ///< full configuration dimension (never decomposed here)
  int it0 = 0;      ///< first global toroidal index
  int nt_loc = 0;   ///< toroidal columns in this slice

  [[nodiscard]] std::uint64_t elems() const {
    return static_cast<std::uint64_t>(nv_loc) * nc * nt_loc;
  }
};

/// Per-member metadata recorded in the manifest (consistency-checked when
/// several ranks of the same member register).
struct MemberMeta {
  std::string tag;
  std::uint64_t cmat_fingerprint = 0;
  int nv = 0, nc = 0, nt = 0;  ///< global dims
  std::int64_t steps = 0;      ///< timesteps taken at snapshot time
};

/// One shard entry of the manifest.
struct ShardInfo {
  std::string file;  ///< relative to the snapshot directory
  Slice slice;
  std::int64_t steps = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_hash = 0;  ///< xg::word_digest of the payload bytes
};

struct Manifest {
  std::int64_t interval = 0;  ///< completed report intervals at snapshot time
  std::vector<MemberMeta> members;  ///< indexed by member
  std::vector<ShardInfo> shards;
};

/// "ckpt-00000003" for interval 3 (fixed width so lexicographic order is
/// chronological order).
std::string snapshot_dirname(std::int64_t interval);

// --- writer -----------------------------------------------------------------

/// Host-side snapshot coordinator shared by every rank thread of one job.
/// Each rank calls add_shard() when it crosses a checkpoint boundary; the
/// LAST rank to register a given interval writes the manifest and atomically
/// renames the staging directory into place. Deliberately not an MPI
/// barrier: registration happens outside the simulated schedule, so
/// checkpointing perturbs neither the message ordering nor the virtual
/// clock. Snapshot directories older than `keep_last` committed snapshots
/// are pruned after each commit; stale *.tmp staging dirs are removed on
/// construction.
class CheckpointWriter {
 public:
  CheckpointWriter(std::string dir, int n_ranks, int keep_last = 2);

  /// Register this rank's slice for snapshot `interval`. Returns true when
  /// this call was the n_ranks-th registration and performed the commit.
  /// Thread-safe; throws xg::ckpt::CheckpointError on I/O failure.
  bool add_shard(std::int64_t interval, const Slice& slice,
                 const MemberMeta& meta, std::span<const cplx> data);

  [[nodiscard]] std::uint64_t snapshots_committed() const;
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  struct Pending;
  struct Impl;
  std::shared_ptr<Impl> impl_;
  std::string dir_;
};

// --- reader -----------------------------------------------------------------

struct SnapshotRef {
  std::string path;           ///< committed snapshot directory
  std::int64_t interval = 0;  ///< parsed from the directory name
};

struct ScanResult {
  std::optional<SnapshotRef> latest_valid;
  /// Committed-looking snapshots that failed validation, newest first, with
  /// the reason ("<path>: <why>"). Staging (*.tmp) dirs are not listed.
  std::vector<std::string> rejected;
};

/// Scan `dir` for snapshots, newest first; fully validate each (manifest
/// schema, shard presence, sizes, payload hashes) and return the newest one
/// that passes. An absent or empty directory yields no snapshot and no
/// rejections.
ScanResult find_latest_valid(const std::string& dir);

/// Parse + fully validate one snapshot directory. Throws CheckpointError.
Manifest validate_snapshot(const std::string& snapshot_path);

/// Parse the manifest only (no shard I/O). Throws CheckpointError.
Manifest load_manifest(const std::string& snapshot_path);

/// Fill `out` (the row-major h-slice described by `want`) from every shard
/// of want.member that overlaps it, verifying shard hashes and the cmat
/// fingerprint against `expect_cmat_fingerprint`. Throws CheckpointError on
/// corruption, incompatible grids/physics, or incomplete coverage.
/// Returns the member's step counter at snapshot time.
std::int64_t restore_slice(const std::string& snapshot_path,
                           const Manifest& manifest, const Slice& want,
                           std::uint64_t expect_cmat_fingerprint,
                           std::span<cplx> out);

// --- solver glue ------------------------------------------------------------

/// The slice of `sim`'s rank within ensemble member `member` (global index
/// offsets from the simulation's communicator layout).
Slice slice_of(const gyro::Simulation& sim, int member);

/// Manifest metadata for `sim`'s member.
MemberMeta meta_of(const gyro::Simulation& sim);

/// Register this rank's slice of `sim` with the writer (real mode only).
/// Returns true when this call committed the snapshot.
bool snapshot_rank(CheckpointWriter& writer, std::int64_t interval,
                   const gyro::Simulation& sim, int member);

/// Restore this rank's slice of `sim` from a committed snapshot (any source
/// decomposition) and set the step counter. Real mode only.
void restore_rank(const std::string& snapshot_path, const Manifest& manifest,
                  gyro::Simulation& sim, int member);

}  // namespace xg::ckpt
