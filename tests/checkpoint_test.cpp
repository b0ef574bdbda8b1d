// Checkpoint/restart property tests:
//  * snapshot → restore → N more steps is bit-identical to an uninterrupted
//    2N-step run, across different decompositions and ensemble sizes;
//  * truncated and bit-flipped shards (every single payload bit, the sign
//    of a zero included) and snapshots of another format version are
//    rejected with a structured error, and find_latest_valid falls back to
//    the previous valid snapshot;
//  * the job runner survives an injected rank kill, replans on the
//    surviving nodes, and reproduces the fault-free physics;
//  * snapshot bytes, recoveries and RunResult bits do not depend on the
//    host schedule (every schedule-perturbation seed gives the same).
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "gyro/simulation.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/runtime.hpp"
#include "simnet/machine.hpp"
#include "telemetry/json.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "run_digest.hpp"
#include "xgyro/driver.hpp"
#include "xgyro/ensemble.hpp"

namespace xg::ckpt {
namespace {

namespace fs = std::filesystem;

using gyro::Decomposition;
using gyro::Diagnostics;
using gyro::Input;
using gyro::Mode;
using gyro::Simulation;

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::temp_directory_path() / ("xg_ckpt_" + name)).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

/// Synthetic single-member snapshot contents for the pure-library tests:
/// a 2x3x4 grid whose value at (iv, ic, it) encodes the global coordinates.
std::complex<double> cell_value(int iv, int ic, int it) {
  return {static_cast<double>(100 * iv + 10 * ic + it), 0.25};
}

MemberMeta synthetic_meta(std::int64_t steps) {
  MemberMeta m;
  m.tag = "synthetic";
  m.cmat_fingerprint = 0xfeedbeefu;
  m.nv = 2;
  m.nc = 3;
  m.nt = 4;
  m.steps = steps;
  return m;
}

std::vector<std::complex<double>> slice_payload(const Slice& s) {
  std::vector<std::complex<double>> data;
  data.reserve(s.elems());
  for (int iv = s.iv0; iv < s.iv0 + s.nv_loc; ++iv) {
    for (int ic = 0; ic < s.nc; ++ic) {
      for (int it = s.it0; it < s.it0 + s.nt_loc; ++it) {
        data.push_back(cell_value(iv, ic, it));
      }
    }
  }
  return data;
}

/// Commit one synthetic full-grid snapshot (two shards, split over iv).
void commit_synthetic(CheckpointWriter& writer, std::int64_t interval) {
  for (int r = 0; r < 2; ++r) {
    const Slice s{0, r, 1, 3, 0, 4};
    writer.add_shard(interval, s, synthetic_meta(interval * 5),
                     slice_payload(s));
  }
}

// ---------------------------------------------------------------------------
// Pure library properties

TEST(Checkpoint, WriterCommitsAtomicallyAndPrunes) {
  const TempDir dir("prune");
  CheckpointWriter writer(dir.path, /*n_ranks=*/2);
  commit_synthetic(writer, 1);
  commit_synthetic(writer, 2);
  commit_synthetic(writer, 3);
  EXPECT_EQ(writer.snapshots_committed(), 3u);
  EXPECT_FALSE(fs::exists(fs::path(dir.path) / snapshot_dirname(1)));
  EXPECT_TRUE(fs::exists(fs::path(dir.path) / snapshot_dirname(2)));
  EXPECT_TRUE(fs::exists(fs::path(dir.path) / snapshot_dirname(3)));

  const auto scan = find_latest_valid(dir.path);
  ASSERT_TRUE(scan.latest_valid.has_value());
  EXPECT_EQ(scan.latest_valid->interval, 3);
  EXPECT_TRUE(scan.rejected.empty());
}

TEST(Checkpoint, ScanKeepsTheValidatedManifest) {
  // A resume reads the manifest from the scan instead of parsing it again,
  // so the scan's copy must be exactly what load_manifest returns.
  const TempDir dir("scan_manifest");
  CheckpointWriter writer(dir.path, /*n_ranks=*/2);
  commit_synthetic(writer, 1);
  commit_synthetic(writer, 2);
  const auto scan = find_latest_valid(dir.path);
  ASSERT_TRUE(scan.latest_valid.has_value());
  const Manifest& scanned = scan.latest_valid->manifest;
  EXPECT_EQ(scanned.interval, 2);
  EXPECT_EQ(scanned.shards.size(), 2u);
  EXPECT_EQ(scanned, load_manifest(scan.latest_valid->path));
}

TEST(Checkpoint, EmptyDirHasNoSnapshot) {
  const TempDir dir("empty");
  const auto scan = find_latest_valid(dir.path);
  EXPECT_FALSE(scan.latest_valid.has_value());
  EXPECT_TRUE(scan.rejected.empty());
}

TEST(Checkpoint, RestoreSliceCrossDecomposition) {
  // Written split over iv (2 shards); read back split over it — every
  // overlap rectangle must land on the right global coordinates.
  const TempDir dir("xdecomp");
  CheckpointWriter writer(dir.path, 2);
  commit_synthetic(writer, 7);

  const auto scan = find_latest_valid(dir.path);
  ASSERT_TRUE(scan.latest_valid.has_value());
  const auto manifest = load_manifest(scan.latest_valid->path);
  for (int half = 0; half < 2; ++half) {
    const Slice want{0, 0, 2, 3, 2 * half, 2};
    std::vector<std::complex<double>> out(want.elems());
    const auto steps = restore_slice(scan.latest_valid->path, manifest, want,
                                     0xfeedbeefu, out);
    EXPECT_EQ(steps, 35);
    EXPECT_EQ(out, slice_payload(want));
  }
}

TEST(Checkpoint, FingerprintMismatchRejected) {
  const TempDir dir("fingerprint");
  CheckpointWriter writer(dir.path, 2);
  commit_synthetic(writer, 1);
  const auto scan = find_latest_valid(dir.path);
  ASSERT_TRUE(scan.latest_valid.has_value());
  const auto manifest = load_manifest(scan.latest_valid->path);
  const Slice want{0, 0, 2, 3, 0, 4};
  std::vector<std::complex<double>> out(want.elems());
  EXPECT_THROW(
      restore_slice(scan.latest_valid->path, manifest, want, 0xbad, out),
      CheckpointError);
}

TEST(Checkpoint, TruncatedShardFallsBackToOlderSnapshot) {
  const TempDir dir("truncate");
  CheckpointWriter writer(dir.path, 2);
  commit_synthetic(writer, 1);
  commit_synthetic(writer, 2);
  // Truncate one shard of the newest snapshot.
  const fs::path snap = fs::path(dir.path) / snapshot_dirname(2);
  for (const auto& e : fs::directory_iterator(snap)) {
    if (e.path().extension() == ".shard") {
      fs::resize_file(e.path(), 10);
      break;
    }
  }
  EXPECT_THROW(validate_snapshot(snap.string()), CheckpointError);
  const auto scan = find_latest_valid(dir.path);
  ASSERT_TRUE(scan.latest_valid.has_value());
  EXPECT_EQ(scan.latest_valid->interval, 1);
  ASSERT_EQ(scan.rejected.size(), 1u);
  EXPECT_NE(scan.rejected.front().find(snapshot_dirname(2)),
            std::string::npos);
}

/// XOR `mask` into the byte at `offset` of `path`.
void xor_byte(const fs::path& path, std::streamoff offset,
              unsigned char mask) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(offset);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ static_cast<char>(mask));
  f.seekp(offset);
  f.write(&c, 1);
  ASSERT_TRUE(f.good()) << path;
}

TEST(Checkpoint, BitFlippedPayloadRejected) {
  const TempDir dir("bitflip");
  CheckpointWriter writer(dir.path, 2);
  commit_synthetic(writer, 1);
  const fs::path snap = fs::path(dir.path) / snapshot_dirname(1);
  for (const auto& e : fs::directory_iterator(snap)) {
    if (e.path().extension() == ".shard") {
      xor_byte(e.path(), 70, 0x40);  // inside the payload, past the header
      break;
    }
  }
  EXPECT_THROW(validate_snapshot(snap.string()), CheckpointError);
  const auto scan = find_latest_valid(dir.path);
  EXPECT_FALSE(scan.latest_valid.has_value());
  EXPECT_EQ(scan.rejected.size(), 1u);
}

constexpr std::streamoff kShardHeaderBytes = 64;

// Payload hashes are persisted in every manifest and shard header, so the
// digest's bits are part of the on-disk format: a change to them must come
// with a kFormatVersion bump. The buffer holds +0.0, -0.0, a NaN with a
// payload and a 3-byte tail, all hashed as raw bits.
TEST(Checkpoint, WordDigestKnownAnswer) {
  const std::uint64_t words[] = {0x0000000000000000ull, 0x8000000000000000ull,
                                 0x7ff8000000000123ull, 0x3ff8000000000000ull};
  std::vector<unsigned char> buf(sizeof words + 3);
  std::memcpy(buf.data(), words, sizeof words);
  buf[32] = 0x01;
  buf[33] = 0x02;
  buf[34] = 0x03;
  EXPECT_EQ(word_digest(buf.data(), buf.size()), 0xf2b7b936bd526d17ull);
  EXPECT_EQ(word_digest(words, sizeof words), 0x556a59cb88aa1991ull);
  const double zeros[] = {0.0, -0.0};
  EXPECT_NE(word_digest(&zeros[0], 8), word_digest(&zeros[1], 8));
}

TEST(Checkpoint, EveryPayloadBitFlipRejected) {
  // A one-rank, two-element shard: 256 payload bits, each flipped alone.
  // Its first element's real part is +0.0, so one of the flips makes -0.0.
  const TempDir dir("every_bit");
  CheckpointWriter writer(dir.path, 1);
  MemberMeta meta = synthetic_meta(5);
  meta.nv = 1;
  meta.nc = 1;
  meta.nt = 2;
  const Slice s{0, 0, 1, 1, 0, 2};
  writer.add_shard(1, s, meta, slice_payload(s));
  const fs::path snap = fs::path(dir.path) / snapshot_dirname(1);
  const fs::path shard = snap / "m0.v0.t0.shard";
  ASSERT_NO_THROW(validate_snapshot(snap.string()));
  const auto bytes = static_cast<std::streamoff>(s.elems() * sizeof(cplx));
  for (std::streamoff byte = 0; byte < bytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      const auto mask = static_cast<unsigned char>(1u << bit);
      xor_byte(shard, kShardHeaderBytes + byte, mask);
      EXPECT_THROW(validate_snapshot(snap.string()), CheckpointError)
          << "byte " << byte << " bit " << bit;
      xor_byte(shard, kShardHeaderBytes + byte, mask);
    }
  }
  EXPECT_NO_THROW(validate_snapshot(snap.string()));
}

TEST(Checkpoint, NegativeZeroPayloadRejected) {
  // cell_value(0, 0, 0) has real part +0.0; its sign bit is the top bit of
  // the shard's eighth payload byte.
  const TempDir dir("negzero");
  CheckpointWriter writer(dir.path, 2);
  commit_synthetic(writer, 1);
  const fs::path snap = fs::path(dir.path) / snapshot_dirname(1);
  xor_byte(snap / "m0.v0.t0.shard", kShardHeaderBytes + 7, 0x80);
  EXPECT_THROW(validate_snapshot(snap.string()), CheckpointError);
  const auto scan = find_latest_valid(dir.path);
  EXPECT_FALSE(scan.latest_valid.has_value());
  EXPECT_EQ(scan.rejected.size(), 1u);
}

/// The CheckpointError message `fn` throws ("" when it does not throw).
template <typename Fn>
std::string refusal(Fn&& fn) {
  try {
    fn();
  } catch (const CheckpointError& e) {
    return e.what();
  }
  return {};
}

void expect_names_both_versions(const std::string& msg,
                                const std::string& path) {
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("version 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find(strprintf("version %d", kFormatVersion)),
            std::string::npos)
      << msg;
}

TEST(Checkpoint, OldManifestVersionRefused) {
  const TempDir dir("old_manifest");
  CheckpointWriter writer(dir.path, 2);
  commit_synthetic(writer, 1);
  const fs::path snap = fs::path(dir.path) / snapshot_dirname(1);
  const std::string manifest_path = (snap / "manifest.json").string();
  auto doc = telemetry::load_json_file(manifest_path);
  doc.set("schema_version", telemetry::Json(1));
  telemetry::write_json_file(manifest_path, doc);

  expect_names_both_versions(refusal([&] { load_manifest(snap.string()); }),
                             manifest_path);
  expect_names_both_versions(
      refusal([&] { validate_snapshot(snap.string()); }), manifest_path);
  const auto scan = find_latest_valid(dir.path);
  EXPECT_FALSE(scan.latest_valid.has_value());
  EXPECT_EQ(scan.rejected.size(), 1u);
}

TEST(Checkpoint, OldShardVersionRefused) {
  const TempDir dir("old_shard");
  CheckpointWriter writer(dir.path, 2);
  commit_synthetic(writer, 1);
  const fs::path snap = fs::path(dir.path) / snapshot_dirname(1);
  const fs::path shard = snap / "m0.v0.t0.shard";
  {
    // The version is the 32-bit word after the 8-byte magic.
    std::fstream f(shard, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t old_version = 1;
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&old_version), sizeof old_version);
    ASSERT_TRUE(f.good());
  }
  expect_names_both_versions(
      refusal([&] { validate_snapshot(snap.string()); }), shard.string());
  // The manifest alone still parses; restoring from it reads the shard and
  // refuses it, so no state is ever filled from the old shard.
  const auto manifest = load_manifest(snap.string());
  const Slice want{0, 0, 2, 3, 0, 4};
  std::vector<cplx> out(want.elems());
  expect_names_both_versions(refusal([&] {
                               restore_slice(snap.string(), manifest, want,
                                             0xfeedbeefu, out);
                             }),
                             shard.string());
  const auto scan = find_latest_valid(dir.path);
  EXPECT_FALSE(scan.latest_valid.has_value());
  EXPECT_EQ(scan.rejected.size(), 1u);
}

TEST(Checkpoint, StagingDirsIgnored) {
  const TempDir dir("staging");
  fs::create_directories(fs::path(dir.path) / "ckpt-00000009.tmp");
  const auto scan = find_latest_valid(dir.path);
  EXPECT_FALSE(scan.latest_valid.has_value());
  EXPECT_TRUE(scan.rejected.empty());
}

TEST(Checkpoint, RanksMustAgreeOnMemberMetadata) {
  const TempDir dir("disagree");
  CheckpointWriter writer(dir.path, 2);
  const Slice a{0, 0, 1, 3, 0, 4};
  writer.add_shard(5, a, synthetic_meta(25), slice_payload(a));
  const Slice b{0, 1, 1, 3, 0, 4};
  MemberMeta wrong = synthetic_meta(25);
  wrong.cmat_fingerprint = 1;
  EXPECT_THROW(writer.add_shard(5, b, wrong, slice_payload(b)),
               CheckpointError);
}

// ---------------------------------------------------------------------------
// Solver round trips

/// Uninterrupted reference run: hash + diagnostics after n intervals.
std::pair<std::uint64_t, Diagnostics> run_uninterrupted(const Input& in,
                                                        int nranks,
                                                        int n_intervals) {
  std::uint64_t hash = 0;
  Diagnostics diag;
  const auto d = Decomposition::choose(in, nranks);
  mpi::run_simulation(net::testbox(1, nranks), nranks, [&](mpi::Proc& p) {
    auto layout = gyro::make_cgyro_layout(p.world(), d);
    Simulation sim(in, d, std::move(layout), p, Mode::kReal);
    sim.initialize();
    Diagnostics local;
    for (int i = 0; i < n_intervals; ++i) local = sim.advance_report_interval();
    const auto h = sim.state_hash();
    if (p.world_rank() == 0) {
      hash = h;
      diag = local;
    }
  });
  return {hash, diag};
}

TEST(CheckpointRoundTrip, CrossDecompositionBitExact) {
  const Input in = Input::small_test(2);
  const auto [full_hash, full_diag] = run_uninterrupted(in, 1, 2);

  // Snapshot after one interval under a 4-rank decomposition…
  const TempDir dir("sim_xdecomp");
  {
    CheckpointWriter writer(dir.path, 4);
    const auto d = Decomposition::choose(in, 4);
    mpi::run_simulation(net::testbox(1, 4), 4, [&](mpi::Proc& p) {
      auto layout = gyro::make_cgyro_layout(p.world(), d);
      Simulation sim(in, d, std::move(layout), p, Mode::kReal);
      sim.initialize();
      sim.advance_report_interval();
      snapshot_rank(writer, 1, sim, 0);
    });
    EXPECT_EQ(writer.snapshots_committed(), 1u);
  }

  // …restore under a single rank and finish the run.
  const auto scan = find_latest_valid(dir.path);
  ASSERT_TRUE(scan.latest_valid.has_value());
  const auto manifest = load_manifest(scan.latest_valid->path);
  std::uint64_t resumed_hash = 0;
  Diagnostics resumed_diag;
  const auto d1 = Decomposition::choose(in, 1);
  mpi::run_simulation(net::testbox(1, 1), 1, [&](mpi::Proc& p) {
    auto layout = gyro::make_cgyro_layout(p.world(), d1);
    Simulation sim(in, d1, std::move(layout), p, Mode::kReal);
    sim.initialize();
    restore_rank(scan.latest_valid->path, manifest, sim, 0);
    resumed_diag = sim.advance_report_interval();
    resumed_hash = sim.state_hash();
  });

  EXPECT_EQ(resumed_hash, full_hash);
  EXPECT_EQ(resumed_diag.steps, full_diag.steps);
  EXPECT_EQ(resumed_diag.phi_rms, full_diag.phi_rms);
  EXPECT_EQ(resumed_diag.flux_proxy, full_diag.flux_proxy);
}

TEST(CheckpointRoundTrip, EnsembleWriteStandaloneRestore) {
  // Snapshot a k=2 ensemble, then finish each member standalone (k=1): the
  // result must match that member's uninterrupted standalone run.
  const Input base = Input::small_test(1);
  const auto ensemble =
      xgyro::EnsembleInput::sweep(base, 2, [](Input& in, int i) {
        in.seed = 7 + i;
        in.tag = "m" + std::to_string(i);
      });

  const TempDir dir("sim_xk");
  {
    CheckpointWriter writer(dir.path, 4);
    const auto d = Decomposition::choose(base, 2, 2);
    mpi::run_simulation(net::testbox(1, 4), 4, [&](mpi::Proc& p) {
      xgyro::EnsembleDriver driver(ensemble, d, p, Mode::kReal,
                                   xgyro::SharingPolicy::kSingleGroup);
      driver.initialize();
      driver.advance_report_interval();
      snapshot_rank(writer, 1, driver.simulation(), driver.sim_index());
    });
  }

  const auto scan = find_latest_valid(dir.path);
  ASSERT_TRUE(scan.latest_valid.has_value());
  const auto manifest = load_manifest(scan.latest_valid->path);
  ASSERT_EQ(manifest.members.size(), 2u);
  for (int m = 0; m < 2; ++m) {
    const auto [want_hash, want_diag] =
        run_uninterrupted(ensemble.members[m], 1, 2);
    std::uint64_t got = 0;
    const auto d1 = Decomposition::choose(ensemble.members[m], 1);
    mpi::run_simulation(net::testbox(1, 1), 1, [&](mpi::Proc& p) {
      auto layout = gyro::make_cgyro_layout(p.world(), d1);
      Simulation sim(ensemble.members[m], d1, std::move(layout), p,
                     Mode::kReal);
      sim.initialize();
      restore_rank(scan.latest_valid->path, manifest, sim, m);
      sim.advance_report_interval();
      got = sim.state_hash();
    });
    EXPECT_EQ(got, want_hash) << "member " << m;
    (void)want_diag;
  }
}

// ---------------------------------------------------------------------------
// Elastic recovery

TEST(ElasticRecovery, SpareNodeKeepsPhysicsBitIdentical) {
  const Input base = Input::small_test(1);
  const auto batch =
      xgyro::EnsembleInput::sweep(base, 2, [](Input& in, int i) {
        in.seed = 3 + i;
        in.tag = "e" + std::to_string(i);
      });
  // 4 nodes x 2 ranks; the job needs 4 ranks, so losing a node leaves
  // enough capacity to keep the decomposition (and hence the physics
  // bit-for-bit).
  const auto machine = net::testbox(4, 2);

  xgyro::JobOptions opts;
  opts.n_report_intervals = 4;
  opts.mode = Mode::kReal;
  opts.max_recoveries = 3;
  const auto clean = xgyro::run_job(batch, machine, 2, opts);
  ASSERT_EQ(clean.diagnostics.size(), 2u);
  EXPECT_TRUE(clean.recoveries.empty());

  const TempDir dir("elastic_spare");
  opts.checkpoint_dir = dir.path;
  opts.faults.seed = 11;
  // Late enough that at least one snapshot has committed, so the recovery
  // resumes instead of restarting from scratch.
  opts.faults.add_kill(1, 0.75 * clean.run.makespan_s);
  const auto faulty = xgyro::run_job(batch, machine, 2, opts);

  ASSERT_EQ(faulty.recoveries.size(), 1u);
  const auto& ev = faulty.recoveries.front();
  EXPECT_EQ(ev.kind, "rank_failure");
  EXPECT_EQ(ev.world_rank, 1);
  EXPECT_EQ(ev.nodes_after, ev.nodes_before - 1);
  EXPECT_EQ(ev.ranks_per_sim_after, 2);
  EXPECT_GE(ev.resumed_interval, 1);
  EXPECT_GT(faulty.snapshots_committed, 0u);
  EXPECT_EQ(faulty.machine.n_nodes, machine.n_nodes - 1);

  // Same decomposition ⇒ the recovered physics is bit-identical.
  for (size_t m = 0; m < 2; ++m) {
    EXPECT_EQ(faulty.diagnostics[m].steps, clean.diagnostics[m].steps);
    EXPECT_EQ(faulty.diagnostics[m].phi_rms, clean.diagnostics[m].phi_rms);
    EXPECT_EQ(faulty.diagnostics[m].flux_proxy,
              clean.diagnostics[m].flux_proxy);
  }
}

TEST(ElasticRecovery, ShrinkReplansToFewerRanksPerSim) {
  const Input in = Input::small_test(1);
  xgyro::EnsembleInput batch;
  batch.members.push_back(in);
  // 2 nodes x 2 ranks, job uses all 4: losing a node forces a smaller
  // decomposition for the survivor.
  const auto machine = net::testbox(2, 2);

  xgyro::JobOptions opts;
  opts.n_report_intervals = 4;
  opts.mode = Mode::kReal;
  opts.max_recoveries = 3;
  opts.cgyro_layout = true;
  const auto clean = xgyro::run_job(batch, machine, 4, opts);

  const TempDir dir("elastic_shrink");
  opts.checkpoint_dir = dir.path;
  opts.faults.seed = 5;
  opts.faults.add_kill(2, 0.75 * clean.run.makespan_s);
  const auto faulty = xgyro::run_job(batch, machine, 4, opts);

  ASSERT_EQ(faulty.recoveries.size(), 1u);
  EXPECT_LT(faulty.recoveries.front().ranks_per_sim_after, 4);
  EXPECT_GE(faulty.recoveries.front().resumed_interval, 1);
  EXPECT_LT(faulty.ranks_per_sim, 4);
  // Different decomposition ⇒ different reduction order; physics agrees to
  // rounding, not bit-for-bit.
  EXPECT_EQ(faulty.diagnostics[0].steps, clean.diagnostics[0].steps);
  EXPECT_NEAR(faulty.diagnostics[0].phi_rms, clean.diagnostics[0].phi_rms,
              1e-10 * clean.diagnostics[0].phi_rms);
}

TEST(ElasticRecovery, ResumeSkipsCompletedIntervals) {
  const Input in = Input::small_test(1);
  xgyro::EnsembleInput batch;
  batch.members.push_back(in);
  const auto machine = net::testbox(1, 2);

  const TempDir dir("elastic_resume");
  xgyro::JobOptions opts;
  opts.n_report_intervals = 2;
  opts.mode = Mode::kReal;
  opts.max_recoveries = 3;
  opts.cgyro_layout = true;
  opts.checkpoint_dir = dir.path;
  const auto first = xgyro::run_job(batch, machine, 2, opts);
  EXPECT_GT(first.snapshots_committed, 0u);

  opts.resume = true;
  const auto second = xgyro::run_job(batch, machine, 2, opts);
  // Everything was already done: no new snapshots, same diagnostics.
  EXPECT_EQ(second.snapshots_committed, 0u);
  EXPECT_EQ(second.diagnostics[0].steps, first.diagnostics[0].steps);
  EXPECT_EQ(second.diagnostics[0].phi_rms, first.diagnostics[0].phi_rms);
}

TEST(ElasticRecovery, ExhaustedRecoveriesRaiseStructuredAbort) {
  const Input in = Input::small_test(1);
  xgyro::EnsembleInput batch;
  batch.members.push_back(in);
  xgyro::JobOptions opts;
  opts.mode = Mode::kReal;
  opts.cgyro_layout = true;
  opts.max_recoveries = 0;
  opts.faults.seed = 1;
  opts.faults.add_kill(0, 1e-9);
  try {
    xgyro::run_job(batch, net::testbox(2, 2), 2, opts);
    FAIL() << "expected JobAborted";
  } catch (const xgyro::JobAborted& e) {
    EXPECT_EQ(e.kind(), "rank_failure");
    EXPECT_EQ(e.reason(), "recovery budget exhausted");
    EXPECT_EQ(e.world_rank(), 0);
    EXPECT_TRUE(e.recoveries().empty());  // budget was zero: nothing recovered
  }
}

TEST(ElasticRecovery, BudgetExhaustedAfterARecoveryKeepsItsHistory) {
  // Two kills, one recovery allowed: the first kill is recovered (rank 0's
  // node dropped, the job replanned and restarted on the survivor), the
  // second fires in the slower retry and exhausts the budget. The abort
  // still carries the recovery that did succeed.
  xgyro::EnsembleInput batch;
  batch.members.push_back(Input::small_test(2));
  batch.members[0].n_steps_per_report = 8;
  const auto machine = net::testbox(2, 4);
  xgyro::JobOptions opts;
  opts.mode = Mode::kReal;
  const double t_clean = xgyro::run_job(batch, machine, 8, opts).run.makespan_s;

  opts.max_recoveries = 1;
  opts.faults.add_kill(0, 0.6 * t_clean);
  opts.faults.add_kill(1, 0.6 * t_clean * 1.01);
  try {
    xgyro::run_job(batch, machine, 8, opts);
    FAIL() << "expected JobAborted";
  } catch (const xgyro::JobAborted& e) {
    EXPECT_EQ(e.kind(), "rank_failure");
    EXPECT_EQ(e.reason(), "recovery budget exhausted");
    EXPECT_EQ(e.world_rank(), 1);
    ASSERT_EQ(e.recoveries().size(), 1u);
    EXPECT_EQ(e.recoveries()[0].kind, "rank_failure");
    EXPECT_EQ(e.recoveries()[0].world_rank, 0);
  }
}

TEST(ElasticRecovery, CheckpointingRequiresRealMode) {
  // Model mode carries no solver state, so there is nothing to snapshot.
  const TempDir dir("elastic_model");
  xgyro::JobOptions opts;
  opts.mode = Mode::kModel;
  opts.max_recoveries = 3;
  opts.checkpoint_dir = dir.path;
  const xgyro::EnsembleInput batch{{Input::small_test(1)}};
  EXPECT_THROW(xgyro::run_job(batch, net::testbox(1, 2), 2, opts), Error);
}

size_t count_of(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(ElasticRecovery, DeadlockAbortCarriesEveryBlockedRank) {
  // A hung rank stalls its peers: the JobAborted keeps the runtime's whole
  // report (every blocked rank, not only the first) and appends it to
  // what(), after the one-line summary.
  xgyro::JobOptions opts;
  opts.mode = Mode::kReal;
  opts.faults = mpi::FaultPlan::parse("seed=1;hang=1@1e-9");
  try {
    xgyro::run_cgyro_job(Input::small_test(1), net::testbox(1, 4), 4, opts);
    FAIL() << "expected JobAborted";
  } catch (const xgyro::JobAborted& e) {
    EXPECT_EQ(e.kind(), "deadlock");
    EXPECT_EQ(e.report().rfind("simmpi: virtual schedule is stuck", 0), 0u);
    EXPECT_EQ(count_of(e.report(), "\n  rank "), 4u);
    EXPECT_NE(e.report().find("\n  rank 1: "), std::string::npos);
    EXPECT_EQ(std::string(e.what()), e.summary(e.reason()) + "\n" + e.report());
    EXPECT_NE(e.summary("recovery not enabled").find("recovery not enabled"),
              std::string::npos);
  }
}

TEST(ElasticRecovery, DeadlockAbortNamesTheHungRank) {
  // Every rank ends up blocked: the hung one in 'coll', its peers stalled
  // behind it in 'report'. The abort names the rank the hang clause parked,
  // with its own clock and phase, not the lowest blocked rank.
  for (const int hung : {1, 2}) {
    xgyro::JobOptions opts;
    opts.mode = Mode::kReal;
    opts.faults =
        mpi::FaultPlan::parse(strprintf("seed=1;hang=%d@0.0005", hung));
    try {
      xgyro::run_cgyro_job(Input::small_test(1), net::testbox(1, 4), 4, opts);
      FAIL() << "expected JobAborted";
    } catch (const xgyro::JobAborted& e) {
      EXPECT_EQ(e.kind(), "deadlock");
      EXPECT_EQ(e.world_rank(), hung);
      EXPECT_EQ(e.phase(), "coll");
      EXPECT_EQ(count_of(e.report(), "\n  rank "), 4u);
    }
  }
}

TEST(ElasticRecovery, DeadlockAbortMessageCountsTheBlockedRanks) {
  // what() carries the runtime's report: a "N rank(s) blocked" count that
  // matches its per-rank lines, the hung rank 0 among them.
  xgyro::JobOptions opts;
  opts.mode = Mode::kReal;
  opts.faults = mpi::FaultPlan::parse("seed=1;hang=0@1e-9");
  try {
    xgyro::run_job(xgyro::EnsembleInput{{Input::small_test(1)}},
                   net::testbox(1, 4), 4, opts);
    FAIL() << "expected JobAborted";
  } catch (const xgyro::JobAborted& e) {
    EXPECT_EQ(e.kind(), "deadlock");
    const std::string message = e.what();
    const size_t blocked = count_of(message, "\n  rank ");
    EXPECT_GE(blocked, 1u);
    EXPECT_NE(message.find(strprintf("%zu rank(s) blocked", blocked)),
              std::string::npos);
    EXPECT_NE(message.find("\n  rank 0: "), std::string::npos);
  }
}

TEST(ElasticRecovery, HangIsTransientLikeAKill) {
  // The retry after a deadlock runs without the hang clauses, so one
  // recovery brings the job to the clean run's result.
  const xgyro::EnsembleInput batch{{Input::small_test(1)}};
  xgyro::JobOptions opts;
  opts.mode = Mode::kReal;
  opts.max_recoveries = 3;
  opts.cgyro_layout = true;
  const auto clean = xgyro::run_job(batch, net::testbox(1, 2), 2, opts);
  opts.max_recoveries = 1;
  opts.faults = mpi::FaultPlan::parse("seed=1;hang=1@1e-9");
  const auto recovered = xgyro::run_job(batch, net::testbox(1, 2), 2, opts);
  ASSERT_EQ(recovered.recoveries.size(), 1u);
  EXPECT_EQ(recovered.recoveries[0].kind, "deadlock");
  EXPECT_EQ(recovered.diagnostics[0].flux_proxy, clean.diagnostics[0].flux_proxy);
  EXPECT_EQ(recovered.diagnostics[0].free_energy,
            clean.diagnostics[0].free_energy);
}

TEST(ElasticRecovery, PlainJobAbortsOnFirstKill) {
  // The CGYRO/XGYRO job drivers allow no recovery: a kill ends the job as a
  // JobAborted naming the rank, its virtual time and the solver phase.
  xgyro::JobOptions opts;
  opts.mode = Mode::kReal;
  opts.faults.add_kill(1, 1e-9);
  try {
    xgyro::run_cgyro_job(Input::small_test(1), net::testbox(1, 2), 2, opts);
    FAIL() << "expected JobAborted";
  } catch (const xgyro::JobAborted& e) {
    EXPECT_EQ(e.kind(), "rank_failure");
    EXPECT_EQ(e.world_rank(), 1);
    EXPECT_GT(e.virtual_time_s(), 0.0);
    EXPECT_FALSE(e.phase().empty());
  }
}

// ---------------------------------------------------------------------------
// Schedule perturbation: host scheduling moves no byte of a snapshot, no
// recovery and no RunResult bit.

/// Every file under `dir`, by path relative to it, with its bytes.
std::map<std::string, std::string> files_under(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    out[fs::relative(entry.path(), dir).string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return out;
}

xgyro::EnsembleInput two_member_batch() {
  return xgyro::EnsembleInput::sweep(Input::small_test(1), 2,
                                     [](Input& in, int i) {
                                       in.seed = 3 + i;
                                       in.tag = "e" + std::to_string(i);
                                     });
}

/// A k = 2 real-mode job, 2 ranks per member on 4 nodes x 2 ranks, with a
/// snapshot every interval into a fresh `dir_name` (one per test: ctest
/// runs tests in parallel). `kill_at` > 0 kills rank 1 then, and one
/// recovery on the surviving nodes is allowed.
struct CheckpointedRun {
  /// RunResult digest, diagnostics bits, recoveries and counters, readable
  /// so a mismatch shows which part moved.
  std::string summary;
  std::size_t recoveries = 0;
  std::map<std::string, std::string> files;  ///< the checkpoint directory
};

CheckpointedRun run_checkpointed(const std::string& dir_name, double kill_at,
                                 std::uint64_t schedule_seed) {
  const TempDir dir(dir_name);
  xgyro::JobOptions opts;
  opts.mode = Mode::kReal;
  opts.n_report_intervals = 4;
  opts.checkpoint_dir = dir.path;
  opts.schedule_seed = schedule_seed;
  if (kill_at > 0.0) {
    opts.max_recoveries = 1;
    opts.faults.seed = 11;
    opts.faults.add_kill(1, kill_at);
  }
  const auto res = xgyro::run_job(two_member_batch(), net::testbox(4, 2), 2,
                                  opts);
  std::string summary =
      strprintf("run %016llx\n", static_cast<unsigned long long>(
                                     testing::run_digest(res.run)));
  for (const auto& d : res.diagnostics) {
    summary += strprintf("diag %d %a %a %a %a\n", d.steps, d.time, d.phi_rms,
                         d.flux_proxy, d.free_energy);
  }
  for (const auto& ev : res.recoveries) {
    summary += strprintf(
        "recovery %s rank=%d t=%a phase=%s resumed=%lld nodes=%d->%d "
        "ranks_per_sim=%d->%d\n",
        ev.kind.c_str(), ev.world_rank, ev.virtual_time_s, ev.phase.c_str(),
        static_cast<long long>(ev.resumed_interval), ev.nodes_before,
        ev.nodes_after, ev.ranks_per_sim_before, ev.ranks_per_sim_after);
  }
  summary += strprintf(
      "snapshots committed=%llu rejected=%llu; final %d ranks/sim on %d "
      "nodes\n",
      static_cast<unsigned long long>(res.snapshots_committed),
      static_cast<unsigned long long>(res.snapshots_rejected),
      res.ranks_per_sim, res.machine.n_nodes);
  return {summary, res.recoveries.size(), files_under(dir.path)};
}

TEST(Checkpoint, ManifestBytesIndependentOfSchedule) {
  // Ranks reach the writer in host order; the manifest lists shards in
  // slice order, so every schedule writes the same bytes.
  const auto want = run_checkpointed("schedule_manifest", 0.0, 0).files;
  ASSERT_TRUE(want.count("ckpt-00000004/manifest.json"));
  for (std::uint64_t seed = 1; seed <= testing::kScheduleSeeds; ++seed) {
    const auto got = run_checkpointed("schedule_manifest", 0.0, seed).files;
    for (const char* m : {"ckpt-00000003/manifest.json",
                          "ckpt-00000004/manifest.json"}) {
      ASSERT_TRUE(got.count(m)) << m << " schedule_seed=" << seed;
      EXPECT_EQ(got.at(m), want.at(m)) << m << " schedule_seed=" << seed;
    }
  }
}

TEST(SchedulePerturbation, RecoveredKillBitIdenticalUnderEverySeed) {
  xgyro::JobOptions clean;
  clean.mode = Mode::kReal;
  clean.n_report_intervals = 4;
  const double makespan =
      xgyro::run_job(two_member_batch(), net::testbox(4, 2), 2, clean)
          .run.makespan_s;
  // Late enough that a snapshot has committed, so the recovery resumes.
  const auto want = run_checkpointed("schedule_kill", 0.75 * makespan, 0);
  ASSERT_EQ(want.recoveries, 1u);
  ASSERT_FALSE(want.files.empty());
  for (std::uint64_t seed = 1; seed <= testing::kScheduleSeeds; ++seed) {
    const auto got = run_checkpointed("schedule_kill", 0.75 * makespan, seed);
    EXPECT_EQ(got.summary, want.summary) << "schedule_seed=" << seed;
    EXPECT_TRUE(got.files == want.files) << "schedule_seed=" << seed;
  }
}

}  // namespace
}  // namespace xg::ckpt
