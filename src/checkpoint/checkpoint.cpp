#include "checkpoint/checkpoint.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <tuple>

#include "gyro/simulation.hpp"
#include "telemetry/json.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"

namespace xg::ckpt {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kShardMagic = 0x3130545048434758ull;  // "XGCKPT01"

/// Fixed 64-byte shard header; explicit padding keeps the on-disk bytes
/// deterministic across compilers.
struct ShardHeader {
  std::uint64_t magic = kShardMagic;
  std::uint32_t version = kFormatVersion;
  std::int32_t member = 0;
  std::int32_t iv0 = 0, nv_loc = 0, nc = 0, it0 = 0, nt_loc = 0;
  std::uint32_t pad = 0;
  std::int64_t steps = 0;
  std::uint64_t cmat_fingerprint = 0;
  std::uint64_t payload_hash = 0;
};
static_assert(sizeof(ShardHeader) == 64, "shard header must be packed");

std::uint64_t hash_payload(std::span<const cplx> data) {
  return word_digest(data.data(), data.size_bytes());
}

std::uint64_t parse_hex64(const std::string& s, const std::string& what) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 16);
  if (s.empty() || end == nullptr || *end != '\0') {
    throw CheckpointError(strprintf("checkpoint: bad hex value '%s' for %s",
                                    s.c_str(), what.c_str()));
  }
  return v;
}

std::string shard_filename(const Slice& s) {
  return strprintf("m%d.v%d.t%d.shard", s.member, s.iv0, s.it0);
}

void write_shard_file(const std::string& path, const ShardHeader& hd,
                      std::span<const cplx> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw CheckpointError(
        strprintf("checkpoint: cannot open '%s' for writing", path.c_str()));
  }
  out.write(reinterpret_cast<const char*>(&hd), sizeof hd);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size_bytes()));
  if (!out) {
    throw CheckpointError(strprintf("checkpoint: short write to '%s'",
                                    path.c_str()));
  }
}

/// Read and verify one shard file against its manifest entry; returns the
/// payload. Every failure mode is a CheckpointError naming the file.
std::vector<cplx> read_shard_file(const std::string& path,
                                  const ShardInfo& info) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError(strprintf("checkpoint: missing shard '%s'",
                                    path.c_str()));
  }
  ShardHeader hd;
  in.read(reinterpret_cast<char*>(&hd), sizeof hd);
  if (!in) {
    throw CheckpointError(strprintf("checkpoint: truncated header in '%s'",
                                    path.c_str()));
  }
  if (hd.magic != kShardMagic) {
    throw CheckpointError(strprintf("checkpoint: '%s' is not a shard file",
                                    path.c_str()));
  }
  if (hd.version != static_cast<std::uint32_t>(kFormatVersion)) {
    throw CheckpointError(strprintf(
        "checkpoint: '%s': unsupported shard version %u (this build reads "
        "version %d)",
        path.c_str(), hd.version, kFormatVersion));
  }
  const Slice& s = info.slice;
  if (hd.member != s.member || hd.iv0 != s.iv0 || hd.nv_loc != s.nv_loc ||
      hd.nc != s.nc || hd.it0 != s.it0 || hd.nt_loc != s.nt_loc ||
      hd.steps != info.steps || hd.payload_hash != info.payload_hash) {
    throw CheckpointError(strprintf(
        "checkpoint: '%s': header disagrees with manifest", path.c_str()));
  }
  std::vector<cplx> payload(s.elems());
  in.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(payload.size() * sizeof(cplx)));
  if (!in || in.gcount() !=
                 static_cast<std::streamsize>(payload.size() * sizeof(cplx))) {
    throw CheckpointError(strprintf("checkpoint: truncated payload in '%s'",
                                    path.c_str()));
  }
  if (hash_payload(payload) != info.payload_hash) {
    throw CheckpointError(strprintf(
        "checkpoint: payload hash mismatch in '%s' (corrupt shard)",
        path.c_str()));
  }
  return payload;
}

telemetry::Json manifest_to_json(const Manifest& man) {
  using telemetry::Json;
  Json members = Json::array();
  for (const auto& m : man.members) {
    members.push(Json::object()
                     .set("tag", Json(m.tag))
                     .set("cmat_fingerprint", Json(hex64(m.cmat_fingerprint)))
                     .set("nv", Json(m.nv))
                     .set("nc", Json(m.nc))
                     .set("nt", Json(m.nt))
                     .set("steps", Json(m.steps)));
  }
  Json shards = Json::array();
  for (const auto& s : man.shards) {
    shards.push(Json::object()
                    .set("file", Json(s.file))
                    .set("member", Json(s.slice.member))
                    .set("iv0", Json(s.slice.iv0))
                    .set("nv_loc", Json(s.slice.nv_loc))
                    .set("nc", Json(s.slice.nc))
                    .set("it0", Json(s.slice.it0))
                    .set("nt_loc", Json(s.slice.nt_loc))
                    .set("steps", Json(s.steps))
                    .set("payload_bytes", Json(s.payload_bytes))
                    .set("payload_hash", Json(hex64(s.payload_hash))));
  }
  return Json::object()
      .set("schema", Json("xgyro.checkpoint"))
      .set("schema_version", Json(kFormatVersion))
      .set("interval", Json(man.interval))
      .set("members", std::move(members))
      .set("shards", std::move(shards));
}

Manifest manifest_from_json(const telemetry::Json& doc,
                            const std::string& path) {
  const auto* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "xgyro.checkpoint") {
    throw CheckpointError(strprintf(
        "checkpoint: %s: missing or wrong 'schema'", path.c_str()));
  }
  const std::int64_t version = doc.at("schema_version").as_int();
  if (version != kFormatVersion) {
    throw CheckpointError(strprintf(
        "checkpoint: %s: unsupported schema_version %lld (this build reads "
        "version %d)",
        path.c_str(), static_cast<long long>(version), kFormatVersion));
  }
  Manifest man;
  man.interval = doc.at("interval").as_int();
  for (const auto& m : doc.at("members").elems()) {
    MemberMeta meta;
    meta.tag = m.at("tag").as_string();
    meta.cmat_fingerprint =
        parse_hex64(m.at("cmat_fingerprint").as_string(), "cmat_fingerprint");
    meta.nv = static_cast<int>(m.at("nv").as_int());
    meta.nc = static_cast<int>(m.at("nc").as_int());
    meta.nt = static_cast<int>(m.at("nt").as_int());
    meta.steps = m.at("steps").as_int();
    man.members.push_back(std::move(meta));
  }
  for (const auto& s : doc.at("shards").elems()) {
    ShardInfo info;
    info.file = s.at("file").as_string();
    info.slice.member = static_cast<int>(s.at("member").as_int());
    info.slice.iv0 = static_cast<int>(s.at("iv0").as_int());
    info.slice.nv_loc = static_cast<int>(s.at("nv_loc").as_int());
    info.slice.nc = static_cast<int>(s.at("nc").as_int());
    info.slice.it0 = static_cast<int>(s.at("it0").as_int());
    info.slice.nt_loc = static_cast<int>(s.at("nt_loc").as_int());
    info.steps = s.at("steps").as_int();
    info.payload_bytes =
        static_cast<std::uint64_t>(s.at("payload_bytes").as_int());
    info.payload_hash = parse_hex64(s.at("payload_hash").as_string(),
                                    "payload_hash");
    man.shards.push_back(std::move(info));
  }
  if (man.shards.empty()) {
    throw CheckpointError(strprintf("checkpoint: %s: no shards",
                                    path.c_str()));
  }
  return man;
}

/// Parse "ckpt-<digits>"; nullopt for anything else (including *.tmp).
std::optional<std::int64_t> parse_snapshot_name(const std::string& name) {
  constexpr std::string_view prefix = "ckpt-";
  if (name.rfind(prefix, 0) != 0) return std::nullopt;
  const std::string digits = name.substr(prefix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(std::strtoll(digits.c_str(), nullptr, 10));
}

}  // namespace

std::string snapshot_dirname(std::int64_t interval) {
  return strprintf("ckpt-%08lld", static_cast<long long>(interval));
}

// --- writer -----------------------------------------------------------------

struct CheckpointWriter::Pending {
  int registered = 0;
  Manifest manifest;
};

struct CheckpointWriter::Impl {
  std::string dir;
  int n_ranks = 0;
  std::mutex mu;
  std::uint64_t committed = 0;
  std::map<std::int64_t, Pending> pending;
};

CheckpointWriter::CheckpointWriter(std::string dir, int n_ranks)
    : impl_(std::make_shared<Impl>()), dir_(dir) {
  XG_REQUIRE(n_ranks >= 1, "CheckpointWriter: need at least one rank");
  impl_->dir = dir;
  impl_->n_ranks = n_ranks;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw CheckpointError(strprintf(
        "checkpoint: cannot create directory '%s': %s", dir.c_str(),
        ec.message().c_str()));
  }
  // Stale staging dirs are aborted commits from a failed attempt; a fresh
  // writer (new attempt, possibly a different rank count) supersedes them.
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_directory() && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".tmp") == 0) {
      fs::remove_all(entry.path(), ec);
    }
  }
}

bool CheckpointWriter::add_shard(std::int64_t interval, const Slice& slice,
                                 const MemberMeta& meta,
                                 std::span<const cplx> data) {
  XG_REQUIRE(data.size() == slice.elems(),
             "CheckpointWriter: slice/data size mismatch");
  if (slice.member < 0) {
    throw CheckpointError("checkpoint: negative member index");
  }
  const std::string tmp =
      impl_->dir + "/" + snapshot_dirname(interval) + ".tmp";
  {
    // The first rank to reach an interval stages its directory; every rank
    // checks its member's metadata against the first report of it.
    const std::scoped_lock lock(impl_->mu);
    const auto [it, first] = impl_->pending.try_emplace(interval);
    Pending& p = it->second;
    if (first) {
      std::error_code ec;
      fs::remove_all(tmp, ec);  // leftovers from an aborted identical interval
      fs::create_directories(tmp, ec);
      if (ec) {
        impl_->pending.erase(it);
        throw CheckpointError(strprintf(
            "checkpoint: cannot create staging dir '%s': %s", tmp.c_str(),
            ec.message().c_str()));
      }
      p.manifest.interval = interval;
    }
    auto& members = p.manifest.members;
    if (static_cast<size_t>(slice.member) >= members.size()) {
      members.resize(static_cast<size_t>(slice.member) + 1);
    }
    auto& existing = members[static_cast<size_t>(slice.member)];
    if (existing.nv == 0) {
      existing = meta;
    } else if (existing.cmat_fingerprint != meta.cmat_fingerprint ||
               existing.nv != meta.nv || existing.nc != meta.nc ||
               existing.nt != meta.nt || existing.steps != meta.steps) {
      throw CheckpointError(strprintf(
          "checkpoint: ranks disagree on member %d metadata at interval %lld",
          slice.member, static_cast<long long>(interval)));
    }
  }

  // Hash and write outside the lock, so the ranks' shards go to disk
  // concurrently.
  ShardInfo info;
  info.file = shard_filename(slice);
  info.slice = slice;
  info.steps = meta.steps;
  info.payload_bytes = slice.elems() * sizeof(cplx);
  info.payload_hash = hash_payload(data);

  ShardHeader hd;
  hd.member = slice.member;
  hd.iv0 = slice.iv0;
  hd.nv_loc = slice.nv_loc;
  hd.nc = slice.nc;
  hd.it0 = slice.it0;
  hd.nt_loc = slice.nt_loc;
  hd.steps = meta.steps;
  hd.cmat_fingerprint = meta.cmat_fingerprint;
  hd.payload_hash = info.payload_hash;
  write_shard_file(tmp + "/" + info.file, hd, data);

  const std::scoped_lock lock(impl_->mu);
  Pending& p = impl_->pending.at(interval);
  p.manifest.shards.push_back(std::move(info));
  if (++p.registered < impl_->n_ranks) return false;

  // Ranks register in host order; list the shards in slice order so the
  // manifest's bytes do not depend on the schedule.
  std::sort(p.manifest.shards.begin(), p.manifest.shards.end(),
            [](const ShardInfo& a, const ShardInfo& b) {
              return std::tie(a.slice.member, a.slice.iv0, a.slice.it0) <
                     std::tie(b.slice.member, b.slice.iv0, b.slice.it0);
            });
  // Last registrant commits: manifest written last, then one atomic rename
  // flips the whole snapshot from invisible to valid.
  telemetry::write_json_file(tmp + "/manifest.json",
                             manifest_to_json(p.manifest));
  const std::string final_path =
      impl_->dir + "/" + snapshot_dirname(interval);
  std::error_code ec;
  fs::remove_all(final_path, ec);  // e.g. re-running over a corrupt snapshot
  fs::rename(tmp, final_path, ec);
  if (ec) {
    throw CheckpointError(strprintf(
        "checkpoint: cannot commit '%s': %s", final_path.c_str(),
        ec.message().c_str()));
  }
  impl_->pending.erase(interval);
  ++impl_->committed;

  // Prune: keep the newest kKeepLast committed snapshots.
  std::vector<std::pair<std::int64_t, fs::path>> committed;
  for (const auto& entry : fs::directory_iterator(impl_->dir)) {
    if (!entry.is_directory()) continue;
    if (const auto n = parse_snapshot_name(entry.path().filename().string())) {
      committed.emplace_back(*n, entry.path());
    }
  }
  std::sort(committed.begin(), committed.end());
  while (committed.size() > static_cast<size_t>(kKeepLast)) {
    fs::remove_all(committed.front().second, ec);
    committed.erase(committed.begin());
  }
  return true;
}

std::uint64_t CheckpointWriter::snapshots_committed() const {
  const std::scoped_lock lock(impl_->mu);
  return impl_->committed;
}

// --- reader -----------------------------------------------------------------

Manifest load_manifest(const std::string& snapshot_path) {
  const std::string path = snapshot_path + "/manifest.json";
  telemetry::Json doc;
  try {
    doc = telemetry::load_json_file(path);
  } catch (const Error& e) {
    throw CheckpointError(strprintf("checkpoint: %s: %s", path.c_str(),
                                    e.what()));
  }
  try {
    return manifest_from_json(doc, path);
  } catch (const CheckpointError&) {
    throw;
  } catch (const Error& e) {
    throw CheckpointError(strprintf("checkpoint: %s: malformed manifest: %s",
                                    path.c_str(), e.what()));
  }
}

Manifest validate_snapshot(const std::string& snapshot_path) {
  const Manifest man = load_manifest(snapshot_path);
  // Per-member coverage accounting: a valid snapshot tiles each member's
  // global state exactly (shards never overlap by construction).
  std::vector<std::uint64_t> covered(man.members.size(), 0);
  for (const auto& info : man.shards) {
    const Slice& s = info.slice;
    if (s.member < 0 ||
        static_cast<size_t>(s.member) >= man.members.size()) {
      throw CheckpointError(strprintf(
          "checkpoint: %s: shard '%s' references unknown member %d",
          snapshot_path.c_str(), info.file.c_str(), s.member));
    }
    const MemberMeta& meta = man.members[static_cast<size_t>(s.member)];
    if (s.nc != meta.nc || s.iv0 < 0 || s.iv0 + s.nv_loc > meta.nv ||
        s.it0 < 0 || s.it0 + s.nt_loc > meta.nt) {
      throw CheckpointError(strprintf(
          "checkpoint: %s: shard '%s' ranges exceed member %d grid",
          snapshot_path.c_str(), info.file.c_str(), s.member));
    }
    (void)read_shard_file(snapshot_path + "/" + info.file, info);
    covered[static_cast<size_t>(s.member)] += s.elems();
  }
  for (size_t m = 0; m < man.members.size(); ++m) {
    const auto& meta = man.members[m];
    const auto want = static_cast<std::uint64_t>(meta.nv) * meta.nc * meta.nt;
    if (covered[m] != want) {
      throw CheckpointError(strprintf(
          "checkpoint: %s: member %zu covered by %llu of %llu elements",
          snapshot_path.c_str(), m,
          static_cast<unsigned long long>(covered[m]),
          static_cast<unsigned long long>(want)));
    }
  }
  return man;
}

ScanResult find_latest_valid(const std::string& dir) {
  ScanResult result;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return result;

  std::vector<std::pair<std::int64_t, std::string>> candidates;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_directory()) continue;
    if (const auto n = parse_snapshot_name(entry.path().filename().string())) {
      candidates.emplace_back(*n, entry.path().string());
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  for (const auto& [interval, path] : candidates) {
    try {
      result.latest_valid =
          SnapshotRef{path, interval, validate_snapshot(path)};
      break;
    } catch (const Error& e) {
      result.rejected.push_back(strprintf("%s: %s", path.c_str(), e.what()));
    }
  }
  return result;
}

std::int64_t restore_slice(const std::string& snapshot_path,
                           const Manifest& manifest, const Slice& want,
                           std::uint64_t expect_cmat_fingerprint,
                           std::span<cplx> out) {
  if (want.member < 0 ||
      static_cast<size_t>(want.member) >= manifest.members.size()) {
    throw CheckpointError(strprintf(
        "checkpoint: %s has no member %d", snapshot_path.c_str(),
        want.member));
  }
  const MemberMeta& meta =
      manifest.members[static_cast<size_t>(want.member)];
  if (meta.cmat_fingerprint != expect_cmat_fingerprint) {
    throw CheckpointError(strprintf(
        "checkpoint: %s: member %d cmat fingerprint mismatch — the snapshot "
        "came from a physically different configuration",
        snapshot_path.c_str(), want.member));
  }
  if (want.nc != meta.nc || want.iv0 + want.nv_loc > meta.nv ||
      want.it0 + want.nt_loc > meta.nt) {
    throw CheckpointError(strprintf(
        "checkpoint: %s: member %d grid is (nv=%d nc=%d nt=%d); requested "
        "slice iv0=%d+%d nc=%d it0=%d+%d does not fit",
        snapshot_path.c_str(), want.member, meta.nv, meta.nc, meta.nt,
        want.iv0, want.nv_loc, want.nc, want.it0, want.nt_loc));
  }
  XG_REQUIRE(out.size() == want.elems(),
             "restore_slice: output span size mismatch");

  std::uint64_t covered = 0;
  for (const auto& info : manifest.shards) {
    const Slice& s = info.slice;
    if (s.member != want.member) continue;
    const int iv_lo = std::max(s.iv0, want.iv0);
    const int iv_hi = std::min(s.iv0 + s.nv_loc, want.iv0 + want.nv_loc);
    const int it_lo = std::max(s.it0, want.it0);
    const int it_hi = std::min(s.it0 + s.nt_loc, want.it0 + want.nt_loc);
    if (iv_lo >= iv_hi || it_lo >= it_hi) continue;

    const std::vector<cplx> payload =
        read_shard_file(snapshot_path + "/" + info.file, info);
    for (int iv = iv_lo; iv < iv_hi; ++iv) {
      for (int ic = 0; ic < want.nc; ++ic) {
        const size_t src_row =
            (static_cast<size_t>(iv - s.iv0) * s.nc + ic) * s.nt_loc;
        const size_t dst_row =
            (static_cast<size_t>(iv - want.iv0) * want.nc + ic) * want.nt_loc;
        for (int it = it_lo; it < it_hi; ++it) {
          out[dst_row + (it - want.it0)] = payload[src_row + (it - s.it0)];
        }
      }
    }
    covered += static_cast<std::uint64_t>(iv_hi - iv_lo) * want.nc *
               (it_hi - it_lo);
  }
  if (covered != want.elems()) {
    throw CheckpointError(strprintf(
        "checkpoint: %s: member %d slice only %llu of %llu elements covered "
        "by shards",
        snapshot_path.c_str(), want.member,
        static_cast<unsigned long long>(covered),
        static_cast<unsigned long long>(want.elems())));
  }
  return meta.steps;
}

// --- solver glue ------------------------------------------------------------

Slice slice_of(const gyro::Simulation& sim, int member) {
  Slice s;
  s.member = member;
  s.iv0 = sim.iv_global_offset();
  s.nv_loc = sim.nv_loc();
  s.nc = sim.input().nc();
  s.it0 = sim.it_global_offset();
  s.nt_loc = sim.nt_loc();
  return s;
}

MemberMeta meta_of(const gyro::Simulation& sim) {
  MemberMeta m;
  m.tag = sim.input().tag;
  m.cmat_fingerprint = sim.input_cmat_fingerprint();
  m.nv = sim.input().nv();
  m.nc = sim.input().nc();
  m.nt = sim.input().nt();
  m.steps = sim.steps_taken();
  return m;
}

bool snapshot_rank(CheckpointWriter& writer, std::int64_t interval,
                   const gyro::Simulation& sim, int member) {
  XG_REQUIRE(sim.mode() == gyro::Mode::kReal,
             "checkpoint: real mode only (model mode carries no state)");
  return writer.add_shard(interval, slice_of(sim, member), meta_of(sim),
                          sim.state_data());
}

void restore_rank(const std::string& snapshot_path, const Manifest& manifest,
                  gyro::Simulation& sim, int member) {
  XG_REQUIRE(sim.mode() == gyro::Mode::kReal,
             "checkpoint: real mode only (model mode carries no state)");
  const Slice want = slice_of(sim, member);
  const std::int64_t steps =
      restore_slice(snapshot_path, manifest, want,
                    sim.input_cmat_fingerprint(), sim.state_data_mutable());
  sim.set_steps_taken(static_cast<int>(steps));
}

}  // namespace xg::ckpt
