#include "simmpi/invariant.hpp"

#include "util/format.hpp"

namespace xg::mpi {

namespace {

std::string describe(std::uint64_t context, std::uint64_t seq,
                     std::string_view label) {
  return strprintf("collective (comm '%.*s' ctx=%016llx seq=%llu)",
                   static_cast<int>(label.size()), label.data(),
                   static_cast<unsigned long long>(context),
                   static_cast<unsigned long long>(seq));
}

}  // namespace

std::size_t InvariantMonitor::shard_of(std::uint64_t context,
                                       std::uint64_t seq) {
  // Fibonacci hashing: consecutive sequence numbers spread over the shards.
  const std::uint64_t h = (context ^ seq) * 0x9e3779b97f4a7c15ULL;
  return static_cast<std::size_t>(h >> 32) % kShards;
}

void InvariantMonitor::observe(const Report& r) {
  Shard& shard = shards_[shard_of(r.context, r.seq)];
  const std::scoped_lock lock(shard.mu);
  const std::pair<std::uint64_t, std::uint64_t> key{r.context, r.seq};
  auto it = shard.inflight.find(key);
  if (it == shard.inflight.end()) {
    Inflight rec;
    rec.kind = r.kind;
    rec.alg = r.alg;
    rec.participants = r.participants;
    rec.payload_bytes = r.payload_bytes;
    rec.has_hash = r.has_hash;
    rec.result_hash = r.result_hash;
    rec.first_rank = r.world_rank;
    rec.count = 1;
    rec.comm_label = r.comm_label;
    if (rec.count == rec.participants) {
      ++shard.completed;
    } else {
      shard.inflight.emplace(key, std::move(rec));
    }
    return;
  }
  Inflight& rec = it->second;
  const auto where = [&r] {
    return describe(r.context, r.seq, r.comm_label);
  };
  if (rec.kind != r.kind) {
    throw InvariantViolation(strprintf(
        "invariant violation: %s: rank %d entered %s but rank %d entered %s "
        "at the same sequence number — members disagree on the collective "
        "schedule",
        where().c_str(), rec.first_rank, trace_kind_name(rec.kind),
        r.world_rank, trace_kind_name(r.kind)));
  }
  if (rec.alg != r.alg) {
    throw InvariantViolation(strprintf(
        "invariant violation: %s (%s): rank %d ran algorithm '%s' but rank %d "
        "ran '%s' — members resolved the selector differently",
        where().c_str(), trace_kind_name(rec.kind), rec.first_rank,
        coll_alg_name(rec.alg), r.world_rank, coll_alg_name(r.alg)));
  }
  if (rec.participants != r.participants) {
    throw InvariantViolation(strprintf(
        "invariant violation: %s (%s): rank %d sees %d participants but rank "
        "%d sees %d",
        where().c_str(), trace_kind_name(rec.kind), rec.first_rank,
        rec.participants, r.world_rank, r.participants));
  }
  if (rec.payload_bytes != r.payload_bytes) {
    throw InvariantViolation(strprintf(
        "invariant violation: %s (%s): rank %d passed %llu payload bytes but "
        "rank %d passed %llu",
        where().c_str(), trace_kind_name(rec.kind), rec.first_rank,
        static_cast<unsigned long long>(rec.payload_bytes), r.world_rank,
        static_cast<unsigned long long>(r.payload_bytes)));
  }
  if (rec.has_hash && r.has_hash && rec.result_hash != r.result_hash) {
    throw InvariantViolation(strprintf(
        "invariant violation: %s (%s): result buffers are not bitwise "
        "identical across members — rank %d has hash %016llx, rank %d has "
        "%016llx",
        where().c_str(), trace_kind_name(rec.kind), rec.first_rank,
        static_cast<unsigned long long>(rec.result_hash), r.world_rank,
        static_cast<unsigned long long>(r.result_hash)));
  }
  rec.has_hash = rec.has_hash && r.has_hash;
  rec.count += 1;
  if (rec.count == rec.participants) {
    shard.inflight.erase(it);
    ++shard.completed;
  }
}

void InvariantMonitor::final_check() const {
  std::size_t incomplete = 0;
  const decltype(Shard::inflight)::value_type* first = nullptr;
  std::array<std::unique_lock<std::mutex>, kShards> locks;
  for (std::size_t i = 0; i < kShards; ++i) {
    const Shard& shard = shards_[i];
    locks[i] = std::unique_lock(shard.mu);
    incomplete += shard.inflight.size();
    if (!shard.inflight.empty() &&
        (first == nullptr || shard.inflight.begin()->first < first->first)) {
      first = &*shard.inflight.begin();
    }
  }
  if (first == nullptr) return;
  const auto& [key, rec] = *first;
  throw InvariantViolation(strprintf(
      "invariant violation: run finished with %zu incomplete collective(s); "
      "first: %s (%s) observed by %d of %d members — some members skipped it",
      incomplete, describe(key.first, key.second, rec.comm_label).c_str(),
      trace_kind_name(rec.kind), rec.count, rec.participants));
}

std::uint64_t InvariantMonitor::completed() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    const std::scoped_lock lock(shard.mu);
    total += shard.completed;
  }
  return total;
}

}  // namespace xg::mpi
