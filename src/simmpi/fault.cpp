#include "simmpi/fault.hpp"

#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace xg::mpi {

namespace {

/// Split "AxB" (or "A@B") into two trimmed halves; throws with context.
std::pair<std::string, std::string> split_pair(std::string_view value, char sep,
                                               std::string_view what) {
  const size_t pos = value.find(sep);
  if (pos == std::string_view::npos || pos == 0 || pos + 1 >= value.size()) {
    throw InputError(strprintf("faults: %.*s expects A%cB, got '%.*s'",
                               int(what.size()), what.data(), sep,
                               int(value.size()), value.data()));
  }
  return {std::string(trim(value.substr(0, pos))),
          std::string(trim(value.substr(pos + 1)))};
}

int parse_rank(std::string_view s, std::string_view what) {
  const int r = parse_int(s, what);
  if (r < 0) {
    throw InputError(strprintf("faults: %.*s rank must be >= 0, got %d",
                               int(what.size()), what.data(), r));
  }
  return r;
}

}  // namespace

double FaultPlan::straggle_factor(int rank) const {
  double f = 1.0;
  for (const auto& s : stragglers) {
    if (s.rank == rank) f *= s.value;
  }
  return f;
}

double FaultPlan::jitter_frac(int rank) const {
  double j = 0.0;
  for (const auto& s : jitters) {
    if (s.rank == rank && s.value > j) j = s.value;
  }
  return j;
}

std::uint64_t FaultPlan::rank_seed(int rank) const {
  std::uint64_t state = seed;
  std::uint64_t out = splitmix64(state);
  for (int i = 0; i <= rank; ++i) out = splitmix64(state);
  return out;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const auto& [key, value] : spec_items(spec, "faults")) {
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(parse_long(value, "faults:seed"));
    } else if (key == "straggler") {
      const auto [r, f] = split_pair(value, 'x', "straggler");
      RankScale s;
      s.rank = parse_rank(r, "faults:straggler rank");
      s.value = parse_double(f, "faults:straggler factor");
      if (s.value < 1.0) {
        throw InputError("faults: straggler factor must be >= 1");
      }
      plan.stragglers.push_back(s);
    } else if (key == "jitter") {
      const auto [r, j] = split_pair(value, 'x', "jitter");
      RankScale s;
      s.rank = parse_rank(r, "faults:jitter rank");
      s.value = parse_double(j, "faults:jitter fraction");
      if (s.value < 0.0) {
        throw InputError("faults: jitter fraction must be >= 0");
      }
      plan.jitters.push_back(s);
    } else if (key == "delay") {
      const auto [p, s] = split_pair(value, 'x', "delay");
      plan.delay_probability = parse_double(p, "faults:delay probability");
      plan.delay_s = parse_double(s, "faults:delay seconds");
      if (plan.delay_probability < 0.0 || plan.delay_probability > 1.0) {
        throw InputError("faults: delay probability must be in [0,1]");
      }
      if (plan.delay_s < 0.0) {
        throw InputError("faults: delay seconds must be >= 0");
      }
    } else if (key == "kill" || key == "hang") {
      const auto [r, t] = split_pair(value, '@', key);
      FaultPlan::Kill k;
      k.rank = parse_rank(r, "faults:" + key + " rank");
      k.time_s = parse_double(t, "faults:" + key + " time");
      if (k.time_s < 0.0) {
        throw InputError("faults: " + key + " time must be >= 0");
      }
      (key == "kill" ? plan.kills : plan.hangs).push_back(k);
    } else {
      throw InputError(strprintf("faults: unknown component '%s'", key.c_str()));
    }
  }
  return plan;
}

std::string FaultPlan::describe() const {
  if (!active()) return "faults: none";
  std::string out = strprintf("faults: seed=%llu",
                              static_cast<unsigned long long>(seed));
  for (const auto& s : stragglers) {
    out += strprintf(" straggler=%dx%.3g", s.rank, s.value);
  }
  for (const auto& s : jitters) {
    out += strprintf(" jitter=%dx%.3g", s.rank, s.value);
  }
  if (delay_probability > 0.0 && delay_s > 0.0) {
    out += strprintf(" delay=%.3gx%.3g", delay_probability, delay_s);
  }
  for (const auto& k : kills) {
    out += strprintf(" kill=%d@%.9g", k.rank, k.time_s);
  }
  for (const auto& k : hangs) {
    out += strprintf(" hang=%d@%.9g", k.rank, k.time_s);
  }
  return out;
}

RankFailure::RankFailure(int world_rank, double virtual_time_s,
                         std::string phase)
    : Error(strprintf(
          "RankFailure: rank %d killed at virtual t=%.9e s in phase '%s' "
          "(injected by fault plan)",
          world_rank, virtual_time_s, phase.c_str())),
      world_rank_(world_rank),
      virtual_time_s_(virtual_time_s),
      phase_(std::move(phase)) {}

}  // namespace xg::mpi
