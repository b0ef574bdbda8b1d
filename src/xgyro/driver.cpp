#include "xgyro/driver.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>

#include "checkpoint/checkpoint.hpp"
#include "cluster/memory.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::xgyro {

namespace {

/// nc must divide by pv times the lcm of the sharing-group sizes (each
/// group's collision communicator splits nc over its own size·pv ranks), and
/// the smallest group holds the largest per-rank cmat slice. Only a grouped
/// ensemble batch has groups other than the one group of all k members.
struct SharingShape {
  int lcm, smallest;
};

SharingShape sharing_shape(const EnsembleInput& batch, const JobOptions& o) {
  SharingShape shape{batch.n_sims(), batch.n_sims()};
  if (o.sharing == SharingPolicy::kGroupByFingerprint && !o.cgyro_layout) {
    shape.lcm = 1;
    for (const auto& group : batch.sharing_groups()) {
      const int size = static_cast<int>(group.size());
      shape.lcm = std::lcm(shape.lcm, size);
      shape.smallest = std::min(shape.smallest, size);
    }
  }
  return shape;
}

std::optional<gyro::Decomposition> fit_shape(const gyro::Input& input,
                                             const net::MachineSpec& machine,
                                             int k, int ranks_per_sim,
                                             SharingShape shape) {
  if (ranks_per_sim < 1 || k * ranks_per_sim > machine.total_ranks()) {
    return std::nullopt;
  }
  const auto d = gyro::Decomposition::find(input, ranks_per_sim, shape.lcm);
  if (!d) return std::nullopt;
  const auto fit = cluster::check_fit(
      gyro::Simulation::memory_inventory(input, *d, shape.smallest), machine);
  if (!fit.fits) return std::nullopt;
  return d;
}

std::string abort_summary(const std::string& kind, const std::string& reason,
                          int world_rank, double virtual_time_s,
                          const std::string& phase, size_t recoveries) {
  return strprintf(
      "JobAborted: %s at virtual t=%.9e s in phase '%s' (rank %d) — %s "
      "after %zu successful recover%s",
      kind.c_str(), virtual_time_s, phase.c_str(), world_rank, reason.c_str(),
      recoveries, recoveries == 1 ? "y" : "ies");
}

}  // namespace

JobAborted::JobAborted(std::string kind, std::string reason, int world_rank,
                       double virtual_time_s, std::string phase,
                       std::vector<RecoveryEvent> recoveries,
                       std::uint64_t snapshots_committed,
                       std::uint64_t snapshots_rejected, std::string report)
    : Error(abort_summary(kind, reason, world_rank, virtual_time_s, phase,
                          recoveries.size()) +
            (report.empty() ? "" : "\n" + report)),
      kind_(std::move(kind)),
      reason_(std::move(reason)),
      world_rank_(world_rank),
      virtual_time_s_(virtual_time_s),
      phase_(std::move(phase)),
      recoveries_(std::move(recoveries)),
      snapshots_committed_(snapshots_committed),
      snapshots_rejected_(snapshots_rejected),
      report_(std::move(report)) {}

std::string JobAborted::summary(const std::string& reason) const {
  return abort_summary(kind_, reason, world_rank_, virtual_time_s_, phase_,
                       recoveries_.size());
}

const std::vector<std::string>& solver_phases() {
  static const std::vector<std::string> kPhases{
      "str", "str_comm", "nl", "nl_comm", "coll", "coll_comm", "report"};
  return kPhases;
}

JobResult run_job(const EnsembleInput& batch, const net::MachineSpec& machine,
                  int ranks_per_sim, const JobOptions& options) {
  const int k = batch.n_sims();
  const int n_intervals = options.n_report_intervals;
  XG_REQUIRE(k >= 1, "run_job: empty batch");
  XG_REQUIRE(n_intervals >= 1, "run_job: need at least one report interval");
  XG_REQUIRE(options.checkpoint_every >= 1,
             "run_job: checkpoint_every must be >= 1");
  XG_REQUIRE(!options.cgyro_layout || k == 1,
             "run_job: cgyro_layout needs a single-member batch");
  const bool ckpt_enabled = !options.checkpoint_dir.empty();
  if (ckpt_enabled) {
    XG_REQUIRE(options.mode == gyro::Mode::kReal,
               "run_job: checkpointing requires real mode");
  }

  JobResult out;
  out.machine = machine;
  out.ranks_per_sim = ranks_per_sim;
  mpi::RuntimeOptions ropts;
  ropts.enable_trace = options.enable_trace;
  ropts.enable_traffic = options.enable_traffic;
  ropts.faults = options.faults;
  ropts.check_invariants = options.check_invariants;
  ropts.coll_selector = options.coll_selector;
  ropts.schedule_seed = options.schedule_seed;
  bool resume = options.resume && ckpt_enabled;
  int recoveries_left = options.max_recoveries;
  bool just_recovered = false;
  const SharingShape shape = sharing_shape(batch, options);

  for (;;) {
    const auto decomp = gyro::Decomposition::choose(
        batch.members.front(), out.ranks_per_sim, shape.lcm);
    const int nranks = k * out.ranks_per_sim;

    std::unique_ptr<ckpt::CheckpointWriter> writer;
    if (ckpt_enabled) {
      writer = std::make_unique<ckpt::CheckpointWriter>(options.checkpoint_dir,
                                                        nranks);
    }
    std::optional<ckpt::SnapshotRef> snapshot;
    std::int64_t start_interval = 0;
    if (resume) {
      auto scan = ckpt::find_latest_valid(options.checkpoint_dir);
      out.snapshots_rejected += scan.rejected.size();
      if (scan.latest_valid.has_value()) {
        snapshot = std::move(scan.latest_valid);
        start_interval =
            std::min<std::int64_t>(snapshot->manifest.interval, n_intervals);
      }
    }
    if (just_recovered) {
      out.recoveries.back().resumed_interval = start_interval;
      just_recovered = false;
    }

    std::vector<gyro::Diagnostics> diags(static_cast<size_t>(k));
    RecoveryEvent ev;  // stays empty when the attempt completes
    std::string report;  // a deadlock's blocked-rank report
    try {
      out.run = mpi::run_simulation(
          out.machine, nranks,
          [&](mpi::Proc& proc) {
            mpi::ScopedSpan job_span(
                proc, options.cgyro_layout ? "cgyro.job" : "xgyro.job");
            std::optional<gyro::Simulation> cg_sim;
            std::optional<EnsembleDriver> driver;
            gyro::Simulation* sim = nullptr;
            int member = 0;
            if (options.cgyro_layout) {
              cg_sim.emplace(batch.members.front(), decomp,
                             gyro::make_cgyro_layout(proc.world(), decomp),
                             proc, options.mode);
              cg_sim->initialize();
              sim = &*cg_sim;
            } else {
              driver.emplace(batch, decomp, proc, options.mode,
                             options.sharing);
              driver->initialize();
              sim = &driver->simulation();
              member = driver->sim_index();
            }
            if (snapshot.has_value()) {
              mpi::ScopedSpan span(proc, "checkpoint.restore");
              ckpt::restore_rank(snapshot->path, snapshot->manifest, *sim,
                                 member);
            }
            gyro::Diagnostics d;
            if (start_interval >= n_intervals) {
              // The snapshot already covers the whole run; recompute the
              // reporting diagnostics from the restored state.
              d = sim->diagnostics();
            }
            for (std::int64_t i = start_interval; i < n_intervals; ++i) {
              d = sim->advance_report_interval();
              if (writer != nullptr &&
                  ((i + 1) % options.checkpoint_every == 0 ||
                   i + 1 == n_intervals)) {
                mpi::ScopedSpan span(proc, "checkpoint.write");
                ckpt::snapshot_rank(*writer, i + 1, *sim, member);
              }
            }
            // Each member's first rank writes its own slot: no lock needed.
            if (proc.world_rank() % decomp.nranks() == 0) {
              diags[static_cast<size_t>(member)] = d;
            }
          },
          ropts);
    } catch (const mpi::RankFailure& e) {
      ev.kind = "rank_failure";
      ev.world_rank = e.world_rank();
      ev.virtual_time_s = e.virtual_time_s();
      ev.phase = e.phase();
    } catch (const mpi::DeadlockError& e) {
      ev.kind = "deadlock";
      report = e.what();
      // Name the rank a hang clause parked (its peers only stalled behind
      // it), else the lowest blocked rank.
      const auto& blocked = e.blocked();
      const auto hung = std::find_if(blocked.begin(), blocked.end(),
                                     [](const auto& b) { return b.hung; });
      if (!blocked.empty()) {
        const mpi::BlockedRankInfo& b =
            hung != blocked.end() ? *hung : blocked.front();
        ev.world_rank = b.world_rank;
        ev.virtual_time_s = b.virtual_time_s;
        ev.phase = b.phase;
      }
    }
    if (writer != nullptr) {
      out.snapshots_committed += writer->snapshots_committed();
    }
    if (ev.kind.empty()) {
      out.diagnostics = std::move(diags);
      return out;
    }

    const auto abort = [&](const char* reason) {
      return JobAborted(ev.kind, reason, ev.world_rank, ev.virtual_time_s,
                        ev.phase, std::move(out.recoveries),
                        out.snapshots_committed, out.snapshots_rejected,
                        std::move(report));
    };
    if (recoveries_left-- <= 0) throw abort("recovery budget exhausted");
    ev.nodes_before = ev.nodes_after = out.machine.n_nodes;
    ev.ranks_per_sim_before = ev.ranks_per_sim_after = out.ranks_per_sim;
    if (ev.kind == "rank_failure") {
      // The failed rank takes its node down with it; the simulated machine
      // is homogeneous, so the surviving allocation is one node smaller.
      if (out.machine.n_nodes <= 1) throw abort("no surviving nodes");
      out.machine.n_nodes -= 1;
      // The largest ranks-per-sim that fits, never above the current one:
      // an unchanged decomposition keeps the physics bit-identical.
      int rps = std::min(out.ranks_per_sim, out.machine.total_ranks() / k);
      while (rps >= 1 &&
             !fit_shape(batch.members.front(), out.machine, k, rps, shape)) {
        --rps;
      }
      if (rps < 1) throw abort("survivors cannot host the decomposition");
      out.ranks_per_sim = rps;
      ev.nodes_after = out.machine.n_nodes;
      ev.ranks_per_sim_after = out.ranks_per_sim;
      // Strip only the fired rank's kill clauses: kills armed for other
      // ranks stay live, so multi-kill plans keep firing across attempts.
      // Clauses aimed at ranks beyond the shrunken job are dropped.
      ropts.faults = ropts.faults.without_kill(ev.world_rank)
                         .pruned_to(k * out.ranks_per_sim);
    } else {
      // A deadlock retries on the same allocation. Hangs are transient like
      // kills: the retry runs without them.
      ropts.faults.hangs.clear();
    }
    out.recoveries.push_back(std::move(ev));
    resume = ckpt_enabled;
    just_recovered = true;
  }
}

mpi::RunResult run_cgyro_job(const gyro::Input& input,
                             const net::MachineSpec& machine, int nranks,
                             const JobOptions& options) {
  JobOptions cgyro = options;
  cgyro.cgyro_layout = true;
  return run_job(EnsembleInput{{input}}, machine, nranks, cgyro).run;
}

mpi::RunResult run_xgyro_job(const EnsembleInput& ensemble,
                             const net::MachineSpec& machine,
                             int ranks_per_sim, const JobOptions& options) {
  return run_job(ensemble, machine, ranks_per_sim, options).run;
}

double report_step_seconds(const mpi::RunResult& result) {
  double total = 0.0;
  for (const auto& phase : solver_phases()) {
    total += result.phase_max_time(phase);
  }
  return total;
}

double phase_seconds(const mpi::RunResult& result, const std::string& phase) {
  return result.phase_max_time(phase);
}

}  // namespace xg::xgyro
