#include "campaign/campaign.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>

#include "checkpoint/checkpoint.hpp"
#include "cluster/memory.hpp"
#include "perfmodel/perfmodel.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "xgyro/driver.hpp"

namespace xg::campaign {

namespace {

/// Feasibility + predicted cost of batching k members of `input`'s physics
/// on the whole machine. Returns false if no decomposition exists or the
/// memory does not fit.
bool evaluate_batch(const gyro::Input& input, const net::MachineSpec& machine,
                    int k, const mpi::CollSelector* selector,
                    gyro::Decomposition* decomp_out, double* seconds_out) {
  if (machine.total_ranks() % k != 0) return false;
  const int ranks_per_sim = machine.total_ranks() / k;
  gyro::Decomposition d;
  try {
    d = gyro::Decomposition::choose(input, ranks_per_sim, k);
  } catch (const Error&) {
    return false;
  }
  const auto fit = cluster::check_fit(
      gyro::Simulation::memory_inventory(input, d, k), machine);
  if (!fit.fits) return false;
  const auto plan = perfmodel::plan_xgyro(input, k, machine, selector);
  if (decomp_out != nullptr) *decomp_out = d;
  if (seconds_out != nullptr) *seconds_out = plan.per_report.total();
  return true;
}

}  // namespace

std::optional<GroupBatch> plan_group(const gyro::Input& input, int group_size,
                                     const net::MachineSpec& machine,
                                     const mpi::CollSelector* selector) {
  XG_REQUIRE(group_size >= 1, "plan_group: empty group");
  // Best k: minimize (#jobs × predicted seconds per job).
  std::optional<GroupBatch> best;
  double best_cost = 0.0;
  for (int k = 1; k <= group_size; ++k) {
    if (group_size % k != 0) continue;
    gyro::Decomposition d;
    double seconds = 0.0;
    if (!evaluate_batch(input, machine, k, selector, &d, &seconds)) continue;
    const double cost = (group_size / k) * seconds;
    if (!best.has_value() || cost < best_cost) {
      best = GroupBatch{k, machine.total_ranks() / k, d, seconds};
      best_cost = cost;
    }
  }
  return best;
}

std::optional<GroupBatch> plan_batch_exact(const gyro::Input& input, int k,
                                           const net::MachineSpec& machine,
                                           const mpi::CollSelector* selector) {
  XG_REQUIRE(k >= 1, "plan_batch_exact: empty batch");
  gyro::Decomposition d;
  double seconds = 0.0;
  if (!evaluate_batch(input, machine, k, selector, &d, &seconds)) {
    return std::nullopt;
  }
  return GroupBatch{k, machine.total_ranks() / k, d, seconds};
}

CampaignPlan plan_campaign(const CampaignSpec& spec) {
  XG_REQUIRE(spec.members.n_sims() >= 1, "plan_campaign: empty campaign");
  CampaignPlan plan;
  for (const auto& group : spec.members.sharing_groups()) {
    const auto& input = spec.members.members[group.front()];
    const int g = static_cast<int>(group.size());
    const auto best = plan_group(input, g, spec.machine);
    if (!best.has_value()) {
      throw Error(strprintf(
          "campaign: no feasible batching for sharing group of %d member(s) "
          "('%s') on %d nodes — even a single simulation does not fit",
          g, input.tag.c_str(), spec.machine.n_nodes));
    }
    for (int j = 0; j < g / best->k; ++j) {
      JobPlan job;
      job.member_indices.assign(group.begin() + j * best->k,
                                group.begin() + (j + 1) * best->k);
      job.ranks_per_sim = best->ranks_per_sim;
      job.decomp = best->decomp;
      job.predicted_seconds = best->predicted_seconds;
      plan.predicted_total_seconds += best->predicted_seconds;
      plan.jobs.push_back(std::move(job));
    }
  }
  return plan;
}

std::string CampaignPlan::describe() const {
  std::string out = strprintf("campaign plan: %zu job(s), predicted %.3f s "
                              "per reporting step total\n",
                              jobs.size(), predicted_total_seconds);
  for (size_t j = 0; j < jobs.size(); ++j) {
    const auto& job = jobs[j];
    out += strprintf("  job %zu: k=%d members [", j, job.k());
    for (size_t i = 0; i < job.member_indices.size(); ++i) {
      out += strprintf("%s%d", i ? " " : "", job.member_indices[i]);
    }
    out += strprintf("] %d ranks/sim (pv=%d pt=%d), predicted %.3f s\n",
                     job.ranks_per_sim, job.decomp.pv, job.decomp.pt,
                     job.predicted_seconds);
  }
  return out;
}

CampaignResult run_campaign(const CampaignSpec& spec, const CampaignPlan& plan,
                            gyro::Mode mode) {
  CampaignResult result;
  result.plan = plan;
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    const auto& job = plan.jobs[j];
    xgyro::EnsembleInput batch;
    for (const int m : job.member_indices) {
      batch.members.push_back(spec.members.members[m]);
    }
    std::vector<gyro::Diagnostics> diags(batch.members.size());
    std::mutex mu;
    const auto run = mpi::run_simulation(
        spec.machine, job.k() * job.ranks_per_sim, [&](mpi::Proc& proc) {
          xgyro::EnsembleDriver driver(batch, job.decomp, proc, mode);
          driver.initialize();
          gyro::Diagnostics d;
          for (int i = 0; i < spec.n_report_intervals; ++i) {
            d = driver.advance_report_interval();
          }
          if (proc.world_rank() % job.decomp.nranks() == 0) {
            const std::scoped_lock lock(mu);
            diags[driver.sim_index()] = d;
          }
        });
    result.job_runs.push_back(run);
    for (size_t i = 0; i < batch.members.size(); ++i) {
      result.members.push_back(
          {job.member_indices[i], static_cast<int>(j), diags[i]});
    }
  }
  return result;
}

namespace {

/// Can `k` members at `ranks_per_sim` each run on `machine`? (Rank count,
/// decomposition divisibility, and per-rank memory.)
bool rps_feasible(const gyro::Input& input, const net::MachineSpec& machine,
                  int k, int ranks_per_sim) {
  if (ranks_per_sim < 1 || k * ranks_per_sim > machine.total_ranks()) {
    return false;
  }
  gyro::Decomposition d;
  try {
    d = gyro::Decomposition::choose(input, ranks_per_sim, k);
  } catch (const Error&) {
    return false;
  }
  return cluster::check_fit(gyro::Simulation::memory_inventory(input, d, k),
                            machine)
      .fits;
}

/// Largest feasible ranks-per-sim on the (possibly shrunken) machine, never
/// growing past `current` — keeping the decomposition unchanged when it
/// still fits preserves bit-identical physics across the recovery.
int replan_ranks_per_sim(const gyro::Input& input,
                         const net::MachineSpec& machine, int k, int current) {
  const int cap = std::min(current, machine.total_ranks() / k);
  for (int rps = cap; rps >= 1; --rps) {
    if (rps_feasible(input, machine, k, rps)) return rps;
  }
  return 0;
}

}  // namespace

JobAborted::JobAborted(std::string kind, std::string reason, int world_rank,
                       double virtual_time_s, std::string phase,
                       std::vector<RecoveryEvent> recoveries,
                       std::uint64_t snapshots_committed,
                       std::uint64_t snapshots_rejected)
    : Error(strprintf(
          "JobAborted: %s at virtual t=%.9e s in phase '%s' (rank %d) — %s "
          "after %zu successful recover%s",
          kind.c_str(), virtual_time_s, phase.c_str(), world_rank,
          reason.c_str(), recoveries.size(),
          recoveries.size() == 1 ? "y" : "ies")),
      kind_(std::move(kind)),
      reason_(std::move(reason)),
      world_rank_(world_rank),
      virtual_time_s_(virtual_time_s),
      phase_(std::move(phase)),
      recoveries_(std::move(recoveries)),
      snapshots_committed_(snapshots_committed),
      snapshots_rejected_(snapshots_rejected) {}

ElasticJobResult run_job_elastic(const xgyro::EnsembleInput& batch,
                                 const net::MachineSpec& machine,
                                 int ranks_per_sim, int n_report_intervals,
                                 gyro::Mode mode, const RecoveryOptions& opts) {
  const int k = batch.n_sims();
  XG_REQUIRE(k >= 1, "run_job_elastic: empty batch");
  XG_REQUIRE(n_report_intervals >= 1,
             "run_job_elastic: need at least one report interval");
  XG_REQUIRE(opts.checkpoint_every >= 1,
             "run_job_elastic: checkpoint_every must be >= 1");
  XG_REQUIRE(!opts.cgyro_layout || k == 1,
             "run_job_elastic: cgyro_layout needs a single-member batch");
  const bool ckpt_enabled = !opts.checkpoint_dir.empty();
  if (ckpt_enabled) {
    XG_REQUIRE(mode == gyro::Mode::kReal,
               "run_job_elastic: checkpointing requires real mode");
  }

  ElasticJobResult out;
  out.machine = machine;
  out.ranks_per_sim = ranks_per_sim;
  mpi::FaultPlan faults = opts.faults;
  bool resume = opts.resume && ckpt_enabled;
  int recoveries_left = opts.max_recoveries;
  bool just_recovered = false;

  for (;;) {
    // n_sims_sharing = k for the ensemble layout; the classic CGYRO layout
    // has no ensemble-wide collision communicator.
    const auto decomp = gyro::Decomposition::choose(
        batch.members.front(), out.ranks_per_sim, opts.cgyro_layout ? 1 : k);
    const int nranks = k * out.ranks_per_sim;

    std::unique_ptr<ckpt::CheckpointWriter> writer;
    if (ckpt_enabled) {
      writer = std::make_unique<ckpt::CheckpointWriter>(opts.checkpoint_dir,
                                                        nranks);
    }
    std::optional<ckpt::SnapshotRef> snapshot;
    ckpt::Manifest manifest;
    std::int64_t start_interval = 0;
    if (resume) {
      auto scan = ckpt::find_latest_valid(opts.checkpoint_dir);
      out.snapshots_rejected += scan.rejected.size();
      if (scan.latest_valid.has_value()) {
        snapshot = scan.latest_valid;
        manifest = ckpt::load_manifest(snapshot->path);
        start_interval = manifest.interval < n_report_intervals
                             ? manifest.interval
                             : n_report_intervals;
      }
    }
    if (just_recovered) {
      out.recoveries.back().resumed_interval = start_interval;
      just_recovered = false;
    }

    std::vector<gyro::Diagnostics> diags(static_cast<size_t>(k));
    std::mutex mu;
    mpi::RuntimeOptions ropts;
    ropts.enable_trace = opts.enable_trace;
    ropts.enable_traffic = opts.enable_traffic;
    ropts.faults = faults;
    ropts.check_invariants = opts.check_invariants;
    ropts.coll_selector = opts.coll_selector;

    try {
      out.run = mpi::run_simulation(
          out.machine, nranks,
          [&](mpi::Proc& proc) {
            std::unique_ptr<gyro::Simulation> cg_sim;
            std::unique_ptr<xgyro::EnsembleDriver> driver;
            gyro::Simulation* sim = nullptr;
            int member = 0;
            if (opts.cgyro_layout) {
              auto layout = gyro::make_cgyro_layout(proc.world(), decomp);
              cg_sim = std::make_unique<gyro::Simulation>(
                  batch.members.front(), decomp, std::move(layout), proc,
                  mode);
              cg_sim->initialize();
              sim = cg_sim.get();
            } else {
              driver = std::make_unique<xgyro::EnsembleDriver>(
                  batch, decomp, proc, mode, opts.sharing);
              driver->initialize();
              sim = &driver->simulation();
              member = driver->sim_index();
            }
            if (snapshot.has_value()) {
              mpi::ScopedSpan span(proc, "checkpoint.restore");
              ckpt::restore_rank(snapshot->path, manifest, *sim, member);
            }
            gyro::Diagnostics d;
            if (start_interval >= n_report_intervals) {
              // The snapshot already covers the whole run; recompute the
              // reporting diagnostics from the restored state.
              d = sim->diagnostics();
            }
            for (std::int64_t i = start_interval; i < n_report_intervals;
                 ++i) {
              d = driver != nullptr ? driver->advance_report_interval()
                                    : sim->advance_report_interval();
              if (writer != nullptr &&
                  ((i + 1) % opts.checkpoint_every == 0 ||
                   i + 1 == n_report_intervals)) {
                mpi::ScopedSpan span(proc, "checkpoint.write");
                ckpt::snapshot_rank(*writer, i + 1, *sim, member);
              }
            }
            if (proc.world_rank() % decomp.nranks() == 0) {
              const std::scoped_lock lock(mu);
              diags[static_cast<size_t>(member)] = d;
            }
          },
          ropts);
    } catch (const mpi::RankFailure& e) {
      if (writer != nullptr) {
        out.snapshots_committed += writer->snapshots_committed();
      }
      const auto abort = [&](const char* reason) {
        return JobAborted("rank_failure", reason, e.world_rank(),
                          e.virtual_time_s(), e.phase(),
                          std::move(out.recoveries), out.snapshots_committed,
                          out.snapshots_rejected);
      };
      if (recoveries_left-- <= 0) throw abort("recovery budget exhausted");
      RecoveryEvent ev;
      ev.kind = "rank_failure";
      ev.world_rank = e.world_rank();
      ev.virtual_time_s = e.virtual_time_s();
      ev.phase = e.phase();
      ev.nodes_before = out.machine.n_nodes;
      ev.ranks_per_sim_before = out.ranks_per_sim;
      // The failed rank takes its node down with it; the simulated machine
      // is homogeneous, so the surviving allocation is one node smaller.
      if (out.machine.n_nodes <= 1) throw abort("no surviving nodes");
      out.machine.n_nodes -= 1;
      const int new_rps = replan_ranks_per_sim(
          batch.members.front(), out.machine, k, out.ranks_per_sim);
      if (new_rps == 0) {
        // survivors cannot host even one rank/sim
        throw abort("survivors cannot host the decomposition");
      }
      out.ranks_per_sim = new_rps;
      ev.nodes_after = out.machine.n_nodes;
      ev.ranks_per_sim_after = out.ranks_per_sim;
      out.recoveries.push_back(std::move(ev));
      // Strip only the fired rank's kill clauses: kills armed for other
      // ranks stay live, so multi-kill plans keep firing across attempts.
      // Clauses aimed at ranks beyond the shrunken job are dropped.
      faults = faults.without_kill(e.world_rank())
                   .pruned_to(k * out.ranks_per_sim);
      resume = ckpt_enabled;
      just_recovered = true;
      continue;
    } catch (const mpi::DeadlockError& e) {
      if (writer != nullptr) {
        out.snapshots_committed += writer->snapshots_committed();
      }
      if (recoveries_left-- <= 0) {
        const auto& blocked = e.blocked();
        throw JobAborted(
            "deadlock", "recovery budget exhausted",
            blocked.empty() ? -1 : blocked.front().world_rank,
            blocked.empty() ? 0.0 : blocked.front().virtual_time_s,
            blocked.empty() ? "" : blocked.front().phase,
            std::move(out.recoveries), out.snapshots_committed,
            out.snapshots_rejected);
      }
      RecoveryEvent ev;
      ev.kind = "deadlock";
      if (!e.blocked().empty()) {
        ev.world_rank = e.blocked().front().world_rank;
        ev.virtual_time_s = e.blocked().front().virtual_time_s;
        ev.phase = e.blocked().front().phase;
      }
      ev.nodes_before = ev.nodes_after = out.machine.n_nodes;
      ev.ranks_per_sim_before = ev.ranks_per_sim_after = out.ranks_per_sim;
      out.recoveries.push_back(std::move(ev));
      resume = ckpt_enabled;
      just_recovered = true;
      continue;
    }

    if (writer != nullptr) {
      out.snapshots_committed += writer->snapshots_committed();
    }
    out.diagnostics = std::move(diags);
    return out;
  }
}

CampaignResult run_campaign_elastic(const CampaignSpec& spec,
                                    const CampaignPlan& plan, gyro::Mode mode,
                                    const RecoveryOptions& opts) {
  CampaignResult result;
  result.plan = plan;
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    const auto& job = plan.jobs[j];
    xgyro::EnsembleInput batch;
    for (const int m : job.member_indices) {
      batch.members.push_back(spec.members.members[m]);
    }
    RecoveryOptions jopts = opts;
    if (!opts.checkpoint_dir.empty()) {
      jopts.checkpoint_dir =
          opts.checkpoint_dir + strprintf("/job-%zu", j);
    }
    ElasticJobResult r;
    try {
      r = run_job_elastic(batch, spec.machine, job.ranks_per_sim,
                          spec.n_report_intervals, mode, jopts);
    } catch (const JobAborted& e) {
      // Keep the failed job's recovery history and move on: the caller gets
      // a partial CampaignResult instead of losing the whole campaign.
      JobFailure f;
      f.job = static_cast<int>(j);
      f.kind = e.kind();
      f.reason = e.reason();
      f.world_rank = e.world_rank();
      f.virtual_time_s = e.virtual_time_s();
      f.phase = e.phase();
      f.message = e.what();
      result.failures.push_back(std::move(f));
      for (auto ev : e.recoveries()) {
        ev.job = static_cast<int>(j);
        result.recoveries.push_back(std::move(ev));
      }
      result.snapshots_committed += e.snapshots_committed();
      result.snapshots_rejected += e.snapshots_rejected();
      continue;
    }
    result.job_runs.push_back(std::move(r.run));
    for (size_t i = 0; i < batch.members.size(); ++i) {
      result.members.push_back(
          {job.member_indices[i], static_cast<int>(j), r.diagnostics[i]});
    }
    for (auto& ev : r.recoveries) {
      ev.job = static_cast<int>(j);
      result.recoveries.push_back(std::move(ev));
    }
    result.snapshots_committed += r.snapshots_committed;
    result.snapshots_rejected += r.snapshots_rejected;
  }
  return result;
}

double CampaignResult::total_report_seconds() const {
  double total = 0.0;
  for (const auto& run : job_runs) {
    total += xgyro::report_step_seconds(run);
  }
  return total;
}

}  // namespace xg::campaign
