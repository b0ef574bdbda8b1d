#include "xgyro/driver.hpp"

#include <memory>
#include <optional>

#include "checkpoint/checkpoint.hpp"
#include "util/error.hpp"

namespace xg::xgyro {

namespace {

/// Shared setup for the periodic-snapshot hooks of both job runners: open
/// the writer, and when resuming locate + parse the newest valid snapshot.
struct CheckpointHooks {
  std::unique_ptr<ckpt::CheckpointWriter> writer;
  std::optional<ckpt::SnapshotRef> snapshot;
  ckpt::Manifest manifest;
  std::int64_t start_interval = 0;

  CheckpointHooks(const JobOptions& options, int nranks, int n_intervals) {
    if (options.checkpoint_dir.empty()) return;
    XG_REQUIRE(options.mode == gyro::Mode::kReal,
               "checkpointing requires real mode");
    XG_REQUIRE(options.checkpoint_every >= 1,
               "checkpoint_every must be >= 1");
    writer = std::make_unique<ckpt::CheckpointWriter>(options.checkpoint_dir,
                                                      nranks);
    if (!options.resume) return;
    const auto scan = ckpt::find_latest_valid(options.checkpoint_dir);
    if (!scan.latest_valid.has_value()) return;
    snapshot = scan.latest_valid;
    manifest = ckpt::load_manifest(snapshot->path);
    start_interval = manifest.interval < n_intervals ? manifest.interval
                                                     : n_intervals;
  }
};

}  // namespace

const std::vector<std::string>& solver_phases() {
  static const std::vector<std::string> kPhases{
      "str", "str_comm", "nl", "nl_comm", "coll", "coll_comm", "report"};
  return kPhases;
}

mpi::RunResult run_cgyro_job(const gyro::Input& input,
                             const net::MachineSpec& machine, int nranks,
                             const JobOptions& options) {
  const auto decomp = gyro::Decomposition::choose(input, nranks);
  mpi::RuntimeOptions ropts;
  ropts.enable_trace = options.enable_trace;
  ropts.enable_traffic = options.enable_traffic;
  ropts.faults = options.faults;
  ropts.check_invariants = options.check_invariants;
  ropts.coll_selector = options.coll_selector;
  CheckpointHooks hooks(options, nranks, options.n_report_intervals);
  return mpi::run_simulation(
      machine, nranks,
      [&](mpi::Proc& proc) {
        mpi::ScopedSpan job_span(proc, "cgyro.job");
        auto layout = gyro::make_cgyro_layout(proc.world(), decomp);
        gyro::Simulation sim(input, decomp, std::move(layout), proc,
                             options.mode);
        sim.initialize();
        if (hooks.snapshot.has_value()) {
          mpi::ScopedSpan span(proc, "checkpoint.restore");
          ckpt::restore_rank(hooks.snapshot->path, hooks.manifest, sim, 0);
        }
        for (std::int64_t i = hooks.start_interval;
             i < options.n_report_intervals; ++i) {
          sim.advance_report_interval();
          if (hooks.writer != nullptr &&
              ((i + 1) % options.checkpoint_every == 0 ||
               i + 1 == options.n_report_intervals)) {
            mpi::ScopedSpan span(proc, "checkpoint.write");
            ckpt::snapshot_rank(*hooks.writer, i + 1, sim, 0);
          }
        }
      },
      ropts);
}

mpi::RunResult run_xgyro_job(const EnsembleInput& ensemble,
                             const net::MachineSpec& machine,
                             int ranks_per_sim, const JobOptions& options) {
  const auto decomp = gyro::Decomposition::choose(
      ensemble.members.front(), ranks_per_sim, ensemble.n_sims());
  mpi::RuntimeOptions ropts;
  ropts.enable_trace = options.enable_trace;
  ropts.enable_traffic = options.enable_traffic;
  ropts.faults = options.faults;
  ropts.check_invariants = options.check_invariants;
  ropts.coll_selector = options.coll_selector;
  const int nranks = ensemble.n_sims() * ranks_per_sim;
  CheckpointHooks hooks(options, nranks, options.n_report_intervals);
  return mpi::run_simulation(
      machine, nranks,
      [&](mpi::Proc& proc) {
        mpi::ScopedSpan job_span(proc, "xgyro.job");
        EnsembleDriver driver(ensemble, decomp, proc, options.mode);
        driver.initialize();
        if (hooks.snapshot.has_value()) {
          mpi::ScopedSpan span(proc, "checkpoint.restore");
          ckpt::restore_rank(hooks.snapshot->path, hooks.manifest,
                             driver.simulation(), driver.sim_index());
        }
        for (std::int64_t i = hooks.start_interval;
             i < options.n_report_intervals; ++i) {
          driver.advance_report_interval();
          if (hooks.writer != nullptr &&
              ((i + 1) % options.checkpoint_every == 0 ||
               i + 1 == options.n_report_intervals)) {
            mpi::ScopedSpan span(proc, "checkpoint.write");
            ckpt::snapshot_rank(*hooks.writer, i + 1, driver.simulation(),
                                driver.sim_index());
          }
        }
      },
      ropts);
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
