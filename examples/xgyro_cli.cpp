// xgyro_cli — run CGYRO-style input files through the simulated machine,
// standalone or as an XGYRO ensemble, from the command line.
//
//   # one simulation (CGYRO layout)
//   ./examples/xgyro_cli --input examples/inputs/small.cgyro --ranks 4
//
//   # an ensemble sharing cmat (XGYRO layout; repeat --input per member,
//   # or point --ensemble at an input.xgyro manifest)
//   ./examples/xgyro_cli --ensemble examples/inputs/input.xgyro
//                        --ranks-per-sim 4 --intervals 2
//                        --timing-out out.xgyro.timing
//
//   # checkpointed run surviving an injected rank kill
//   ./examples/xgyro_cli --ensemble examples/inputs/input.xgyro
//                        --ranks-per-sim 2 --intervals 4
//                        --checkpoint-dir ckpt --faults "seed=1;kill=1@0.01"
//
// Run with --help for the full flag reference (docs/USER_GUIDE.md documents
// every flag, the fault-spec grammar, and the exit codes; the two are kept
// consistent by scripts/docs_check.sh).
//
// Exit status: 0 success (including recovered runs); 1 usage, input, or
// configuration error; 2 structured failure (rank kill / deadlock) that was
// not recovered.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "analysis/critical_path.hpp"
#include "analysis/divergence.hpp"
#include "analysis/waitwork.hpp"
#include "gyro/simulation.hpp"
#include "gyro/timing_log.hpp"
#include "simmpi/coll.hpp"
#include "simnet/machine.hpp"
#include "telemetry/colltable.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"
#include "xgyro/driver.hpp"
#include "xgyro/ensemble.hpp"

namespace {

struct Options {
  std::vector<std::string> inputs;
  std::string manifest;
  int ranks = 4;
  int ranks_per_sim = 4;
  int nodes = 0;  // 0 = derive from rank count
  xg::gyro::Mode mode = xg::gyro::Mode::kReal;
  int intervals = 1;
  std::string timing_out;
  std::string trace_out;
  std::string report_out;
  std::string metrics_out;
  bool grouped = false;
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  int max_recoveries = 3;
  bool resume = false;
  xg::mpi::FaultPlan faults;
  bool check_invariants = true;
  bool analyze = false;
  bool perfmodel_check = false;
  double perfmodel_tol = xg::analysis::kDefaultDivergenceTolerance;
  std::string coll_select;  // "" = tuned
  std::string coll_table;
};

void print_help() {
  std::printf(
      "usage: xgyro_cli (--input FILE [--input FILE ...] | --ensemble "
      "FILE) [options]\n\n"
      "  --input FILE        input file (repeat for an ensemble)\n"
      "  --ensemble FILE     input.xgyro-style manifest (N_SIM / DIR_i)\n"
      "  --ranks N           total ranks for a single simulation [4]\n"
      "  --ranks-per-sim N   ranks per ensemble member [4]\n"
      "  --nodes N           nodes of the Frontier-like machine [fit]\n"
      "  --mode real|model   real data or paper-scale model mode [real]\n"
      "  --intervals N       reporting intervals to run [1]\n"
      "  --timing-out FILE   write an out.xgyro.timing-style log\n"
      "  --trace-out FILE    write a Chrome trace-event JSON timeline\n"
      "                      (open with ui.perfetto.dev or "
      "chrome://tracing)\n"
      "  --report FILE       write a structured run report "
      "(xgyro.report JSON)\n"
      "  --metrics-out FILE  write a metrics snapshot "
      "(xgyro.metrics JSON)\n"
      "  --grouped           allow mixed physics: members grouped by\n"
      "                      cmat fingerprint, one shared tensor each\n"
      "  --checkpoint-dir DIR  elastic snapshots: write a validated,\n"
      "                      atomically-committed snapshot every\n"
      "                      --checkpoint-every intervals and recover\n"
      "                      from rank failures/deadlocks (real mode)\n"
      "  --checkpoint-every N  reporting intervals between snapshots [1]\n"
      "  --max-recoveries N  recoveries allowed before giving up [3]\n"
      "  --resume            restore from the newest valid snapshot in\n"
      "                      --checkpoint-dir before stepping\n"
      "  --faults SPEC       deterministic fault injection, e.g.\n"
      "                      "
      "\"seed=42;straggler=2x3.0;delay=0.3x5e-6;kill=1@0.02\"\n"
      "  --no-invariants     disable the collective invariant monitor\n"
      "  --coll-select NAME  collective algorithm selector: 'tuned'\n"
      "                      (topology-aware decision table, the default) or\n"
      "                      'legacy' (fixed pre-selector algorithms)\n"
      "  --coll-table FILE   JSON collective decision table (xgyro_colltune\n"
      "                      output); rules override the tuned table\n"
      "  --analyze           trace the run and print its critical path and\n"
      "                      per-phase wait/work decomposition (embedded in\n"
      "                      --report / --metrics-out artifacts too)\n"
      "  --perfmodel-check   compare measured per-phase costs against the\n"
      "                      closed-form perfmodel prediction; a divergence\n"
      "                      beyond tolerance exits 1\n"
      "  --perfmodel-tol X   divergence gate ratio bound [3.0]\n"
      "  --help              print this reference and exit\n"
      "\n"
      "exit status:\n"
      "  0  success, including runs that recovered from faults\n"
      "  1  usage, input, or configuration error\n"
      "  2  structured failure (rank kill / deadlock) not recovered\n");
}

Options parse_args(int argc, char** argv) {
  Options o;
  std::set<std::string> seen;
  auto need_value = [&](int i) {
    if (i + 1 >= argc) {
      throw xg::InputError(xg::strprintf("missing value after %s", argv[i]));
    }
    return std::string(argv[i + 1]);
  };
  // Every flag except --input (repeatable by design: one per ensemble
  // member) may appear at most once; a repeat is a conflict, not a silent
  // last-one-wins.
  auto once = [&](const std::string& flag) {
    if (!seen.insert(flag).second) {
      throw xg::InputError(
          xg::strprintf("duplicate %s (give each option at most once)",
                        flag.c_str()));
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--input") {
      o.inputs.push_back(need_value(i++));
    } else if (a == "--ensemble") {
      once(a);
      o.manifest = need_value(i++);
    } else if (a == "--ranks") {
      once(a);
      o.ranks = xg::parse_int(need_value(i++), a);
    } else if (a == "--ranks-per-sim") {
      once(a);
      o.ranks_per_sim = xg::parse_int(need_value(i++), a);
    } else if (a == "--nodes") {
      once(a);
      o.nodes = xg::parse_int(need_value(i++), a);
    } else if (a == "--intervals") {
      once(a);
      o.intervals = xg::parse_int(need_value(i++), a);
    } else if (a == "--timing-out") {
      once(a);
      o.timing_out = need_value(i++);
    } else if (a == "--trace-out") {
      once(a);
      o.trace_out = need_value(i++);
    } else if (a == "--report") {
      once(a);
      o.report_out = need_value(i++);
    } else if (a == "--metrics-out") {
      once(a);
      o.metrics_out = need_value(i++);
    } else if (a == "--grouped") {
      once(a);
      o.grouped = true;
    } else if (a == "--checkpoint-dir") {
      once(a);
      o.checkpoint_dir = need_value(i++);
    } else if (a == "--checkpoint-every") {
      once(a);
      o.checkpoint_every = xg::parse_int(need_value(i++), a);
    } else if (a == "--max-recoveries") {
      once(a);
      o.max_recoveries = xg::parse_int(need_value(i++), a);
    } else if (a == "--resume") {
      once(a);
      o.resume = true;
    } else if (a == "--faults") {
      once(a);
      o.faults = xg::mpi::FaultPlan::parse(need_value(i++));
    } else if (a == "--no-invariants") {
      once(a);
      o.check_invariants = false;
    } else if (a == "--coll-select") {
      once(a);
      o.coll_select = need_value(i++);
    } else if (a == "--coll-table") {
      once(a);
      o.coll_table = need_value(i++);
    } else if (a == "--analyze") {
      once(a);
      o.analyze = true;
    } else if (a == "--perfmodel-check") {
      once(a);
      o.perfmodel_check = true;
    } else if (a == "--perfmodel-tol") {
      once(a);
      o.perfmodel_tol = xg::parse_double(need_value(i++), a);
    } else if (a == "--mode") {
      once(a);
      const std::string m = need_value(i++);
      if (m == "real") {
        o.mode = xg::gyro::Mode::kReal;
      } else if (m == "model") {
        o.mode = xg::gyro::Mode::kModel;
      } else {
        throw xg::InputError("--mode must be 'real' or 'model'");
      }
    } else if (a == "--help" || a == "-h") {
      print_help();
      std::exit(0);
    } else {
      throw xg::InputError(xg::strprintf("unknown option '%s'", a.c_str()));
    }
  }

  if (o.inputs.empty() && o.manifest.empty()) {
    throw xg::InputError("need --input FILE (repeatable) or --ensemble FILE");
  }
  if (!o.inputs.empty() && !o.manifest.empty()) {
    throw xg::InputError("--input and --ensemble are mutually exclusive");
  }
  if (o.ranks < 1) throw xg::InputError("--ranks must be >= 1");
  if (o.ranks_per_sim < 1) throw xg::InputError("--ranks-per-sim must be >= 1");
  if (o.nodes < 0) throw xg::InputError("--nodes must be >= 0");
  if (o.intervals < 1) throw xg::InputError("--intervals must be >= 1");
  if (o.checkpoint_every < 1) {
    throw xg::InputError("--checkpoint-every must be >= 1");
  }
  if (o.max_recoveries < 0) {
    throw xg::InputError("--max-recoveries must be >= 0");
  }
  if (!o.coll_select.empty() &&
      xg::mpi::CollSelector::named(o.coll_select) == nullptr) {
    throw xg::InputError("--coll-select must be 'tuned' or 'legacy'");
  }
  if (!o.coll_select.empty() && !o.coll_table.empty()) {
    throw xg::InputError(
        "--coll-select and --coll-table are mutually exclusive (a table is "
        "already a selector)");
  }
  if (seen.count("--perfmodel-tol") != 0 && !o.perfmodel_check) {
    throw xg::InputError("--perfmodel-tol requires --perfmodel-check");
  }
  if (o.perfmodel_tol < 1.0) {
    throw xg::InputError(
        "--perfmodel-tol must be >= 1 (it bounds the measured/predicted "
        "ratio on both sides)");
  }
  if (o.checkpoint_dir.empty()) {
    for (const char* f : {"--checkpoint-every", "--max-recoveries", "--resume"}) {
      if (seen.count(f) != 0) {
        throw xg::InputError(
            xg::strprintf("%s requires --checkpoint-dir", f));
      }
    }
  } else if (o.mode != xg::gyro::Mode::kReal) {
    throw xg::InputError(
        "--checkpoint-dir requires --mode real (model mode carries no "
        "restorable state)");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xg;
  // A run without --checkpoint-dir is not elastic: its first rank kill or
  // deadlock aborts the job.
  bool elastic = false;
  try {
    const Options opt = parse_args(argc, argv);
    xgyro::EnsembleInput manifest_ensemble;
    if (!opt.manifest.empty()) {
      manifest_ensemble =
          xgyro::EnsembleInput::load_manifest(opt.manifest, !opt.grouped);
    }
    const int n_members = !opt.manifest.empty()
                              ? manifest_ensemble.n_sims()
                              : static_cast<int>(opt.inputs.size());
    const bool ensemble_mode = n_members > 1;
    const int ranks_per_sim = ensemble_mode ? opt.ranks_per_sim : opt.ranks;
    const int total_ranks = ranks_per_sim * n_members;
    const int nodes = opt.nodes > 0 ? opt.nodes : (total_ranks + 7) / 8;
    const auto machine = net::frontier_like(nodes);
    XG_REQUIRE(machine.total_ranks() >= total_ranks,
               "not enough nodes for the requested rank count");

    // Resolve the run's collective selector: a JSON table beats a named
    // built-in; both default to the tuned table. The built-ins are statics,
    // wrapped in a non-owning shared_ptr via the aliasing constructor.
    std::shared_ptr<const mpi::CollSelector> selector;
    if (!opt.coll_table.empty()) {
      selector = telemetry::load_coll_table(opt.coll_table);
    } else if (!opt.coll_select.empty()) {
      selector = std::shared_ptr<const mpi::CollSelector>(
          std::shared_ptr<void>(), mpi::CollSelector::named(opt.coll_select));
    }

    elastic = !opt.checkpoint_dir.empty();
    xgyro::JobOptions jopts;
    jopts.n_report_intervals = opt.intervals;
    jopts.mode = opt.mode;
    jopts.faults = opt.faults;
    jopts.check_invariants = opt.check_invariants;
    jopts.coll_selector = selector;
    // Telemetry artifacts need the trace stream; the report and metrics also
    // aggregate the traffic matrix. Both stay off unless requested. The
    // analysis engine works entirely from the trace, so --analyze implies it.
    jopts.enable_trace = !opt.trace_out.empty() || !opt.report_out.empty() ||
                         !opt.metrics_out.empty() || opt.analyze;
    jopts.enable_traffic = !opt.report_out.empty() || !opt.metrics_out.empty();
    jopts.sharing = opt.grouped ? xgyro::SharingPolicy::kGroupByFingerprint
                                : xgyro::SharingPolicy::kSingleGroup;
    jopts.cgyro_layout = !ensemble_mode;
    jopts.checkpoint_dir = opt.checkpoint_dir;
    jopts.checkpoint_every = opt.checkpoint_every;
    jopts.resume = opt.resume;
    jopts.max_recoveries = elastic ? opt.max_recoveries : 0;
    if (opt.faults.active()) {
      std::printf("%s\n", opt.faults.describe().c_str());
    }

    xgyro::EnsembleInput batch;
    if (!opt.manifest.empty()) {
      batch = manifest_ensemble;
    } else if (ensemble_mode) {
      batch = xgyro::EnsembleInput::load(opt.inputs, !opt.grouped);
    } else {
      batch.members.push_back(gyro::Input::load(opt.inputs.front()));
    }
    const char* mode_name = opt.mode == gyro::Mode::kReal ? "real" : "model";
    if (elastic) {
      std::printf("%s: %d member(s) x %d ranks on %d node(s), %s mode "
                  "(elastic checkpoints in %s)\n",
                  ensemble_mode ? "XGYRO" : "CGYRO", batch.n_sims(),
                  ranks_per_sim, nodes, mode_name, opt.checkpoint_dir.c_str());
    } else if (ensemble_mode) {
      std::printf("XGYRO: %d members x %d ranks on %d node(s), %s mode\n",
                  batch.n_sims(), opt.ranks_per_sim, nodes, mode_name);
    } else {
      std::printf("CGYRO: '%s' on %d ranks / %d node(s), %s mode\n",
                  batch.members.front().tag.c_str(), total_ranks, nodes,
                  mode_name);
    }

    const auto job = xgyro::run_job(batch, machine, ranks_per_sim, jopts);
    const mpi::RunResult& result = job.run;

    std::printf("\n%-16s %8s %10s %14s %14s\n", "member", "steps", "time",
                "phi_rms", "flux_proxy");
    for (int m = 0; m < batch.n_sims(); ++m) {
      const gyro::Diagnostics& d = job.diagnostics[static_cast<size_t>(m)];
      std::printf("%-16s %8d %10.3f %14.6e %14.6e\n",
                  batch.members[static_cast<size_t>(m)].tag.c_str(), d.steps,
                  d.time, d.phi_rms, d.flux_proxy);
    }
    std::printf("\n%s", gyro::format_timing(result, xgyro::solver_phases()).c_str());

    if (elastic) {
      std::printf(
          "checkpointing: %llu snapshot(s) committed, %llu corrupt snapshot(s) "
          "skipped, %zu recovery event(s)\n",
          static_cast<unsigned long long>(job.snapshots_committed),
          static_cast<unsigned long long>(job.snapshots_rejected),
          job.recoveries.size());
      for (size_t i = 0; i < job.recoveries.size(); ++i) {
        const auto& ev = job.recoveries[i];
        std::printf(
            "  recovery %zu: %s (rank %d at t=%.3e s, phase %s) -> resumed "
            "at interval %lld on %d node(s), %d ranks/sim\n",
            i + 1, ev.kind.c_str(), ev.world_rank, ev.virtual_time_s,
            ev.phase.c_str(), static_cast<long long>(ev.resumed_interval),
            ev.nodes_after, ev.ranks_per_sim_after);
      }
    }

    if (!result.fault_stats.empty()) {
      std::uint64_t delayed = 0;
      double delay_s = 0.0, straggle_s = 0.0;
      for (const auto& f : result.fault_stats) {
        delayed += f.delayed_msgs;
        delay_s += f.delay_added_s;
        straggle_s += f.straggler_added_s;
      }
      std::printf(
          "fault injection: %llu message(s) delayed (+%.3e s), straggler "
          "overhead +%.3e s; %llu collective(s) invariant-checked\n",
          static_cast<unsigned long long>(delayed), delay_s, straggle_s,
          static_cast<unsigned long long>(result.collectives_checked));
    }

    analysis::CriticalPath cpath;
    analysis::WaitWorkSummary waitwork;
    if (opt.analyze) {
      cpath = analysis::compute_critical_path(result);
      waitwork = analysis::analyze_waitwork(result);
      std::printf("\n%s", analysis::format_critical_path(cpath).c_str());
      std::printf("\n%s", analysis::format_waitwork(waitwork).c_str());
    }

    telemetry::Json divergence_doc;  // null unless --perfmodel-check ran
    bool divergence_failed = false;
    if (opt.perfmodel_check) {
      // Replay the closed-form prediction for the *initial* configuration;
      // an elastic run that replanned onto a different layout is expected
      // to diverge from it.
      const gyro::Input& analysis_input = batch.members.front();
      const auto analysis_decomp =
          gyro::Decomposition::choose(analysis_input, ranks_per_sim, n_members);
      const analysis::DivergenceReport div = analysis::check_divergence(
          result, analysis_input, analysis_decomp, n_members, machine,
          opt.intervals, opt.perfmodel_tol, selector.get());
      std::printf("\n%s", analysis::format_divergence(div).c_str());
      divergence_doc = analysis::divergence_json(div);
      divergence_failed = !div.pass;
    }

    if (!opt.timing_out.empty()) {
      gyro::write_timing_log(
          opt.timing_out,
          gyro::timing_rows(result, xgyro::solver_phases()), result.makespan_s);
      std::printf("timing log written to %s\n", opt.timing_out.c_str());
    }
    if (!opt.trace_out.empty()) {
      telemetry::write_chrome_trace(opt.trace_out, result);
      std::printf("chrome trace written to %s (open with ui.perfetto.dev)\n",
                  opt.trace_out.c_str());
    }
    if (!opt.report_out.empty() || !opt.metrics_out.empty()) {
      const net::Placement placement(job.machine);
      telemetry::MetricsRegistry registry =
          telemetry::collect_run_metrics(result, placement);
      if (opt.analyze) analysis::record_waitwork_metrics(waitwork, registry);
      if (!opt.report_out.empty()) {
        telemetry::RunReport report = telemetry::build_run_report(
            result, placement, xgyro::solver_phases(),
            ensemble_mode ? "xgyro" : "cgyro", n_members,
            /*with_metrics=*/false);
        report.metrics = registry.snapshot();
        if (opt.analyze || opt.perfmodel_check) {
          telemetry::Json analysis_doc = telemetry::Json::object();
          if (opt.analyze) {
            analysis_doc.set("critical_path",
                             analysis::critical_path_json(cpath));
            analysis_doc.set("waitwork", analysis::waitwork_json(waitwork));
          }
          if (opt.perfmodel_check) {
            analysis_doc.set("divergence", divergence_doc);
          }
          report.analysis = std::move(analysis_doc);
        }
        if (elastic) {
          report.have_recovery = true;
          report.snapshots_committed = job.snapshots_committed;
          report.snapshots_rejected = job.snapshots_rejected;
          report.recoveries = job.recoveries;
        }
        telemetry::write_run_report(opt.report_out, report);
        std::printf("run report written to %s\n", opt.report_out.c_str());
      }
      if (!opt.metrics_out.empty()) {
        telemetry::write_json_file(opt.metrics_out, registry.snapshot());
        std::printf("metrics written to %s\n", opt.metrics_out.c_str());
      }
    }
    if (divergence_failed) {
      // Artifacts above are still written (the report records the failed
      // gate); the exit status is what CI keys on.
      throw Error(strprintf(
          "perf-model divergence gate failed (tolerance %.2fx); see table "
          "above",
          opt.perfmodel_tol));
    }
    return 0;
  } catch (const xgyro::JobAborted& e) {
    std::fprintf(stderr, "xgyro_cli: job aborted (%s)\n", e.kind().c_str());
    // A run that is not elastic passes max_recoveries = 0 because recovery
    // is off, not because a budget was spent.
    const std::string reason =
        elastic ? e.reason() : "recovery not enabled (no --checkpoint-dir)";
    std::fprintf(stderr, "  reason : %s\n", reason.c_str());
    std::fprintf(stderr, "  rank   : %d\n", e.world_rank());
    std::fprintf(stderr, "  vtime  : %.9e s\n", e.virtual_time_s());
    std::fprintf(stderr, "  phase  : %s\n", e.phase().c_str());
    std::fprintf(stderr, "  detail : %s\n", e.summary(reason).c_str());
    // A deadlock's report: every blocked rank and the receive it waits in.
    if (!e.report().empty()) std::fprintf(stderr, "%s\n", e.report().c_str());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "xgyro_cli: %s\n", e.what());
    return 1;
  }
}
