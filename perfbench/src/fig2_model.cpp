// Workload fig2_model: one Fig. 2 pair per op on the nl03c machine in model
// mode. First run_cgyro_job runs one nl03c-like variant on all 256 ranks,
// then run_xgyro_job runs the 8-variant sweep at 32 ranks each sharing
// cmat. Model mode has no real kernels, so the op's wall time is the
// runtime's: one OS thread per rank, mailboxes, collective schedules.
//
// Check: every op's virtual results (makespans, per-phase max seconds,
// message/byte/collective counts of both jobs) are bit-identical to the
// set-up reference op's, and XGYRO beats the CGYRO sum in total and in
// str_comm.
#include <algorithm>
#include <bit>
#include <optional>

#include "gyro/simulation.hpp"
#include "harness.hpp"
#include "perfmodel/perfmodel.hpp"
#include "spans.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "xgyro/driver.hpp"
#include "xgyro/ensemble.hpp"

namespace pb {
namespace {

using namespace xg;

constexpr int kVariants = 8;
constexpr int kNodes = 32;
constexpr int kStepsPerReport = 1;

struct Inputs {
  gyro::Input cgyro;
  xgyro::EnsembleInput ensemble;
  net::MachineSpec machine;
  int total_ranks = 0;
};

/// The seed picks the sweep-safe temperature-gradient drives.
Inputs make_inputs(std::uint64_t seed) {
  Rng rng(seed);
  gyro::Input base = gyro::Input::nl03c_like();
  base.n_steps_per_report = kStepsPerReport;
  gyro::Input cgyro = base;
  cgyro.species[0].a_ln_t = rng.uniform(1.5, 4.0);
  std::vector<double> drives(kVariants);
  for (double& d : drives) d = rng.uniform(1.5, 4.0);
  auto ensemble = xgyro::EnsembleInput::sweep(base, kVariants, [&](gyro::Input& m, int i) {
    m.species[0].a_ln_t = drives[static_cast<size_t>(i)];
    m.tag = strprintf("nl03c_v%d", i);
  });
  const auto machine = perfmodel::nl03c_machine(kNodes);
  return Inputs{std::move(cgyro), std::move(ensemble), machine, machine.total_ranks()};
}

struct Pair {
  mpi::RunResult cgyro, xgyro;
};

Pair run_pair(const Inputs& in) {
  const xgyro::JobOptions opts;  // model mode, invariants on
  Pair p;
  p.cgyro = xgyro::run_cgyro_job(in.cgyro, in.machine, in.total_ranks, opts);
  p.xgyro = xgyro::run_xgyro_job(in.ensemble, in.machine, in.total_ranks / kVariants, opts);
  return p;
}

std::vector<std::string> accounted_phases() {
  auto phases = xgyro::solver_phases();
  phases.push_back("init");
  return phases;
}

mpi::PhaseStats job_total(const mpi::RunResult& r) {
  mpi::PhaseStats t;
  for (const auto& rank : r.ranks) t += rank.total();
  return t;
}

std::string job_signature(const mpi::RunResult& r) {
  std::string s = bits(r.makespan_s);
  for (const auto& ph : accounted_phases()) {
    s += ':';
    s += bits(r.phase_max_time(ph));
  }
  const mpi::PhaseStats t = job_total(r);
  return s + strprintf(":%llu:%llu:%llu", static_cast<unsigned long long>(t.msgs_sent),
                       static_cast<unsigned long long>(t.bytes_sent),
                       static_cast<unsigned long long>(r.collectives_checked));
}

std::string signature(const Pair& p) {
  return job_signature(p.cgyro) + "|" + job_signature(p.xgyro);
}

std::string check(const Pair& p, const std::string& reference) {
  if (signature(p) != reference) return "virtual results differ from the reference op";
  const double cg_total = kVariants * xgyro::report_step_seconds(p.cgyro);
  const double xg_total = xgyro::report_step_seconds(p.xgyro);
  const double cg_str = kVariants * xgyro::phase_seconds(p.cgyro, "str_comm");
  const double xg_str = xgyro::phase_seconds(p.xgyro, "str_comm");
  if (!(xg_total < cg_total && xg_str < cg_str)) {
    return strprintf("XGYRO does not beat the CGYRO sum (total %g vs %g, str_comm %g vs %g)",
                     xg_total, cg_total, xg_str, cg_str);
  }
  return "";
}

// --- traced replica ------------------------------------------------------------
// run_cgyro_job / run_xgyro_job with the default JobOptions run exactly
// these rank bodies (their snapshot and span hooks are inactive), so the
// traced op does the same work while the benchmark watches each rank's
// entry and exit and times rank 0's calls into the solver.

/// Host-side observations of one run_simulation call.
struct JobProbe {
  double entry_ms = 0.0, return_ms = 0.0;
  std::vector<double> enter_ms, exit_ms, init_ms;  ///< per rank
  int threads = -1;                                ///< sampled on rank 0
  Usage u0, u1;
  std::uint64_t msgs = 0;
  bool ensemble = false;

  explicit JobProbe(int nranks)
      : enter_ms(static_cast<size_t>(nranks)),
        exit_ms(static_cast<size_t>(nranks)),
        init_ms(static_cast<size_t>(nranks)) {}
};

/// Steps and diagnostics of one report interval, spans on rank 0 only
/// (Simulation::advance_report_interval does exactly these calls).
void traced_interval(gyro::Simulation& sim, Tracer* t, int parent, long op) {
  for (int s = 0; s < sim.input().n_steps_per_report; ++s) {
    const SpanScope span(t, "gyro.step", parent, op);
    sim.step();
  }
  const SpanScope span(t, "gyro.diag", parent, op);
  (void)sim.diagnostics();
}

template <typename Body>
mpi::RunResult probed_run(const Inputs& in, int nranks, const char* name, Tracer& tracer,
                          int parent, long op, JobProbe& p, Body&& body) {
  const SpanScope job(&tracer, name, parent, op);
  p.u0 = Usage::now();
  p.entry_ms = now_ms();
  auto result = mpi::run_simulation(
      in.machine, nranks,
      [&](mpi::Proc& proc) {
        const int r = proc.world_rank();
        p.enter_ms[static_cast<size_t>(r)] = now_ms();
        body(proc, r == 0 ? &tracer : nullptr, job.id());
        p.exit_ms[static_cast<size_t>(r)] = now_ms();
      },
      mpi::RuntimeOptions{});
  p.return_ms = now_ms();
  p.u1 = Usage::now();
  p.msgs = job_total(result).msgs_sent;
  return result;
}

Pair traced_pair(const Inputs& in, Tracer& tracer, long op, std::vector<JobProbe>& probes) {
  const SpanScope op_span(&tracer, "bench.op", -1, op);
  Pair out;
  {
    const int n = in.total_ranks;
    const auto decomp = gyro::Decomposition::choose(in.cgyro, n);
    JobProbe p(n);
    out.cgyro = probed_run(
        in, n, "simmpi.run_cgyro", tracer, op_span.id(), op, p,
        [&](mpi::Proc& proc, Tracer* t, int parent) {
          auto layout = gyro::make_cgyro_layout(proc.world(), decomp);
          gyro::Simulation sim(in.cgyro, decomp, std::move(layout), proc, gyro::Mode::kModel);
          {
            const SpanScope span(t, "gyro.initialize", parent, op);
            sim.initialize();
          }
          if (t != nullptr) p.threads = os_threads();
          traced_interval(sim, t, parent, op);
        });
    probes.push_back(std::move(p));
  }
  {
    const int rps = in.total_ranks / kVariants;
    const int n = rps * kVariants;
    const auto decomp = gyro::Decomposition::choose(in.ensemble.members.front(), rps, kVariants);
    JobProbe p(n);
    p.ensemble = true;
    out.xgyro = probed_run(
        in, n, "simmpi.run_xgyro", tracer, op_span.id(), op, p,
        [&](mpi::Proc& proc, Tracer* t, int parent) {
          xgyro::EnsembleDriver driver(in.ensemble, decomp, proc, gyro::Mode::kModel);
          const double t0 = now_ms();
          {
            const SpanScope span(t, "xgyro.initialize", parent, op);
            driver.initialize();
          }
          p.init_ms[static_cast<size_t>(proc.world_rank())] = now_ms() - t0;
          if (t != nullptr) p.threads = os_threads();
          const SpanScope adv(t, "xgyro.advance", parent, op);
          traced_interval(driver.simulation(), t, adv.id(), op);
        });
    probes.push_back(std::move(p));
  }
  return out;
}

LayerValues layer_values(const Pair& pair, const std::vector<JobProbe>& probes,
                         const Tracer& tracer) {
  LayerValues v;
  std::vector<double> wall, spawn, join, skew, xg_init;
  double wall_sum = 0, msgs_sum = 0, user = 0, sys = 0, ctx = 0;
  int threads = 0;
  for (const auto& p : probes) {
    const double w = p.return_ms - p.entry_ms;
    const auto [lo, hi] = std::minmax_element(p.exit_ms.begin(), p.exit_ms.end());
    wall.push_back(w);
    spawn.push_back(*std::max_element(p.enter_ms.begin(), p.enter_ms.end()) - p.entry_ms);
    join.push_back(p.return_ms - *hi);
    skew.push_back(*hi - *lo);
    if (p.ensemble) xg_init.push_back(*std::max_element(p.init_ms.begin(), p.init_ms.end()));
    wall_sum += w;
    msgs_sum += static_cast<double>(p.msgs);
    user += p.u1.user_ms - p.u0.user_ms;
    sys += p.u1.sys_ms - p.u0.sys_ms;
    ctx += static_cast<double>(p.u1.ctx_switches - p.u0.ctx_switches);
    threads = std::max(threads, p.threads);
  }
  v["simmpi.job_wall_ms"] = median(wall);
  v["simmpi.us_per_msg"] = msgs_sum > 0 ? 1e3 * wall_sum / msgs_sum : 0.0;
  v["simmpi.spawn_ms"] = median(spawn);
  v["simmpi.join_ms"] = median(join);
  v["simmpi.rank_skew_ms"] = median(skew);
  v["simmpi.sys_frac"] = user + sys > 0 ? sys / (user + sys) : 0.0;
  v["simmpi.ctx_switches_per_msg"] = msgs_sum > 0 ? ctx / msgs_sum : 0.0;
  v["simmpi.os_threads_peak"] = threads;

  // Exact per-op counts over both jobs.
  double msgs = 0, bytes = 0, colls = 0;
  for (const auto* r : {&pair.cgyro, &pair.xgyro}) {
    const auto t = job_total(*r);
    msgs += static_cast<double>(t.msgs_sent);
    bytes += static_cast<double>(t.bytes_sent);
    colls += static_cast<double>(r->collectives_checked);
    for (const char* ph : {"str_comm", "nl_comm", "coll_comm"}) {
      const auto pt = r->phase_total(ph);
      v[std::string("simmpi.msgs.") + ph] += static_cast<double>(pt.msgs_sent);
      v[std::string("simmpi.bytes.") + ph] += static_cast<double>(pt.bytes_sent);
    }
  }
  v["simmpi.msgs"] = msgs;
  v["simmpi.bytes"] = bytes;
  v["simmpi.collectives"] = colls;

  v["xgyro.init_ms"] = median(xg_init);
  v["xgyro.advance_ms"] = median(tracer.durations("xgyro.advance"));
  v["gyro.step_ms"] = median(tracer.durations("gyro.step"));
  v["gyro.diag_ms"] = median(tracer.durations("gyro.diag"));
  return v;
}

}  // namespace

Result run_fig2_model(const Options& opt) {
  Result r;
  std::optional<Inputs> inputs;
  std::string reference;
  const auto setup_s = repeat_setup([&] {
    inputs.emplace(make_inputs(opt.seed));
    Pair ref = run_pair(*inputs);  // the untimed reference op
    if (opt.perturb) {
      ref.cgyro.makespan_s =
          std::bit_cast<double>(std::bit_cast<std::uint64_t>(ref.cgyro.makespan_s) ^ 1u);
    }
    reference = signature(ref);
  });
  const Inputs& in = *inputs;
  const double rank_steps = 2.0 * in.total_ranks * kStepsPerReport;
  r.note(strprintf("fig2_model: nl03c-like, %d variants on %d nodes (%d ranks), %d step(s) "
                   "per report; one op = run_cgyro_job + run_xgyro_job",
                   kVariants, kNodes, in.total_ranks, kStepsPerReport));

  if (!opt.trace) {
    OpLoop loop(opt.seconds, 100);
    drive(loop, [&] { return check(run_pair(in), reference); });
    add_end_to_end(r, loop, setup_s, rank_steps, 1.0 + kVariants);
    return r;
  }

  OpLoop plain(opt.seconds / 2, 10);
  drive(plain, [&] { return check(run_pair(in), reference); });
  Tracer tracer;
  std::vector<JobProbe> probes;
  Pair last;
  OpLoop traced(opt.seconds / 2, 10);
  drive(traced, [&] {
    last = traced_pair(in, tracer, traced.attempted(), probes);
    return check(last, reference);
  });
  finish_traced(r, plain, traced, tracer, layer_values(last, probes, tracer));
  return r;
}

}  // namespace pb
