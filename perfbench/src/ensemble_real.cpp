// Workload ensemble_real: a k = 4 real-mode, nonlinear, shared-cmat
// ensemble with one rank per member. One op is one report interval: every
// rank calls EnsembleDriver::advance_report_interval and then
// ckpt::snapshot_rank into a shared CheckpointWriter — what run_xgyro_job
// does with checkpoint_every = 1. The work is the batched collision apply,
// the FFT bracket, real-payload transposes and checkpoint writes.
//
// The op loop lives inside the rank bodies: a host barrier (outside the
// simulated schedule, so virtual results are untouched) separates ops, and
// its completion step times each op, validates the snapshot it committed,
// and decides whether to issue another.
//
// Check: the final per-member Diagnostics and state_hash equal those of
// campaign::run_job_elastic on the same batch, interval count and
// checkpoint settings (run after the loop, never timed); every snapshot
// commits and validates.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <unistd.h>

#include "campaign/campaign.hpp"
#include "checkpoint/checkpoint.hpp"
#include "collision/operator.hpp"
#include "fft/fft.hpp"
#include "gyro/geometry.hpp"
#include "gyro/simulation.hpp"
#include "harness.hpp"
#include "spans.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "xgyro/ensemble.hpp"

namespace pb {
namespace {

using namespace xg;
namespace fs = std::filesystem;

constexpr int kMembers = 4;
constexpr int kStepsPerReport = 4;

struct Inputs {
  xgyro::EnsembleInput batch;
  net::MachineSpec machine;
  gyro::Decomposition decomp;
};

/// 2 species, nc = 8×8, nv = 2×4×8, nt = 8, nonlinear. The seed sets each
/// member's gradient drive and initial-condition seed; the cmat-relevant
/// parameters are fixed, so the members share one tensor.
Inputs make_inputs(std::uint64_t seed) {
  Rng rng(seed);
  gyro::Input base = gyro::Input::small_test(2);
  base.n_radial = 8;
  base.n_theta = 8;
  base.n_energy = 4;
  base.n_xi = 8;
  base.n_toroidal = 8;
  base.nonlinear = true;
  base.n_steps_per_report = kStepsPerReport;
  std::vector<double> drives(kMembers);
  std::vector<std::uint64_t> seeds(kMembers);
  for (int i = 0; i < kMembers; ++i) {
    drives[static_cast<size_t>(i)] = rng.uniform(1.5, 4.0);
    seeds[static_cast<size_t>(i)] = 1 + rng.next_below(1000000);
  }
  Inputs in;
  in.batch = xgyro::EnsembleInput::sweep(base, kMembers, [&](gyro::Input& m, int i) {
    m.species[0].a_ln_t = drives[static_cast<size_t>(i)];
    m.seed = seeds[static_cast<size_t>(i)];
    m.tag = strprintf("member%d", i);
  });
  in.machine = net::testbox(1, kMembers);
  in.decomp = gyro::Decomposition::choose(in.batch.members.front(), 1, kMembers);
  return in;
}

struct MemberFinal {
  gyro::Diagnostics diag;
  std::uint64_t hash = 0;
};

bool same(const gyro::Diagnostics& a, const gyro::Diagnostics& b) {
  return a.steps == b.steps && bits(a.time) == bits(b.time) &&
         bits(a.phi_rms) == bits(b.phi_rms) && bits(a.flux_proxy) == bits(b.flux_proxy) &&
         bits(a.free_energy) == bits(b.free_energy);
}

/// Steps and diagnostics of one report interval as separate calls
/// (Simulation::advance_report_interval does exactly these), timed on
/// rank 0 when a tracer is given.
gyro::Diagnostics traced_interval(gyro::Simulation& sim, Tracer* t, int parent, long op) {
  for (int s = 0; s < sim.input().n_steps_per_report; ++s) {
    const SpanScope span(t, "gyro.step", parent, op);
    sim.step();
  }
  const SpanScope span(t, "gyro.diag", parent, op);
  return sim.diagnostics();
}

/// Host-side view of one setup job (spawn, initialize, one interval, join).
struct SetupJob {
  double wall_ms = 0, spawn_ms = 0, join_ms = 0;
  mpi::RunResult result;
};

/// One set-up repetition on its own: runtime spawn, EnsembleDriver
/// initialize with its cmat build, and the untimed reference interval.
SetupJob setup_job(const Inputs& in, const std::string& dir) {
  fs::remove_all(dir);
  ckpt::CheckpointWriter writer(dir, kMembers);
  std::vector<double> enter(kMembers), exit(kMembers);
  SetupJob job;
  const double t0 = now_ms();
  job.result = mpi::run_simulation(in.machine, kMembers, [&](mpi::Proc& proc) {
    const auto r = static_cast<size_t>(proc.world_rank());
    enter[r] = now_ms();
    xgyro::EnsembleDriver driver(in.batch, in.decomp, proc, gyro::Mode::kReal);
    driver.initialize();
    (void)driver.advance_report_interval();
    ckpt::snapshot_rank(writer, 1, driver.simulation(), driver.sim_index());
    exit[r] = now_ms();
  });
  const double t1 = now_ms();
  job.wall_ms = t1 - t0;
  job.spawn_ms = *std::max_element(enter.begin(), enter.end()) - t0;
  job.join_ms = t1 - *std::max_element(exit.begin(), exit.end());
  return job;
}

/// The timed run: set-up, then the op loop inside the rank bodies.
class LoopRun {
 public:
  LoopRun(const Inputs& in, const Options& opt, std::string dir)
      : in_(in),
        opt_(opt),
        dir_(std::move(dir)),
        plain_(opt.trace ? opt.seconds / 2 : opt.seconds, opt.trace ? 10 : 100),
        traced_(opt.seconds / 2, 10),
        finals_(kMembers),
        write_ms_(kMembers),
        exit_ms_(kMembers),
        init_ms_(kMembers) {}

  /// Runs everything; returns the wall seconds from `start_ms` to the
  /// first timed op.
  double run(double start_ms) {
    fs::remove_all(dir_);
    writer_ = std::make_unique<ckpt::CheckpointWriter>(dir_, kMembers);
    start_ms_ = start_ms;
    std::barrier sync(kMembers, Completion{this});
    (void)mpi::run_simulation(in_.machine, kMembers,
                              [&](mpi::Proc& proc) { body(proc, sync); });
    if (!setup_error_.empty()) throw Error("ensemble set-up failed: " + setup_error_);
    return (setup_end_ms_ - start_ms_) / 1e3;
  }

  OpLoop& plain() { return plain_; }
  OpLoop& traced() { return traced_; }
  Tracer& tracer() { return tracer_; }
  [[nodiscard]] const std::vector<MemberFinal>& finals() const { return finals_; }
  [[nodiscard]] std::int64_t intervals() const { return interval_; }
  [[nodiscard]] const std::vector<double>& init_ms() const { return init_ms_; }
  [[nodiscard]] const std::vector<double>& op_write_ms() const { return op_write_ms_; }
  [[nodiscard]] const std::vector<double>& op_skew_ms() const { return op_skew_ms_; }
  [[nodiscard]] const LayerValues& replay() const { return replay_; }
  [[nodiscard]] std::uint64_t snapshot_bytes() const { return snapshot_bytes_; }
  [[nodiscard]] int threads() const { return threads_; }

 private:
  struct Completion {
    LoopRun* self;
    void operator()() noexcept { self->between_ops(); }
  };

  void body(mpi::Proc& proc, std::barrier<Completion>& sync) {
    const auto r = static_cast<size_t>(proc.world_rank());
    // Every rank must reach the barrier even when set-up throws, or the
    // others would wait on it forever.
    std::unique_ptr<xgyro::EnsembleDriver> driver;
    gyro::Diagnostics diag;
    try {
      driver = std::make_unique<xgyro::EnsembleDriver>(in_.batch, in_.decomp, proc,
                                                       gyro::Mode::kReal);
      const double t_init = now_ms();
      driver->initialize();
      init_ms_[r] = now_ms() - t_init;
      if (r == 0) threads_ = os_threads();
      // The untimed reference interval ends set-up.
      diag = driver->advance_report_interval();
      ckpt::snapshot_rank(*writer_, 1, driver->simulation(), driver->sim_index());
      const std::scoped_lock lock(mu_);
      snapshot_bytes_ += driver->simulation().state_data().size() * sizeof(gyro::cplx);
    } catch (const std::exception& e) {
      const std::scoped_lock lock(mu_);
      if (setup_error_.empty()) setup_error_ = e.what();
    }
    sync.arrive_and_wait();
    if (!setup_error_.empty()) return;
    gyro::Simulation& sim = driver->simulation();
    const int member = driver->sim_index();
    while (!stop_) {
      const long op = op_id_;
      Tracer* t = tracing_ && r == 0 ? &tracer_ : nullptr;
      try {
        if (tracing_) {
          const SpanScope adv(t, "xgyro.advance", op_span_, op);
          diag = traced_interval(sim, t, adv.id(), op);
        } else {
          diag = driver->advance_report_interval();
        }
        const double tw = now_ms();
        {
          const SpanScope w(t, "checkpoint.write", op_span_, op);
          ckpt::snapshot_rank(*writer_, interval_, sim, member);
        }
        write_ms_[r] = now_ms() - tw;
      } catch (const std::exception& e) {
        const std::scoped_lock lock(mu_);
        if (op_error_.empty()) op_error_ = std::string("exception: ") + e.what();
      }
      exit_ms_[r] = now_ms();
      sync.arrive_and_wait();
    }
    finals_[static_cast<size_t>(member)] = MemberFinal{diag, sim.state_hash()};
    if (r == 0 && opt_.trace) replay_kernels(sim);
  }

  /// Barrier completion: runs on one thread while every rank waits.
  void between_ops() {
    const double t = now_ms();
    try {
      OpLoop& loop = tracing_ ? traced_ : plain_;
      if (!setup_error_.empty()) {
        stop_ = true;
        return;
      }
      if (in_op_) {
        finish_op(loop, t);
      } else {
        setup_end_ms_ = t;
        loop.begin();
      }
      if (!loop.more()) {
        loop.end();
        if (opt_.trace && !tracing_) {
          tracing_ = true;
          traced_.begin();
        } else {
          stop_ = true;
        }
      }
    } catch (const std::exception& e) {
      op_error_ = std::string("exception between ops: ") + e.what();
      stop_ = true;
    }
    in_op_ = !stop_;
    if (stop_) return;
    ++interval_;
    op_id_ = (tracing_ ? traced_ : plain_).attempted();
    op_t0_ = now_ms();
    if (tracing_) op_span_ = tracer_.open("bench.op", -1, op_id_);
  }

  void finish_op(OpLoop& loop, double t) {
    std::string why = op_error_;
    op_error_.clear();
    if (why.empty() && writer_->snapshots_committed() != static_cast<std::uint64_t>(interval_)) {
      why = strprintf("snapshot %lld did not commit", static_cast<long long>(interval_));
    }
    if (why.empty()) {
      try {
        (void)ckpt::validate_snapshot(dir_ + "/" + ckpt::snapshot_dirname(interval_));
      } catch (const std::exception& e) {
        why = std::string("snapshot invalid: ") + e.what();
      }
    }
    loop.record(t - op_t0_, why.empty());
    if (!why.empty() && loop.first_error.empty()) loop.first_error = why;
    if (tracing_) {
      tracer_.close(op_span_);
      op_write_ms_.push_back(*std::max_element(write_ms_.begin(), write_ms_.end()));
      const auto [lo, hi] = std::minmax_element(exit_ms_.begin(), exit_ms_.end());
      op_skew_ms_.push_back(*hi - *lo);
    }
  }

  /// Kernel replays on rank 0's real slices, after the loop.
  void replay_kernels(const gyro::Simulation& sim) {
    const auto& cm = sim.cmat();
    const int nv = cm.nv();
    const int k = kMembers;
    std::vector<gyro::cplx> x(static_cast<size_t>(nv) * k), y(x.size());
    for (size_t i = 0; i < x.size(); ++i) x[i] = {1.0 / (1.0 + i), 0.5 / (1.0 + i)};
    long cells = 0;
    const double t0 = now_ms();
    {
      const SpanScope span(&tracer_, "collision.apply_batch", -1, -1);
      while (now_ms() - t0 < 100.0) {
        for (int c = 0; c < cm.n_cells(); ++c) cm.apply_batch(c, x, y, k);
        cells += cm.n_cells();
      }
    }
    const double apply_s = (now_ms() - t0) / 1e3;
    replay_["collision.apply_cells_per_s"] = cells / apply_s;
    replay_["collision.apply_gflops"] = cells * k * cm.apply_flops() / apply_s / 1e9;
    replay_["collision.bytes_per_flop"] = cm.cell_bytes() / (k * cm.apply_flops());
    replay_["collision.cmat_mb"] = static_cast<double>(cm.bytes()) / 1e6;

    const int nt = sim.input().nt();
    const long lines = static_cast<long>(sim.input().nc()) * sim.nv_loc();
    fft::Plan plan(static_cast<size_t>(nt));
    std::vector<gyro::cplx> buf(static_cast<size_t>(lines) * nt);
    for (size_t i = 0; i < buf.size(); ++i) buf[i] = {std::sin(0.1 * i), std::cos(0.3 * i)};
    long done = 0;
    const double f0 = now_ms();
    {
      const SpanScope span(&tracer_, "fft.forward_inverse", -1, -1);
      while (now_ms() - f0 < 100.0) {
        for (long l = 0; l < lines; ++l) {
          std::span<gyro::cplx> line(buf.data() + l * nt, static_cast<size_t>(nt));
          plan.forward(line);
          plan.inverse(line);
        }
        done += lines;
      }
    }
    replay_["fft.lines_per_s"] = done / ((now_ms() - f0) / 1e3);
  }

  const Inputs& in_;
  const Options& opt_;
  std::string dir_;
  std::unique_ptr<ckpt::CheckpointWriter> writer_;

  // Loop control: written only in the barrier completion (or before the
  // first barrier), read by ranks after it — the barrier orders both.
  OpLoop plain_, traced_;
  bool in_op_ = false;
  bool tracing_ = false;
  bool stop_ = false;
  std::int64_t interval_ = 1;  ///< snapshot interval of the op in flight
  long op_id_ = 0;
  int op_span_ = -1;
  double op_t0_ = 0.0;
  double start_ms_ = 0.0, setup_end_ms_ = 0.0;

  std::mutex mu_;  ///< guards op_error_, setup_error_, snapshot_bytes_ on ranks
  std::string op_error_;
  std::string setup_error_;
  std::uint64_t snapshot_bytes_ = 0;

  std::vector<MemberFinal> finals_;  ///< indexed by member
  std::vector<double> write_ms_, exit_ms_, init_ms_;  ///< per rank, current op
  std::vector<double> op_write_ms_, op_skew_ms_;      ///< per traced op
  int threads_ = -1;
  Tracer tracer_;
  LayerValues replay_;
};

/// Reference: run_job_elastic over the same interval count with the same
/// checkpoint settings, then each member's state_hash from its final
/// snapshot (restored into a fresh ensemble). Returns the time of
/// find_latest_valid + load_manifest + the slowest rank's restore_rank.
double reference(const Inputs& in, std::int64_t intervals, const std::string& dir,
                 std::vector<MemberFinal>& out) {
  fs::remove_all(dir);
  campaign::RecoveryOptions ro;
  ro.checkpoint_dir = dir;
  ro.checkpoint_every = 1;
  ro.max_recoveries = 0;
  const auto ref = campaign::run_job_elastic(in.batch, in.machine, 1,
                                             static_cast<int>(intervals), gyro::Mode::kReal, ro);
  out.assign(kMembers, MemberFinal{});
  for (int m = 0; m < kMembers; ++m) out[static_cast<size_t>(m)].diag = ref.diagnostics.at(static_cast<size_t>(m));

  const double t0 = now_ms();
  const auto scan = ckpt::find_latest_valid(dir);
  if (!scan.latest_valid.has_value()) throw Error("reference run left no valid snapshot");
  const std::string path = scan.latest_valid->path;
  const ckpt::Manifest manifest = ckpt::load_manifest(path);
  const double find_load_ms = now_ms() - t0;
  std::vector<double> restore_ms(kMembers);
  (void)mpi::run_simulation(in.machine, kMembers, [&](mpi::Proc& proc) {
    xgyro::EnsembleDriver driver(in.batch, in.decomp, proc, gyro::Mode::kReal);
    driver.initialize();
    const double r0 = now_ms();
    ckpt::restore_rank(path, manifest, driver.simulation(), driver.sim_index());
    restore_ms[static_cast<size_t>(proc.world_rank())] = now_ms() - r0;
    out[static_cast<size_t>(driver.sim_index())].hash = driver.simulation().state_hash();
  });
  return find_load_ms + *std::max_element(restore_ms.begin(), restore_ms.end());
}

/// Each member alone on one rank (classic CGYRO layout): wall of one
/// report interval, after initialize.
double sequential_interval_ms(const Inputs& in) {
  double total = 0.0;
  for (const auto& member : in.batch.members) {
    const auto decomp = gyro::Decomposition::choose(member, 1);
    double ms = 0.0;
    (void)mpi::run_simulation(net::testbox(1, 1), 1, [&](mpi::Proc& proc) {
      auto layout = gyro::make_cgyro_layout(proc.world(), decomp);
      gyro::Simulation sim(member, decomp, std::move(layout), proc, gyro::Mode::kReal);
      sim.initialize();
      const double t0 = now_ms();
      (void)sim.advance_report_interval();
      ms = now_ms() - t0;
    });
    total += ms;
  }
  return total;
}

/// Median wall of building one cell's step matrix (operator + implicit
/// step matrix, LU inside) over the member's first cells.
double build_cell_ms(const gyro::Input& input) {
  const auto grid = input.make_velocity_grid();
  const auto scattering = collision::build_scattering_operator(grid, input.collision);
  const gyro::Geometry geo(input);
  std::vector<double> ms;
  for (int ic = 0; ic < std::min(geo.nc(), 16); ++ic) {
    const auto rates = collision::gyro_diffusion_rates(grid, input.collision, geo.kperp2(ic, 1));
    const double t0 = now_ms();
    const auto c = collision::build_cell_operator(scattering, rates);
    const auto a = collision::build_implicit_step_matrix(c, input.dt);
    ms.push_back(now_ms() - t0);
    if (a.rows() != grid.nv()) throw Error("unexpected step-matrix shape");
  }
  return median(ms);
}

std::string compare(const std::vector<MemberFinal>& got, const std::vector<MemberFinal>& want) {
  for (size_t m = 0; m < got.size(); ++m) {
    if (!same(got[m].diag, want[m].diag)) {
      return strprintf("member %zu diagnostics differ from run_job_elastic", m);
    }
    if (got[m].hash != want[m].hash) {
      return strprintf("member %zu state_hash %016llx != reference %016llx", m,
                       static_cast<unsigned long long>(got[m].hash),
                       static_cast<unsigned long long>(want[m].hash));
    }
  }
  return "";
}

/// Checkpoint scratch space, removed however the workload ends.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(std::string p) : path(std::move(p)) { fs::create_directories(path); }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

}  // namespace

Result run_ensemble_real(const Options& opt) {
  Result r;
  const ScratchDir scratch(strprintf("%s/ensemble-%d", opt.scratch_dir.c_str(), getpid()));
  const std::string& root = scratch.path;

  std::vector<double> setup_s;
  std::vector<SetupJob> setup_jobs;
  for (int i = 0; i + 1 < kSetupRepeats; ++i) {
    const double t0 = now_ms();
    const Inputs in = make_inputs(opt.seed);
    setup_jobs.push_back(setup_job(in, root + "/setup"));
    setup_s.push_back((now_ms() - t0) / 1e3);
  }
  const double t0 = now_ms();
  const Inputs in = make_inputs(opt.seed);
  LoopRun run(in, opt, root + "/run");
  setup_s.push_back(run.run(t0));

  std::vector<MemberFinal> want;
  const double restore_ms = reference(in, run.intervals(), root + "/ref", want);
  if (opt.perturb) want[0].hash ^= 1u;
  const std::string why = compare(run.finals(), want);
  if (!why.empty()) {
    for (OpLoop* l : {&run.plain(), &run.traced()}) {
      l->fail_all();
      if (l->first_error.empty()) l->first_error = "final state: " + why;
    }
  }

  r.note(strprintf("ensemble_real: k=%d real-mode nonlinear shared-cmat members, 1 rank each, "
                   "nc=%d nv=%d nt=%d, %d steps per report; one op = advance_report_interval "
                   "+ snapshot_rank; %lld intervals checked against run_job_elastic",
                   kMembers, in.batch.members[0].nc(), in.batch.members[0].nv(),
                   in.batch.members[0].nt(), kStepsPerReport,
                   static_cast<long long>(run.intervals())));

  if (!opt.trace) {
    add_end_to_end(r, run.plain(), setup_s, kMembers * kStepsPerReport, kMembers);
    return r;
  }

  LayerValues v = run.replay();
  std::vector<double> wall, spawn, join;
  double msgs = 0, bytes = 0, colls = 0;
  for (const auto& j : setup_jobs) {
    wall.push_back(j.wall_ms);
    spawn.push_back(j.spawn_ms);
    join.push_back(j.join_ms);
  }
  // Exact counts of one setup job: initialize plus one report interval.
  const mpi::RunResult& one = setup_jobs.front().result;
  for (const auto& rank : one.ranks) {
    const auto t = rank.total();
    msgs += static_cast<double>(t.msgs_sent);
    bytes += static_cast<double>(t.bytes_sent);
  }
  colls = static_cast<double>(one.collectives_checked);
  for (const char* ph : {"str_comm", "nl_comm", "coll_comm"}) {
    const auto pt = one.phase_total(ph);
    v[std::string("simmpi.msgs.") + ph] = static_cast<double>(pt.msgs_sent);
    v[std::string("simmpi.bytes.") + ph] = static_cast<double>(pt.bytes_sent);
  }
  v["simmpi.msgs"] = msgs;
  v["simmpi.bytes"] = bytes;
  v["simmpi.collectives"] = colls;
  v["simmpi.job_wall_ms"] = median(wall);
  v["simmpi.us_per_msg"] = msgs > 0 ? 1e3 * median(wall) / msgs : 0.0;
  v["simmpi.spawn_ms"] = median(spawn);
  v["simmpi.join_ms"] = median(join);
  v["simmpi.rank_skew_ms"] = median(run.op_skew_ms());
  const Usage& u0 = run.traced().usage_before();
  const Usage& u1 = run.traced().usage_after();
  const double user = u1.user_ms - u0.user_ms, sys = u1.sys_ms - u0.sys_ms;
  v["simmpi.sys_frac"] = user + sys > 0 ? sys / (user + sys) : 0.0;
  // Messages of the traced ops: the per-interval schedule times the ops.
  double interval_msgs = 0;
  for (const char* ph : {"str", "str_comm", "nl", "nl_comm", "coll", "coll_comm", "report"}) {
    interval_msgs += static_cast<double>(one.phase_total(ph).msgs_sent);
  }
  const double traced_msgs = interval_msgs * static_cast<double>(run.traced().attempted());
  v["simmpi.ctx_switches_per_msg"] =
      traced_msgs > 0 ? static_cast<double>(u1.ctx_switches - u0.ctx_switches) / traced_msgs : 0.0;
  v["simmpi.os_threads_peak"] = run.threads();

  const Tracer& tr = run.tracer();
  v["xgyro.init_ms"] = *std::max_element(run.init_ms().begin(), run.init_ms().end());
  v["xgyro.advance_ms"] = median(tr.durations("xgyro.advance"));
  v["xgyro.ensemble_vs_sequential"] =
      v["xgyro.advance_ms"] > 0 ? sequential_interval_ms(in) / v["xgyro.advance_ms"] : 0.0;
  v["gyro.step_ms"] = median(tr.durations("gyro.step"));
  v["gyro.diag_ms"] = median(tr.durations("gyro.diag"));
  v["collision.build_cell_ms"] = build_cell_ms(in.batch.members.front());
  const double write_ms = median(run.op_write_ms());
  v["checkpoint.write_ms"] = write_ms;
  v["checkpoint.bytes"] = static_cast<double>(run.snapshot_bytes());
  v["checkpoint.mb_per_s"] = write_ms > 0 ? run.snapshot_bytes() / 1e6 / (write_ms / 1e3) : 0.0;
  v["checkpoint.restore_ms"] = restore_ms;

  finish_traced(r, run.plain(), run.traced(), tr, std::move(v));
  return r;
}

}  // namespace pb
