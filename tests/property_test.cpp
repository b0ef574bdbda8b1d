// Property-based tests across modules:
//  * RK4 convergence order against the exact linear-streaming solution;
//  * spectrum/diagnostic identities;
//  * randomized collective sequences checked against an in-test oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numeric>

#include "gyro/geometry.hpp"
#include "gyro/simulation.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"
#include "simnet/machine.hpp"
#include "util/error.hpp"
#include "util/keyvalue.hpp"
#include "util/rng.hpp"
#include "xgyro/driver.hpp"

namespace xg {
namespace {

using gyro::Decomposition;
using gyro::Input;
using gyro::Mode;
using gyro::Simulation;

/// Pure-streaming input: no collisions, no upwind, no drives — every state
/// element evolves exactly as h(t) = h(0)·e^{−iωt}.
Input streaming_only_input() {
  Input in = Input::small_test(1);
  in.collision.pitch_scattering = false;
  in.collision.energy_relaxation = false;
  in.collision.gyro_diffusion = false;
  in.upwind = 0.0;
  for (auto& s : in.species) {
    s.a_ln_n = 0.0;
    s.a_ln_t = 0.0;
  }
  return in;
}

/// Max error vs the analytic solution after integrating to time T with a
/// given dt, on one rank.
double streaming_error(double dt, double t_final) {
  Input in = streaming_only_input();
  in.dt = dt;
  in.n_steps_per_report = static_cast<int>(std::lround(t_final / dt));
  double err = 0.0;
  const auto d = Decomposition::choose(in, 1);
  mpi::run_simulation(net::testbox(1, 1), 1, [&](mpi::Proc& p) {
    auto layout = gyro::make_cgyro_layout(p.world(), d);
    Simulation sim(in, d, std::move(layout), p, Mode::kReal);
    sim.initialize();
    // Capture the initial condition before stepping.
    std::vector<std::complex<double>> h0(sim.state_data().begin(),
                                         sim.state_data().end());
    sim.advance_report_interval();

    const gyro::Geometry geo(in);
    const auto vg = in.make_velocity_grid();
    const auto h = sim.state_data();
    size_t idx = 0;
    for (int iv = 0; iv < vg.nv(); ++iv) {
      for (int ic = 0; ic < in.nc(); ++ic) {
        for (int it = 0; it < in.nt(); ++it, ++idx) {
          const double e = vg.energy(vg.energy_of(iv));
          const double xi = vg.xi(vg.xi_of(iv));
          const double omega = geo.kpar(ic) * vg.v_parallel(iv) +
                               0.4 * geo.ky(it) * e * (0.5 + 0.5 * xi * xi);
          const auto exact =
              h0[idx] * std::polar(1.0, -omega * t_final);
          err = std::max(err, std::abs(h[idx] - exact));
        }
      }
    }
  });
  return err;
}

TEST(Rk4, FourthOrderConvergenceOnStreaming) {
  const double T = 0.64;
  const double e1 = streaming_error(0.08, T);
  const double e2 = streaming_error(0.04, T);
  const double e3 = streaming_error(0.02, T);
  // Consecutive halvings must shrink the error ~16x (allow 10x..30x).
  EXPECT_GT(e1 / e2, 10.0) << "e1=" << e1 << " e2=" << e2;
  EXPECT_LT(e1 / e2, 30.0);
  EXPECT_GT(e2 / e3, 10.0) << "e2=" << e2 << " e3=" << e3;
  EXPECT_LT(e2 / e3, 30.0);
}

TEST(Rk4, StreamingPreservesModulus) {
  // −iω h is norm-preserving; at RK4 accuracy the modulus of each element
  // must be conserved to high order over a short run.
  Input in = streaming_only_input();
  in.dt = 0.01;
  in.n_steps_per_report = 20;
  const auto d = Decomposition::choose(in, 1);
  mpi::run_simulation(net::testbox(1, 1), 1, [&](mpi::Proc& p) {
    auto layout = gyro::make_cgyro_layout(p.world(), d);
    Simulation sim(in, d, std::move(layout), p, Mode::kReal);
    sim.initialize();
    std::vector<double> mod0;
    for (const auto& v : sim.state_data()) mod0.push_back(std::abs(v));
    sim.advance_report_interval();
    size_t i = 0;
    for (const auto& v : sim.state_data()) {
      EXPECT_NEAR(std::abs(v), mod0[i++], 1e-9);
    }
  });
}

TEST(FreeEnergy, ConservedByPureStreaming) {
  // −iω h preserves |h| per element, so W = Σ w|h|² is an invariant of the
  // streaming dynamics (up to RK4 truncation).
  Input in = streaming_only_input();
  in.dt = 0.01;
  in.n_steps_per_report = 10;
  const auto d = Decomposition::choose(in, 1);
  mpi::run_simulation(net::testbox(1, 1), 1, [&](mpi::Proc& p) {
    auto layout = gyro::make_cgyro_layout(p.world(), d);
    Simulation sim(in, d, std::move(layout), p, Mode::kReal);
    sim.initialize();
    const double w0 = sim.diagnostics().free_energy;
    sim.advance_report_interval();
    const double w1 = sim.diagnostics().free_energy;
    EXPECT_GT(w0, 0.0);
    EXPECT_NEAR(w1, w0, 1e-8 * w0);
  });
}

TEST(FreeEnergy, MonotoneDecayUnderCollisionsWithoutDrive) {
  // The discrete H-theorem at solver level: undriven, collisional dynamics
  // must shrink the free energy at every reporting step.
  Input in = Input::small_test(2);
  for (auto& s : in.species) {
    s.a_ln_n = 0.0;
    s.a_ln_t = 0.0;
  }
  in.collision.nu_ee = 0.5;
  in.n_steps_per_report = 4;
  const auto d = Decomposition::choose(in, 2);
  mpi::run_simulation(net::testbox(1, 2), 2, [&](mpi::Proc& p) {
    auto layout = gyro::make_cgyro_layout(p.world(), d);
    Simulation sim(in, d, std::move(layout), p, Mode::kReal);
    sim.initialize();
    double prev = sim.diagnostics().free_energy;
    EXPECT_GT(prev, 0.0);
    for (int i = 0; i < 5; ++i) {
      sim.advance_report_interval();
      const double w = sim.diagnostics().free_energy;
      EXPECT_LT(w, prev) << "interval " << i;
      prev = w;
    }
  });
}

TEST(FreeEnergy, DriveInjectsEnergyFasterThanUndriven) {
  Input in = Input::small_test(2);
  in.collision.nu_ee = 0.02;
  in.n_steps_per_report = 10;
  auto final_energy = [&](double alt) {
    Input v = in;
    v.species[0].a_ln_t = alt;
    double w = 0;
    const auto d = Decomposition::choose(v, 1);
    mpi::run_simulation(net::testbox(1, 1), 1, [&](mpi::Proc& p) {
      auto layout = gyro::make_cgyro_layout(p.world(), d);
      Simulation sim(v, d, std::move(layout), p, Mode::kReal);
      sim.initialize();
      sim.advance_report_interval();
      w = sim.diagnostics().free_energy;
    });
    return w;
  };
  EXPECT_GT(final_energy(6.0), final_energy(0.0));
}

TEST(Spectrum, SumMatchesPhiRmsIdentity) {
  Input in = Input::small_test(2);
  const auto d = Decomposition::choose(in, 1);
  mpi::run_simulation(net::testbox(1, 1), 1, [&](mpi::Proc& p) {
    auto layout = gyro::make_cgyro_layout(p.world(), d);
    Simulation sim(in, d, std::move(layout), p, Mode::kReal);
    sim.initialize();
    sim.advance_report_interval();
    const auto diag = sim.diagnostics();
    const auto spec = sim.phi_spectrum();
    ASSERT_EQ(static_cast<int>(spec.size()), in.nt());
    const double sum = std::accumulate(spec.begin(), spec.end(), 0.0);
    EXPECT_NEAR(sum, diag.phi_rms * diag.phi_rms * in.nc() * in.nt(),
                1e-12 + 1e-9 * sum);
    for (const double v : spec) EXPECT_GE(v, 0.0);
  });
}

TEST(Spectrum, IndependentOfToroidalSplit) {
  Input in = Input::small_test(2);
  std::vector<double> ref, split;
  for (const int nranks : {1, 4}) {
    const auto d = Decomposition::choose(in, nranks);
    mpi::run_simulation(net::testbox(1, nranks), nranks, [&](mpi::Proc& p) {
      auto layout = gyro::make_cgyro_layout(p.world(), d);
      Simulation sim(in, d, std::move(layout), p, Mode::kReal);
      sim.initialize();
      sim.advance_report_interval();
      const auto s = sim.phi_spectrum();
      if (p.world_rank() == 0) (nranks == 1 ? ref : split) = s;
    });
  }
  ASSERT_EQ(ref.size(), split.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_DOUBLE_EQ(ref[i], split[i]) << "mode " << i;
  }
}

// --- randomized collective sequences vs oracle ------------------------------

// Both fields are 8 bytes wide so the struct has no padding: gtest names each
// case by dumping the parameter's bytes, and padding bytes are indeterminate,
// which made the case names differ from run to run.
struct SeqCase {
  std::int64_t nranks;
  std::uint64_t seed;
};

class CollectiveSequence : public ::testing::TestWithParam<SeqCase> {};

TEST_P(CollectiveSequence, RandomSequenceMatchesOracle) {
  const int nranks = static_cast<int>(GetParam().nranks);
  const std::uint64_t seed = GetParam().seed;
  const int n_ops = 25;

  // Pre-generate the op schedule (shared by all ranks and the oracle).
  struct Op {
    int kind;    // 0 allreduce-sum, 1 bcast, 2 allgather, 3 alltoall, 4 barrier
    int count;   // elements per rank
    int root;
  };
  std::vector<Op> ops;
  {
    Rng rng(seed);
    for (int i = 0; i < n_ops; ++i) {
      Op op;
      op.kind = static_cast<int>(rng.next_below(5));
      op.count = 1 + static_cast<int>(rng.next_below(40));
      op.root = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nranks)));
      ops.push_back(op);
    }
  }
  // Deterministic per-(op, rank, element) payloads.
  const auto value = [](int op, int rank, int elem) {
    std::uint64_t s = op * 1000003ull + rank * 10007ull +
                      static_cast<std::uint64_t>(elem);
    return static_cast<double>(splitmix64(s) % 1000) - 500.0;
  };

  mpi::run_simulation(net::testbox(2, (nranks + 1) / 2), nranks, [&](mpi::Proc& p) {
    auto world = p.world();
    const int r = p.world_rank();
    for (int i = 0; i < n_ops; ++i) {
      const auto& op = ops[i];
      switch (op.kind) {
        case 0: {  // allreduce sum
          std::vector<double> buf(static_cast<size_t>(op.count));
          for (int e = 0; e < op.count; ++e) buf[e] = value(i, r, e);
          world.allreduce_sum(std::span<double>(buf));
          for (int e = 0; e < op.count; ++e) {
            double expect = 0;
            for (int q = 0; q < nranks; ++q) expect += value(i, q, e);
            ASSERT_NEAR(buf[e], expect, 1e-9) << "op " << i << " elem " << e;
          }
          break;
        }
        case 1: {  // bcast
          std::vector<double> buf(static_cast<size_t>(op.count));
          if (r == op.root) {
            for (int e = 0; e < op.count; ++e) buf[e] = value(i, op.root, e);
          }
          world.bcast(std::span<double>(buf), op.root);
          for (int e = 0; e < op.count; ++e) {
            ASSERT_EQ(buf[e], value(i, op.root, e)) << "op " << i;
          }
          break;
        }
        case 2: {  // allgather
          std::vector<double> mine(static_cast<size_t>(op.count));
          for (int e = 0; e < op.count; ++e) mine[e] = value(i, r, e);
          std::vector<double> all(mine.size() * nranks);
          world.allgather(std::span<const double>(mine), std::span<double>(all));
          for (int q = 0; q < nranks; ++q) {
            for (int e = 0; e < op.count; ++e) {
              ASSERT_EQ(all[static_cast<size_t>(q) * op.count + e],
                        value(i, q, e))
                  << "op " << i;
            }
          }
          break;
        }
        case 3: {  // alltoall: element e of block for q encodes (i, r->q, e)
          std::vector<double> send(static_cast<size_t>(op.count) * nranks);
          for (int q = 0; q < nranks; ++q) {
            for (int e = 0; e < op.count; ++e) {
              send[static_cast<size_t>(q) * op.count + e] =
                  value(i, r * 131 + q, e);
            }
          }
          std::vector<double> recv(send.size());
          world.alltoall(std::span<const double>(send), std::span<double>(recv));
          for (int q = 0; q < nranks; ++q) {
            for (int e = 0; e < op.count; ++e) {
              ASSERT_EQ(recv[static_cast<size_t>(q) * op.count + e],
                        value(i, q * 131 + r, e))
                  << "op " << i;
            }
          }
          break;
        }
        default:
          world.barrier();
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CollectiveSequence,
    ::testing::Values(SeqCase{2, 1}, SeqCase{3, 2}, SeqCase{4, 3},
                      SeqCase{5, 4}, SeqCase{8, 5}, SeqCase{8, 6},
                      SeqCase{13, 7}, SeqCase{16, 8}));

// ---------------------------------------------------------------------------
// Fuzz/property tests for the input-parsing layer: any byte soup must either
// parse or throw a structured xg::Error — never crash, hang, or UB.

TEST(KeyValueFuzz, TruncatedAndMalformedLinesErrorCleanly) {
  EXPECT_THROW(KeyValueFile::parse("N_RADIAL"), InputError);  // no '='
  EXPECT_THROW(KeyValueFile::parse("=5"), InputError);        // empty key
  EXPECT_THROW(KeyValueFile::parse("N_RADIAL=4\nN_THETA"), InputError);
  // Well-formed edge cases must still parse.
  EXPECT_NO_THROW(KeyValueFile::parse(""));
  EXPECT_NO_THROW(KeyValueFile::parse("# only a comment\n\n"));
  EXPECT_NO_THROW(KeyValueFile::parse("N_RADIAL=4  # trailing comment"));
}

TEST(KeyValueFuzz, DuplicateKeysLastAssignmentWins) {
  const auto kv = KeyValueFile::parse("N_RADIAL=4\nn_radial=16");
  EXPECT_EQ(kv.get_int("N_RADIAL"), 16);
  EXPECT_EQ(kv.size(), 1u);
}

TEST(KeyValueFuzz, BadNumericsThrowOnTypedAccessNotParse) {
  // The raw store accepts any value string; the typed getter is the gate.
  const auto kv =
      KeyValueFile::parse("N_RADIAL=abc\nE_MAX=1.5e\nDELTA_T=0.01x");
  EXPECT_THROW((void)kv.get_int("N_RADIAL"), InputError);
  EXPECT_THROW((void)kv.get_real("E_MAX"), InputError);
  EXPECT_THROW((void)kv.get_real("DELTA_T"), InputError);
  EXPECT_THROW(static_cast<void>(Input::from_keyvalue(kv)), Error);
}

TEST(KeyValueFuzz, RandomGarbageNeverCrashesParser) {
  // Printable soup plus structural characters the grammar cares about.
  const std::string charset =
      "ABCZaz019_=#. \t-+eE\n\r\\\"'%$;:,xX/()[]{}";
  Rng rng(20260807);
  for (int iter = 0; iter < 500; ++iter) {
    const int len = static_cast<int>(rng.next_u64() % 160);
    std::string text;
    text.reserve(static_cast<size_t>(len));
    for (int i = 0; i < len; ++i) {
      text += charset[rng.next_u64() % charset.size()];
    }
    try {
      const auto kv = KeyValueFile::parse(text, "<fuzz>");
      // If it parsed, typed access on every key must also be crash-free.
      for (const auto& key : kv.keys()) {
        try {
          static_cast<void>(kv.get_int(key));
        } catch (const Error&) {
        }
        try {
          static_cast<void>(kv.get_real(key));
        } catch (const Error&) {
        }
      }
    } catch (const Error&) {
      // Structured rejection is the other acceptable outcome.
    }
  }
}

TEST(InputFuzz, MutatedInputFilesParseOrErrorCleanly) {
  // Start from a valid serialized input and apply random single-character
  // mutations (delete / insert / flip / line truncation / duplication).
  // Every mutant must round-trip through the full Input parse+validate
  // chain with either success or a structured xg::Error.
  const std::string pristine = Input::small_test(2).to_keyvalue().to_string();
  const std::string charset = "ABCZaz019_=#. -+eE\n";
  Rng rng(777);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::string text = pristine;
    const int n_mut = 1 + static_cast<int>(rng.next_u64() % 4);
    for (int m = 0; m < n_mut && !text.empty(); ++m) {
      const size_t pos = rng.next_u64() % text.size();
      switch (rng.next_u64() % 4) {
        case 0:
          text.erase(pos, 1);
          break;
        case 1:
          text.insert(pos, 1, charset[rng.next_u64() % charset.size()]);
          break;
        case 2:
          text[pos] = charset[rng.next_u64() % charset.size()];
          break;
        default:
          text.resize(pos);  // truncated file (partial write)
          break;
      }
    }
    try {
      const auto in = Input::from_keyvalue(KeyValueFile::parse(text, "<fuzz>"));
      EXPECT_GT(in.n_radial, 0);  // validate() let it through, so it's sane
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    }
  }
  // The mutation engine must actually exercise both outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace xg
