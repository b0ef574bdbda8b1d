// Solver tests: input parsing and the cmat-relevant parameter partition,
// geometry, decomposition choice, physics sanity, decomposition-independent
// state evolution, real↔model timing equivalence, the RK4 stage kernels'
// AVX2 clones against their baseline ones, and the allocation-free warm
// bracket.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numbers>
#include <set>

#include "alloc_count.hpp"
#include "collision/operator.hpp"
#include "gyro/decomposition.hpp"
#include "gyro/geometry.hpp"
#include "gyro/input.hpp"
#include "gyro/kernels.hpp"
#include "gyro/simulation.hpp"
#include "isa_check.hpp"
#include "simnet/machine.hpp"
#include "util/cpu.hpp"
#include "xgyro/driver.hpp"

namespace xg::gyro {
namespace {

TEST(Input, KeyValueRoundTrip) {
  Input in = Input::small_test(2);
  in.species[0].a_ln_t = 2.25;
  in.collision.nu_ee = 0.07;
  in.seed = 99;
  const Input back = Input::from_keyvalue(in.to_keyvalue());
  EXPECT_EQ(back.n_radial, in.n_radial);
  EXPECT_EQ(back.n_species(), 2);
  EXPECT_DOUBLE_EQ(back.species[0].a_ln_t, 2.25);
  EXPECT_DOUBLE_EQ(back.collision.nu_ee, 0.07);
  EXPECT_EQ(back.seed, 99u);
  EXPECT_EQ(back.cmat_fingerprint(), in.cmat_fingerprint());
}

TEST(Input, SweepSafeParametersDoNotTouchCmatFingerprint) {
  const Input base = Input::small_test(2);
  Input sweep = base;
  sweep.species[0].a_ln_n = 5.0;  // drive
  sweep.species[1].a_ln_t = 0.5;  // drive
  sweep.amp0 = 0.1;
  sweep.seed = 12345;
  sweep.nonlinear = true;
  sweep.upwind = 0.2;
  sweep.n_steps_per_report = 50;
  sweep.tag = "variant";
  EXPECT_EQ(sweep.cmat_fingerprint(), base.cmat_fingerprint());
}

TEST(Input, CmatRelevantParametersChangeFingerprint) {
  const Input base = Input::small_test(2);
  const auto fp = base.cmat_fingerprint();
  {
    Input v = base;
    v.collision.nu_ee *= 1.001;
    EXPECT_NE(v.cmat_fingerprint(), fp) << "nu_ee";
  }
  {
    Input v = base;
    v.dt *= 2;
    EXPECT_NE(v.cmat_fingerprint(), fp) << "dt";
  }
  {
    Input v = base;
    v.shear = 0.8;
    EXPECT_NE(v.cmat_fingerprint(), fp) << "shear";
  }
  {
    Input v = base;
    v.species[1].physics.temperature = 1.1;
    EXPECT_NE(v.cmat_fingerprint(), fp) << "species temperature";
  }
  {
    Input v = base;
    v.n_xi *= 2;
    EXPECT_NE(v.cmat_fingerprint(), fp) << "n_xi";
  }
  {
    Input v = base;
    v.collision.cross_species_exchange = true;
    EXPECT_NE(v.cmat_fingerprint(), fp) << "cross_species_exchange";
  }
  {
    Input v = base;
    v.n_field = 3;
    EXPECT_NE(v.cmat_fingerprint(), fp) << "n_field";
  }
}

std::pair<std::uint64_t, Diagnostics> run_real(const Input& in, int nranks,
                                               int n_intervals);

TEST(Input, DiffClassifiesChanges) {
  Input a = Input::small_test(2);
  Input b = a;
  b.collision.nu_ee = 0.5;       // cmat-relevant
  b.species[0].a_ln_t = 9.0;     // sweep-safe
  b.seed = 42;                   // sweep-safe
  const auto diffs = diff_inputs(a, b);
  ASSERT_EQ(diffs.size(), 3u);
  int relevant = 0, safe = 0;
  for (const auto& d : diffs) {
    if (d.key == "NU_EE") {
      EXPECT_TRUE(d.cmat_relevant);
      ++relevant;
    } else {
      EXPECT_FALSE(d.cmat_relevant) << d.key;
      ++safe;
    }
  }
  EXPECT_EQ(relevant, 1);
  EXPECT_EQ(safe, 2);
  EXPECT_TRUE(diff_inputs(a, a).empty());
}

TEST(Input, DiffClassificationConsistentWithFingerprint) {
  // Meta-property: for EVERY serialized key, perturbing that key alone must
  // change the fingerprint iff is_cmat_relevant_key says so. Catches drift
  // between cmat_fingerprint() and the classification table.
  const Input base = Input::small_test(2);
  const auto kv = base.to_keyvalue();
  for (const auto& key : kv.keys()) {
    if (key == "TAG") continue;  // non-numeric
    auto mutated = kv;
    const double old_val = mutated.get_real(key);
    mutated.set(key, strprintf("%.17g", old_val == 0.0 ? 1.0 : old_val * 2));
    Input variant;
    try {
      variant = Input::from_keyvalue(mutated);
    } catch (const Error&) {
      continue;  // mutation made the input invalid — fine, skip
    }
    const bool fp_changed =
        variant.cmat_fingerprint() != base.cmat_fingerprint();
    // N_SPECIES doubling changes the species list shape; treat separately.
    if (key == "N_SPECIES") {
      EXPECT_TRUE(fp_changed);
      continue;
    }
    EXPECT_EQ(fp_changed, is_cmat_relevant_key(key)) << "key=" << key;
  }
}

TEST(Input, ValidateRejectsBadValues) {
  Input in = Input::small_test();
  in.dt = -1;
  EXPECT_THROW(in.validate(), Error);
  in = Input::small_test();
  in.species.clear();
  EXPECT_THROW(in.validate(), Error);
  in = Input::small_test();
  in.species[0].physics.mass = 0.0;
  EXPECT_THROW(in.validate(), Error);
}

TEST(Input, PresetsAreValid) {
  EXPECT_NO_THROW(Input::small_test(1).validate());
  EXPECT_NO_THROW(Input::small_test(3).validate());
  const Input nl = Input::nl03c_like();
  EXPECT_NO_THROW(nl.validate());
  EXPECT_EQ(nl.nv(), 576);
  EXPECT_EQ(nl.nc(), 1024 * 32);
  EXPECT_TRUE(nl.nonlinear);
}

TEST(Geometry, WavenumbersVaryAcrossCellsAndModes) {
  const Input in = Input::small_test();
  const Geometry g(in);
  EXPECT_DOUBLE_EQ(g.ky(0), 0.0);
  EXPECT_GT(g.ky(2), g.ky(1));
  // shear twist: same radial mode, different theta → different kx at ky>0
  const int ic_a = 2 * in.n_theta + 0;
  const int ic_b = 2 * in.n_theta + 1;
  EXPECT_NE(g.kx(ic_a, 2), g.kx(ic_b, 2));
  // kperp² must vary with both ic and it (this is why cmat is per-cell)
  EXPECT_NE(g.kperp2(ic_a, 1), g.kperp2(ic_b, 1));
  EXPECT_NE(g.kperp2(ic_a, 1), g.kperp2(ic_a, 2));
}

/// The kx of every (ic, it) as the closed-form expression, grouped
/// (dkx·p) + ((shear·θ)·ky) with θ = −π + 2π·itheta/n_theta: the bits every
/// cmat, golden hash and DES charge was recorded against.
double closed_form_kx(const Input& in, int ic, int it) {
  const double dkx = 2.0 * std::numbers::pi / in.box_radial;
  const double dky = 2.0 * std::numbers::pi * in.q_safety * in.rho_star / 0.5;
  const double theta =
      -std::numbers::pi + 2.0 * std::numbers::pi *
                              static_cast<double>(ic % in.n_theta) / in.n_theta;
  const double p = static_cast<double>(ic / in.n_theta - in.n_radial / 2);
  return dkx * p + in.shear * theta * (dky * static_cast<double>(it));
}

Input shearless_test() {
  Input in = Input::small_test(2);
  in.shear = 0.0;
  return in;
}

/// Odd grid sizes: θ spacing 2π/6 is inexact, and n_radial/2 truncates.
Input odd_grid_test() {
  Input in = Input::small_test(2);
  in.n_radial = 5;
  in.n_theta = 6;
  return in;
}

TEST(Geometry, RowFormKeepsClosedFormBits) {
  for (const Input& in : {Input::nl03c_like(), Input::small_test(2),
                          shearless_test(), odd_grid_test()}) {
    const Geometry g(in);
    long mismatches = 0;
    for (int ic = 0; ic < in.nc(); ++ic) {
      const Geometry::KxRow row = g.kx_row(ic);
      for (int it = 0; it < in.nt(); ++it) {
        const double ky = g.ky(it);
        const double kx_ref = closed_form_kx(in, ic, it);
        const double kperp2_ref = kx_ref * kx_ref + ky * ky;
        const double got[4] = {row.kx(ky), g.kx(ic, it), row.kperp2(ky),
                               g.kperp2(ic, it)};
        const double want[4] = {kx_ref, kx_ref, kperp2_ref, kperp2_ref};
        mismatches += std::memcmp(got, want, sizeof got) != 0;
      }
    }
    EXPECT_EQ(mismatches, 0) << "nc=" << in.nc() << " shear=" << in.shear;
  }
}

/// Classify every (coll rank, t rank) block of an n_coll × pt split — each
/// rank's cmat cells — and compare against a std::map oracle over the
/// Geometry::kperp2 bit patterns, in both the counting and the
/// representative form.
void expect_classes_match_oracle(const Input& in, int n_coll, int pt) {
  const Geometry g(in);
  const int n_ic = in.nc() / n_coll;
  const int n_it = in.nt() / pt;
  const size_t n = static_cast<size_t>(n_ic) * n_it;
  std::vector<int> got(n);
  std::vector<int> want(n);
  bool degenerate = false;
  for (int cr = 0; cr < n_coll; ++cr) {
    for (int tr = 0; tr < pt; ++tr) {
      const int ic0 = cr * n_ic;
      const int it0 = tr * n_it;
      std::map<std::uint64_t, int> seen;
      for (int a = 0; a < n_ic; ++a) {
        for (int itl = 0; itl < n_it; ++itl) {
          const int cell = a * n_it + itl;
          const auto bits =
              std::bit_cast<std::uint64_t>(g.kperp2(ic0 + a, it0 + itl));
          const auto [pos, inserted] = seen.emplace(bits, cell);
          want[cell] = inserted ? -1 : pos->second;
        }
      }
      // Model mode calls the count-only form, real mode the other.
      const int n_classes = static_cast<int>(seen.size());
      ASSERT_EQ(classify_kperp2(g, ic0, n_ic, it0, n_it), n_classes)
          << "count-only form, coll rank " << cr << ", t rank " << tr;
      ASSERT_EQ(classify_kperp2(g, ic0, n_ic, it0, n_it, got), n_classes)
          << "coll rank " << cr << ", t rank " << tr;
      ASSERT_EQ(got, want) << "coll rank " << cr << ", t rank " << tr;
      degenerate = degenerate || seen.size() < n;
    }
  }
  EXPECT_TRUE(degenerate) << "no rank has duplicate cells to classify";
}

TEST(Geometry, Kperp2ClassesMatchOracleNl03cCgyro256) {
  const Input in = Input::nl03c_like();
  const auto d = Decomposition::choose(in, 256);
  ASSERT_EQ(d.pv, 16);
  ASSERT_EQ(d.pt, 16);
  expect_classes_match_oracle(in, d.pv, d.pt);
}

TEST(Geometry, Kperp2ClassesMatchOracleNl03cXgyro8x32) {
  const Input in = Input::nl03c_like();
  const int k = 8;
  const auto d = Decomposition::choose(in, 32, k);
  ASSERT_EQ(d.pv, 2);
  ASSERT_EQ(d.pt, 16);
  expect_classes_match_oracle(in, k * d.pv, d.pt);
}

TEST(Geometry, Kperp2ClassesMatchOracleSmallSplits) {
  const Input in = Input::small_test(2);
  expect_classes_match_oracle(in, 1, 1);
  expect_classes_match_oracle(in, 1, 2);  // pt = 2
  expect_classes_match_oracle(in, 2, 2);  // pv × pt = 4
}

TEST(Geometry, Kperp2ClassesMatchOracleWideClass) {
  Input in = Input::small_test(2);
  in.n_radial = 131072;
  const auto d = Decomposition::choose(in, 8);
  expect_classes_match_oracle(in, d.pv, d.pt);
}

TEST(Geometry, Kperp2ClassesMatchOracleWithoutShear) {
  const Input in = shearless_test();
  expect_classes_match_oracle(in, 1, 1);
  expect_classes_match_oracle(in, 2, 2);
}

TEST(Geometry, Kperp2ClassesMatchOracleNonFinite) {
  // validate() accepts a non-finite shear: k⊥² then takes NaN (0·∞, ∞−∞)
  // and ±∞ patterns, which must classify by their bits like any other.
  for (const double shear : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    Input in = Input::small_test(2);
    in.shear = shear;
    expect_classes_match_oracle(in, 1, 1);
    expect_classes_match_oracle(in, 2, 2);
  }
}

TEST(Geometry, GyroaverageBounded) {
  const Input in = Input::small_test(2);
  const Geometry g(in);
  const auto vg = in.make_velocity_grid();
  for (int iv = 0; iv < vg.nv(); iv += 3) {
    for (int ic = 0; ic < in.nc(); ic += 5) {
      for (int it = 0; it < in.nt(); ++it) {
        const double j = g.gyroaverage(vg, iv, ic, it);
        EXPECT_GT(j, 0.0);
        EXPECT_LE(j, 1.0);
      }
    }
  }
}

TEST(Geometry, AdiabaticElectronsRaiseFieldDenominator) {
  Input in = Input::small_test(1);
  const Geometry kinetic(in);
  in.adiabatic_electrons = true;
  const Geometry adiabatic(in);
  for (int ic = 0; ic < in.nc(); ic += 3) {
    for (int it = 0; it < in.nt(); ++it) {
      EXPECT_NEAR(adiabatic.field_denominator(ic, it),
                  kinetic.field_denominator(ic, it) + 0.9, 1e-12);
    }
  }
}

TEST(Input, AdiabaticElectronsAreSweepSafe) {
  // The option changes the physics (field solve) but not the collision
  // operator, so two members differing only in it may share cmat.
  const Input base = Input::small_test(1);
  Input ae = base;
  ae.adiabatic_electrons = true;
  EXPECT_EQ(ae.cmat_fingerprint(), base.cmat_fingerprint());
  const auto diffs = diff_inputs(base, ae);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].key, "ADIABATIC_ELEC");
  EXPECT_FALSE(diffs[0].cmat_relevant);
  // ...and it genuinely changes the evolution.
  EXPECT_NE(run_real(ae, 1, 1).first, run_real(base, 1, 1).first);
}

TEST(Geometry, FieldDenominatorPositive) {
  const Input in = Input::small_test(2);
  const Geometry g(in);
  for (int ic = 0; ic < in.nc(); ++ic) {
    for (int it = 0; it < in.nt(); ++it) {
      EXPECT_GT(g.field_denominator(ic, it), 0.0);
    }
  }
}

TEST(Decomposition, ChoosePrefersLargePt) {
  const Input in = Input::small_test();  // nt=4, nv=16, nc=16
  const auto d = Decomposition::choose(in, 8);
  EXPECT_EQ(d.pt, 4);
  EXPECT_EQ(d.pv, 2);
  EXPECT_NO_THROW(d.validate(in));
}

TEST(Decomposition, ValidateRejectsIndivisible) {
  const Input in = Input::small_test();  // nv=16
  Decomposition d{3, 1};                 // nv % 3 != 0
  EXPECT_THROW(d.validate(in), Error);
  Decomposition d2{2, 3};  // nt=4 % 3 != 0
  EXPECT_THROW(d2.validate(in), Error);
}

TEST(Decomposition, ChooseThrowsWhenImpossible) {
  const Input in = Input::small_test();
  EXPECT_THROW(Decomposition::choose(in, 7), DecompositionError);
}

/// Run a CGYRO simulation in real mode and return (hash, diagnostics).
std::pair<std::uint64_t, Diagnostics> run_real(const Input& in, int nranks,
                                               int n_intervals = 1) {
  std::uint64_t hash = 0;
  Diagnostics diag;
  const auto d = Decomposition::choose(in, nranks);
  mpi::run_simulation(net::testbox(1, nranks), nranks, [&](mpi::Proc& p) {
    auto layout = make_cgyro_layout(p.world(), d);
    Simulation sim(in, d, std::move(layout), p, Mode::kReal);
    sim.initialize();
    Diagnostics local;
    for (int i = 0; i < n_intervals; ++i) local = sim.advance_report_interval();
    const auto h = sim.state_hash();
    if (p.world_rank() == 0) {
      hash = h;
      diag = local;
    }
  });
  return {hash, diag};
}

TEST(Simulation, RunsAndStaysFinite) {
  const auto [hash, diag] = run_real(Input::small_test(2), 1);
  EXPECT_EQ(diag.steps, 5);
  EXPECT_TRUE(std::isfinite(diag.phi_rms));
  EXPECT_GT(diag.phi_rms, 0.0);
  EXPECT_NE(hash, 0u);
}

TEST(Simulation, DeterministicAcrossRuns) {
  const Input in = Input::small_test(2);
  const auto a = run_real(in, 2);
  const auto b = run_real(in, 2);
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second.phi_rms, b.second.phi_rms);
}

TEST(Simulation, SeedChangesEvolution) {
  Input in = Input::small_test(2);
  const auto a = run_real(in, 1);
  in.seed = 2;
  const auto b = run_real(in, 1);
  EXPECT_NE(a.first, b.first);
}

TEST(Simulation, StateHashIndependentOfToroidalSplit) {
  // Splitting the toroidal dimension moves whole cells between ranks without
  // reordering any floating-point sum, so runs with the same pv must be
  // bit-identical across pt (1, 2, 4 ranks all have pv = 1 here).
  const Input in = Input::small_test(2);  // nv=32, nc=16, nt=4
  const auto ref = run_real(in, 1);
  for (const int p : {2, 4}) {
    const auto got = run_real(in, p);
    EXPECT_EQ(got.first, ref.first) << "nranks=" << p;
    EXPECT_DOUBLE_EQ(got.second.phi_rms, ref.second.phi_rms) << "nranks=" << p;
  }
}

TEST(Simulation, VelocitySplitAgreesToRoundoff) {
  // Splitting nv changes the summation order inside the field AllReduce
  // (true of real CGYRO as well), so across different pv we require
  // agreement to accumulated roundoff, not bitwise.
  const Input in = Input::small_test(2);
  const auto ref = run_real(in, 4);   // pv=1, pt=4
  const auto got = run_real(in, 8);   // pv=2, pt=4
  EXPECT_NE(got.first, 0u);
  EXPECT_NEAR(got.second.phi_rms, ref.second.phi_rms,
              1e-9 * std::abs(ref.second.phi_rms));
  EXPECT_NEAR(got.second.flux_proxy, ref.second.flux_proxy,
              1e-9 * std::abs(ref.second.flux_proxy) + 1e-15);
}

TEST(Simulation, NonlinearRunDecompositionIndependent) {
  Input in = Input::small_test(1);
  in.nonlinear = true;
  in.amp0 = 1e-2;
  const auto ref = run_real(in, 1);
  for (const int p : {2, 4}) {
    const auto got = run_real(in, p);
    EXPECT_EQ(got.first, ref.first) << "nranks=" << p;
  }
  // and the bracket actually does something: linear run differs
  Input lin = in;
  lin.nonlinear = false;
  EXPECT_NE(run_real(lin, 1).first, ref.first);
}

TEST(Simulation, PipelinedCollisionTransposeIsBitIdentical) {
  // The overlap knob must change timing only, never values — across every
  // admissible chunk setting of the batched collision_step, not just one.
  Input in = Input::small_test(2);
  const auto plain = run_real(in, 4);
  for (const int chunks : {2, 4}) {
    in.coll_pipeline_chunks = chunks;
    const auto piped = run_real(in, 4);
    EXPECT_EQ(piped.first, plain.first) << "chunks=" << chunks;
    EXPECT_DOUBLE_EQ(piped.second.phi_rms, plain.second.phi_rms)
        << "chunks=" << chunks;
  }
  // and stays sweep-safe
  EXPECT_EQ(in.cmat_fingerprint(), Input::small_test(2).cmat_fingerprint());
}

TEST(Simulation, MemoizedCmatBuildMatchesDirectBuild) {
  // build_cmat memoizes the per-cell LU on the kperp2 bit pattern; the
  // resulting tensor must be bit-identical (same fingerprint) to building
  // every cell directly from the recipe, and the geometry must actually
  // contain degenerate cells so the memo path is exercised.
  const Input in = Input::small_test(2);
  const auto d = Decomposition::choose(in, 1);
  std::uint64_t sim_fp = 0;
  mpi::run_simulation(net::testbox(1, 1), 1, [&](mpi::Proc& p) {
    auto layout = make_cgyro_layout(p.world(), d);
    Simulation sim(in, d, std::move(layout), p, Mode::kReal);
    sim.initialize();
    sim_fp = sim.cmat().fingerprint();
  });

  const Geometry geo(in);
  const auto grid = in.make_velocity_grid();
  collision::CmatRecipe recipe;
  recipe.params = in.collision;
  recipe.dt = in.dt;
  const auto scattering =
      collision::build_scattering_operator(grid, recipe.params);
  collision::CollisionTensor ref(in.nv(), in.nc() * in.nt());
  std::set<double> unique_kperp2;
  for (int ic = 0; ic < in.nc(); ++ic) {
    for (int it = 0; it < in.nt(); ++it) {
      const double kperp2 = geo.kperp2(ic, it);
      unique_kperp2.insert(kperp2);
      ref.set_cell(ic * in.nt() + it,
                   recipe.build_cell(grid, scattering, kperp2));
    }
  }
  ASSERT_LT(unique_kperp2.size(),
            static_cast<size_t>(in.nc()) * in.nt());  // degeneracy exists
  EXPECT_EQ(sim_fp, ref.fingerprint());
}

TEST(Simulation, PipelinedCollisionRealModelTimingAgree) {
  Input in = Input::small_test(2);
  in.coll_pipeline_chunks = 2;
  xgyro::JobOptions real_opts;
  real_opts.mode = Mode::kReal;
  xgyro::JobOptions model_opts;
  model_opts.mode = Mode::kModel;
  const auto machine = net::testbox(1, 8);
  const auto real = xgyro::run_cgyro_job(in, machine, 8, real_opts);
  const auto model = xgyro::run_cgyro_job(in, machine, 8, model_opts);
  EXPECT_NEAR(real.makespan_s, model.makespan_s, 1e-12);
}

TEST(Simulation, CollisionsDampUndrivenTurbulence) {
  // With drives off, collisional + upwind dissipation must shrink phi.
  Input in = Input::small_test(2);
  for (auto& s : in.species) {
    s.a_ln_n = 0.0;
    s.a_ln_t = 0.0;
  }
  in.collision.nu_ee = 1.0;
  in.n_steps_per_report = 3;
  double rms0 = 0, rms1 = 0;
  const auto d = Decomposition::choose(in, 1);
  mpi::run_simulation(net::testbox(1, 1), 1, [&](mpi::Proc& p) {
    auto layout = make_cgyro_layout(p.world(), d);
    Simulation sim(in, d, std::move(layout), p, Mode::kReal);
    sim.initialize();
    rms0 = sim.diagnostics().phi_rms;
    for (int i = 0; i < 4; ++i) sim.advance_report_interval();
    rms1 = sim.diagnostics().phi_rms;
  });
  EXPECT_LT(rms1, rms0);
}

TEST(Simulation, MemoryInventoryCmatFormula) {
  const Input in = Input::small_test(2);  // nv=32, nc=16, nt=4
  const Decomposition d{2, 2};
  const auto inv = Simulation::memory_inventory(in, d, 1);
  // cells per rank = nc/pv * nt/pt = 8*2 = 16; cmat = 32²·16·4 bytes
  EXPECT_DOUBLE_EQ(inv.bytes_of("cmat"), 32.0 * 32 * 16 * 4);
  // sharing across k=4 sims divides the cmat slice by 4 (nc 16 % (4*2)=0)
  const auto inv4 = Simulation::memory_inventory(in, d, 4);
  EXPECT_DOUBLE_EQ(inv4.bytes_of("cmat"), inv.bytes_of("cmat") / 4);
  // ...and leaves every other buffer unchanged
  EXPECT_DOUBLE_EQ(inv4.total_excluding("cmat"), inv.total_excluding("cmat"));
}

TEST(Simulation, Nl03cCmatDominatesOtherBuffers) {
  // Paper §1: "cmat is 10x the size of all the other memory buffers
  // combined" for nl03c. Check the nl03c-like preset at the paper's
  // decomposition (256 ranks = pv 16 × pt 16).
  const Input in = Input::nl03c_like();
  const Decomposition d{16, 16};
  const auto inv = Simulation::memory_inventory(in, d, 1);
  const double ratio = inv.bytes_of("cmat") / inv.total_excluding("cmat");
  EXPECT_GT(ratio, 8.0);
  EXPECT_LT(ratio, 20.0);
}

TEST(Simulation, RealAndModelModesAgreeOnVirtualTime) {
  // The model path must follow the identical message/compute schedule as
  // the real path — same makespan to machine precision.
  const Input in = Input::small_test(2);
  for (const int nranks : {1, 2, 4}) {
    xgyro::JobOptions real_opts;
    real_opts.mode = Mode::kReal;
    xgyro::JobOptions model_opts;
    model_opts.mode = Mode::kModel;
    const auto machine = net::testbox(1, nranks);
    const auto real = xgyro::run_cgyro_job(in, machine, nranks, real_opts);
    const auto model = xgyro::run_cgyro_job(in, machine, nranks, model_opts);
    EXPECT_NEAR(real.makespan_s, model.makespan_s, 1e-12) << "nranks=" << nranks;
    for (size_t r = 0; r < real.ranks.size(); ++r) {
      EXPECT_NEAR(real.ranks[r].final_time_s, model.ranks[r].final_time_s, 1e-12);
    }
  }
}

TEST(Simulation, NonlinearRealModelTimingAgree) {
  // Real and model mode run one schedule, so their virtual results agree to
  // the bit — also at pt = 1, where the real path issues the nl transposes
  // as virtual collectives and brackets the state in place.
  Input in = Input::small_test(1);
  in.nonlinear = true;
  xgyro::JobOptions real_opts;
  real_opts.mode = Mode::kReal;
  xgyro::JobOptions model_opts;
  model_opts.mode = Mode::kModel;
  const auto machine = net::testbox(1, 4);
  for (const int nranks : {1, 2, 4}) {
    SCOPED_TRACE(nranks);
    const auto real = xgyro::run_cgyro_job(in, machine, nranks, real_opts);
    const auto model = xgyro::run_cgyro_job(in, machine, nranks, model_opts);
    EXPECT_EQ(real.makespan_s, model.makespan_s);
    auto phases = xgyro::solver_phases();
    phases.push_back("init");
    for (const auto& ph : phases) {
      EXPECT_EQ(real.phase_max_time(ph), model.phase_max_time(ph)) << ph;
    }
    EXPECT_GT(real.collectives_checked, 0u);
    EXPECT_EQ(real.collectives_checked, model.collectives_checked);
  }
}

TEST(Simulation, PhaseBreakdownCoversAllSolverPhases) {
  const Input in = Input::small_test(2);
  xgyro::JobOptions opts;
  opts.mode = Mode::kModel;
  // 8 ranks → pt=4, pv=2: both the nv and coll communicators are real.
  const auto res = xgyro::run_cgyro_job(in, net::testbox(1, 8), 8, opts);
  EXPECT_GT(res.phase_max_time("str"), 0.0);
  EXPECT_GT(res.phase_max_comm("str_comm"), 0.0);
  EXPECT_GT(res.phase_max_time("coll"), 0.0);
  EXPECT_GT(res.phase_max_comm("coll_comm"), 0.0);
  EXPECT_GT(res.phase_max_time("init"), 0.0);
  const auto timing = format_timing(res, xgyro::solver_phases());
  EXPECT_NE(timing.find("str_comm"), std::string::npos);
  EXPECT_NE(timing.find("MAKESPAN"), std::string::npos);
}

// --- RK4 stage kernels: AVX2 clone vs baseline clone ------------------------
// Each dispatched kernel runs at both ISAs on the same seeded inputs (IEEE
// specials mixed in, see isa_check.hpp); every output must agree bit for bit.

using isa_check::Specials;

std::vector<cplx> seeded_cplx(size_t n, std::uint64_t seed, Specials sp) {
  const auto v = isa_check::seeded_values(2 * n, seed, sp);
  std::vector<cplx> out(n);
  std::memcpy(static_cast<void*>(out.data()), v.data(), v.size() * sizeof(double));
  return out;
}

std::span<const double> doubles(const std::vector<cplx>& v) {
  return {reinterpret_cast<const double*>(v.data()), 2 * v.size()};
}

class KernelIsa : public ::testing::TestWithParam<Specials> {
 protected:
  void SetUp() override {
    if (!cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  }
  [[nodiscard]] bool nan_allowed() const {
    return GetParam() != Specials::kFinite;
  }
};

TEST_P(KernelIsa, MomentSweepClonesAgree) {
  const Specials sp = GetParam();
  // 150 cells: two full 64-cell blocks and a tail, none a multiple of 4.
  const size_t nv = 7, cells = 150, nf = 3;
  const auto h = seeded_cplx(nv * cells, 1, sp);
  const auto j = isa_check::seeded_values(nv * cells, 2, sp);
  const auto fw = isa_check::seeded_values(nf * nv, 3, sp);
  const auto uw = isa_check::seeded_values(nv, 4, sp);
  for (const bool upwind : {false, true}) {
    SCOPED_TRACE(upwind ? "upwind" : "field only");
    std::vector<cplx> field[2], u[2];
    for (int isa = 0; isa < 2; ++isa) {
      field[isa] = seeded_cplx(nf * cells, 5, sp);  // overwritten
      u[isa] = seeded_cplx(cells, 6, sp);
      detail::MomentSweep s;
      s.nv = nv;
      s.cells = cells;
      s.n_field = nf;
      s.h = h.data();
      s.j = j.data();
      s.field_w = fw.data();
      s.upwind_w = upwind ? uw.data() : nullptr;
      s.field = field[isa].data();
      s.u = u[isa].data();
      detail::moment_sweep(s, isa == 0 ? Isa::kBaseline : Isa::kAvx2);
    }
    EXPECT_TRUE(isa_check::same_bits(doubles(field[0]), doubles(field[1]),
                                     nan_allowed()));
    EXPECT_TRUE(
        isa_check::same_bits(doubles(u[0]), doubles(u[1]), nan_allowed()));
  }
}

TEST_P(KernelIsa, BracketClonesAgree) {
  const Specials sp = GetParam();
  const size_t nv = 13, nc = 3, ic = 1;
  for (const size_t nt : {8u, 6u}) {  // radix-2 and Bluestein
    const fft::Plan plan(nt);
    const auto ky = isa_check::seeded_values(nt, 10 + nt, sp);
    const auto kx = isa_check::seeded_values(nt, 20 + nt, sp);
    const auto phi = seeded_cplx(nt, 30 + nt, sp);
    // Streaming layout (pt = 1: t contiguous, velocity lines nc·nt apart,
    // out of place) and the nl layout (pt > 1: (t, v) block, in place).
    for (const bool in_place : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "nt=" << nt
                                        << (in_place ? " in place" : ""));
      const auto src = seeded_cplx(nv * nc * nt, 40 + nt, sp);
      std::vector<cplx> dst[2];
      // One FFT scratch for both clones: the second sees what the first
      // left, as every warm cell of a real run does.
      std::vector<double> fft_scratch(
          fft::detail::lines_scratch_size(plan, nv), 1.0);
      for (int isa = 0; isa < 2; ++isa) {
        std::vector<double> lines(4 * nt * nv), phi_lines(4 * nt);
        dst[isa] = in_place ? src : std::vector<cplx>(src.size());
        detail::BracketCell c;
        c.nt = nt;
        c.nv = nv;
        c.plan = &plan;
        c.ky = ky.data();
        c.kx = kx.data();
        c.phi = phi.data();
        if (in_place) {
          c.src = dst[isa].data();
          c.dst = dst[isa].data();
          c.st = nv;
          c.sv = 1;
        } else {
          c.src = src.data() + ic * nt;
          c.dst = dst[isa].data() + ic * nt;
          c.st = 1;
          c.sv = nc * nt;
        }
        c.lines = lines.data();
        c.phi_lines = phi_lines.data();
        c.fft_scratch = fft_scratch;
        detail::bracket_cell(c, isa == 0 ? Isa::kBaseline : Isa::kAvx2);
      }
      EXPECT_TRUE(isa_check::same_bits(doubles(dst[0]), doubles(dst[1]),
                                       nan_allowed()));
    }
  }
}

TEST(Bracket, WarmBluesteinCellDoesNotAllocate) {
  // nt = 6 takes the FFT's Bluestein path; its scratch is the cell's
  // fft_scratch, so a warm cell makes no heap allocation.
  const size_t nt = 6, nv = 13;
  const fft::Plan plan(nt);
  const auto ky = isa_check::seeded_values(nt, 1, Specials::kFinite);
  const auto kx = isa_check::seeded_values(nt, 2, Specials::kFinite);
  const auto phi = seeded_cplx(nt, 3, Specials::kFinite);
  auto h = seeded_cplx(nv * nt, 4, Specials::kFinite);
  std::vector<double> lines(4 * nt * nv), phi_lines(4 * nt);
  std::vector<double> fft_scratch(fft::detail::lines_scratch_size(plan, nv));
  ASSERT_GT(fft_scratch.size(), 0u);
  detail::BracketCell c;
  c.nt = nt;
  c.nv = nv;
  c.plan = &plan;
  c.ky = ky.data();
  c.kx = kx.data();
  c.phi = phi.data();
  c.src = h.data();
  c.dst = h.data();
  c.st = nv;
  c.sv = 1;
  c.lines = lines.data();
  c.phi_lines = phi_lines.data();
  c.fft_scratch = fft_scratch;
  detail::bracket_cell(c, kernel_isa());
  const std::uint64_t before = alloc_count::heap_allocs();
  for (int i = 0; i < 4; ++i) detail::bracket_cell(c, kernel_isa());
  EXPECT_EQ(alloc_count::heap_allocs() - before, 0u);
}

TEST_P(KernelIsa, ComputeRhsClonesAgreeInEveryStageShape) {
  const Specials sp = GetParam();
  const size_t nv = 5, cells = 37;
  const auto vel_raw = isa_check::seeded_values(5 * nv, 50, sp);
  std::vector<detail::RhsVelocity> vel(nv);
  for (size_t i = 0; i < nv; ++i) {
    const double* v = vel_raw.data() + 5 * i;
    vel[i] = {v[0], v[1], v[2], v[3], v[4]};
  }
  const auto kpar = isa_check::seeded_values(cells, 51, sp);
  const auto damp = isa_check::seeded_values(cells, 52, sp);
  const auto ky = isa_check::seeded_values(cells, 53, sp);
  const auto j = isa_check::seeded_values(nv * cells, 54, sp);
  const auto phi = seeded_cplx(cells, 55, sp);
  const auto u = seeded_cplx(cells, 56, sp);
  const auto nl = seeded_cplx(nv * cells, 57, sp);
  const auto h = seeded_cplx(nv * cells, 58, sp);
  for (const bool nonlinear : {false, true}) {
    for (int stage = 0; stage < 4; ++stage) {
      SCOPED_TRACE(::testing::Message() << "stage " << stage
                                        << (nonlinear ? " nonlinear" : ""));
      // stage_in is the stage input, updated in place on stages 1..2.
      std::vector<cplx> stage_in[2], acc[2];
      for (int isa = 0; isa < 2; ++isa) {
        stage_in[isa] = seeded_cplx(nv * cells, 59, sp);
        acc[isa] = seeded_cplx(nv * cells, 60, sp);
        detail::RhsStage s;
        s.stage = stage;
        s.nonlinear = nonlinear;
        s.nv = nv;
        s.cells = cells;
        s.b = 0.125;
        s.a = 0.3;
        s.vel = vel.data();
        s.kpar = kpar.data();
        s.damp = damp.data();
        s.ky = ky.data();
        s.j = j.data();
        s.phi = phi.data();
        s.u = u.data();
        s.nl = nonlinear ? nl.data() : nullptr;
        s.h = h.data();
        s.stage_in = stage_in[isa].data();
        s.acc = acc[isa].data();
        detail::compute_rhs(s, isa == 0 ? Isa::kBaseline : Isa::kAvx2);
      }
      EXPECT_TRUE(isa_check::same_bits(doubles(stage_in[0]),
                                       doubles(stage_in[1]), nan_allowed()));
      EXPECT_TRUE(
          isa_check::same_bits(doubles(acc[0]), doubles(acc[1]), nan_allowed()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, KernelIsa,
    ::testing::Values(Specials::kFinite, Specials::kInfinite, Specials::kNaN),
    [](const ::testing::TestParamInfo<Specials>& info) {
      return std::string(isa_check::specials_name(info.param));
    });

}  // namespace
}  // namespace xg::gyro
