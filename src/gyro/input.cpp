#include "gyro/input.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace xg::gyro {

vgrid::VelocityGrid Input::make_velocity_grid() const {
  vgrid::VelocityGridSpec spec;
  spec.n_species = n_species();
  spec.n_energy = n_energy;
  spec.n_xi = n_xi;
  spec.e_max = e_max;
  std::vector<vgrid::Species> sp;
  sp.reserve(species.size());
  for (const auto& s : species) sp.push_back(s.physics);
  return vgrid::VelocityGrid(spec, std::move(sp));
}

void Input::validate() const {
  XG_REQUIRE(n_radial >= 1 && n_theta >= 1 && n_toroidal >= 1,
             "Input: grid dimensions must be >= 1");
  XG_REQUIRE(n_energy >= 1 && n_xi >= 2, "Input: velocity grid too small");
  XG_REQUIRE(n_field >= 1 && n_field <= 3, "Input: n_field must be 1..3");
  XG_REQUIRE(!species.empty(), "Input: need at least one species");
  XG_REQUIRE(dt > 0.0, "Input: dt must be positive");
  XG_REQUIRE(e_max > 1.0, "Input: e_max must exceed 1");
  XG_REQUIRE(n_steps_per_report >= 1, "Input: n_steps_per_report must be >= 1");
  XG_REQUIRE(coll_pipeline_chunks >= 1, "Input: coll_pipeline_chunks must be >= 1");
  XG_REQUIRE(rho_star > 0.0 && box_radial > 0.0, "Input: geometry scales must be positive");
  for (const auto& s : species) {
    XG_REQUIRE(s.physics.mass > 0.0 && s.physics.temperature > 0.0 &&
                   s.physics.density > 0.0 && s.physics.charge != 0.0,
               "Input: species parameters must be physical");
  }
}

namespace {

/// An int-valued key: a value outside the int range is an InputError, never
/// a silent wrap.
int int_or(const KeyValueFile& kv, std::string_view key, int fallback) {
  return kv.has(key) ? parse_int(kv.get_string(key), key) : fallback;
}

}  // namespace

Input Input::from_keyvalue(const KeyValueFile& kv) {
  Input in;
  in.n_radial = int_or(kv, "N_RADIAL", in.n_radial);
  in.n_theta = int_or(kv, "N_THETA", in.n_theta);
  in.n_toroidal = int_or(kv, "N_TOROIDAL", in.n_toroidal);
  in.n_energy = int_or(kv, "N_ENERGY", in.n_energy);
  in.n_xi = int_or(kv, "N_XI", in.n_xi);
  in.e_max = kv.get_real_or("E_MAX", in.e_max);
  in.n_field = int_or(kv, "N_FIELD", in.n_field);
  in.dt = kv.get_real_or("DELTA_T", in.dt);
  in.collision.nu_ee = kv.get_real_or("NU_EE", in.collision.nu_ee);
  // COLLISION_MODEL presets (CGYRO numbering) apply first; the individual
  // COLLISION_* flags below can then override single terms.
  switch (kv.get_int_or("COLLISION_MODEL", 0)) {
    case 0: break;  // not specified: use the flag defaults
    case 1: {
      const double nu = in.collision.nu_ee;
      in.collision = collision::CollisionParams::lorentz();
      in.collision.nu_ee = nu;
      break;
    }
    case 4: {
      const double nu = in.collision.nu_ee;
      in.collision = collision::CollisionParams::sugama();
      in.collision.nu_ee = nu;
      break;
    }
    default:
      throw InputError("COLLISION_MODEL must be 1 (Lorentz) or 4 (Sugama)");
  }
  in.collision.pitch_scattering =
      kv.get_bool_or("COLLISION_PITCH", in.collision.pitch_scattering);
  in.collision.energy_relaxation =
      kv.get_bool_or("COLLISION_ENERGY", in.collision.energy_relaxation);
  in.collision.gyro_diffusion =
      kv.get_bool_or("COLLISION_FLR", in.collision.gyro_diffusion);
  in.collision.conserve_moments =
      kv.get_bool_or("COLLISION_CONSERVE", in.collision.conserve_moments);
  in.collision.cross_species_exchange = kv.get_bool_or(
      "COLLISION_XSPECIES", in.collision.cross_species_exchange);
  in.q_safety = kv.get_real_or("Q", in.q_safety);
  in.shear = kv.get_real_or("S", in.shear);
  in.rho_star = kv.get_real_or("RHO_STAR", in.rho_star);
  in.box_radial = kv.get_real_or("BOX_SIZE", in.box_radial);
  in.adiabatic_electrons =
      kv.get_bool_or("ADIABATIC_ELEC", in.adiabatic_electrons);
  in.amp0 = kv.get_real_or("AMP0", in.amp0);
  in.seed = static_cast<std::uint64_t>(kv.get_int_or("SEED", static_cast<long>(in.seed)));
  in.nonlinear = kv.get_bool_or("NONLINEAR_FLAG", in.nonlinear);
  in.upwind = kv.get_real_or("UP_WIND", in.upwind);
  in.coll_pipeline_chunks =
      int_or(kv, "COLL_PIPELINE", in.coll_pipeline_chunks);
  in.n_steps_per_report = int_or(kv, "PRINT_STEP", in.n_steps_per_report);
  in.tag = kv.get_string_or("TAG", in.tag);

  const int ns = int_or(kv, "N_SPECIES", 1);
  in.species.clear();
  for (int s = 0; s < ns; ++s) {
    SpeciesInput sp;
    const auto key = [s](const char* base) { return strprintf("%s_%d", base, s + 1); };
    sp.physics.charge = kv.get_real_or(key("Z"), sp.physics.charge);
    sp.physics.mass = kv.get_real_or(key("MASS"), sp.physics.mass);
    sp.physics.density = kv.get_real_or(key("DENS"), sp.physics.density);
    sp.physics.temperature = kv.get_real_or(key("TEMP"), sp.physics.temperature);
    sp.a_ln_n = kv.get_real_or(key("DLNNDR"), sp.a_ln_n);
    sp.a_ln_t = kv.get_real_or(key("DLNTDR"), sp.a_ln_t);
    in.species.push_back(sp);
  }
  in.validate();
  return in;
}

Input Input::load(const std::string& path) {
  return from_keyvalue(KeyValueFile::load(path));
}

KeyValueFile Input::to_keyvalue() const {
  KeyValueFile kv;
  const auto set_int = [&](const char* k, long v) { kv.set(k, strprintf("%ld", v)); };
  const auto set_real = [&](const char* k, double v) { kv.set(k, strprintf("%.17g", v)); };
  set_int("N_RADIAL", n_radial);
  set_int("N_THETA", n_theta);
  set_int("N_TOROIDAL", n_toroidal);
  set_int("N_ENERGY", n_energy);
  set_int("N_XI", n_xi);
  set_real("E_MAX", e_max);
  set_int("N_FIELD", n_field);
  set_real("DELTA_T", dt);
  set_real("NU_EE", collision.nu_ee);
  set_int("COLLISION_PITCH", collision.pitch_scattering ? 1 : 0);
  set_int("COLLISION_ENERGY", collision.energy_relaxation ? 1 : 0);
  set_int("COLLISION_FLR", collision.gyro_diffusion ? 1 : 0);
  set_int("COLLISION_CONSERVE", collision.conserve_moments ? 1 : 0);
  set_int("COLLISION_XSPECIES", collision.cross_species_exchange ? 1 : 0);
  set_real("Q", q_safety);
  set_real("S", shear);
  set_real("RHO_STAR", rho_star);
  set_real("BOX_SIZE", box_radial);
  set_int("ADIABATIC_ELEC", adiabatic_electrons ? 1 : 0);
  set_real("AMP0", amp0);
  set_int("SEED", static_cast<long>(seed));
  set_int("NONLINEAR_FLAG", nonlinear ? 1 : 0);
  set_real("UP_WIND", upwind);
  set_int("COLL_PIPELINE", coll_pipeline_chunks);
  set_int("PRINT_STEP", n_steps_per_report);
  kv.set("TAG", tag);
  set_int("N_SPECIES", n_species());
  for (int s = 0; s < n_species(); ++s) {
    const auto key = [s](const char* base) { return strprintf("%s_%d", base, s + 1); };
    set_real(key("Z").c_str(), species[s].physics.charge);
    set_real(key("MASS").c_str(), species[s].physics.mass);
    set_real(key("DENS").c_str(), species[s].physics.density);
    set_real(key("TEMP").c_str(), species[s].physics.temperature);
    set_real(key("DLNNDR").c_str(), species[s].a_ln_n);
    set_real(key("DLNTDR").c_str(), species[s].a_ln_t);
  }
  return kv;
}

std::uint64_t Input::cmat_fingerprint() const {
  Hasher h;
  h.str("xgyro.cmat.v1");
  h.i64(n_radial).i64(n_theta).i64(n_toroidal);
  h.i64(n_energy).i64(n_xi).f64(e_max).i64(n_field);
  h.f64(dt);
  h.f64(collision.nu_ee);
  h.u64(collision.pitch_scattering).u64(collision.energy_relaxation);
  h.u64(collision.gyro_diffusion).u64(collision.conserve_moments);
  h.u64(collision.cross_species_exchange);
  h.f64(q_safety).f64(shear).f64(rho_star).f64(box_radial);
  h.i64(n_species());
  for (const auto& s : species) {
    h.f64(s.physics.charge).f64(s.physics.mass);
    h.f64(s.physics.density).f64(s.physics.temperature);
    // a_ln_n / a_ln_t deliberately excluded: pure drives, sweep-safe.
  }
  return h.digest();
}

Input Input::small_test(int ns) {
  Input in;
  in.n_radial = 4;
  in.n_theta = 4;
  in.n_toroidal = 4;
  in.n_energy = 4;
  in.n_xi = 4;
  in.species.clear();
  for (int s = 0; s < ns; ++s) {
    SpeciesInput sp;
    if (s == 1) {
      sp.physics.mass = 2.72e-4;
      sp.physics.charge = -1.0;
    }
    in.species.push_back(sp);
  }
  in.dt = 0.02;
  in.n_steps_per_report = 5;
  in.tag = "small_test";
  in.validate();
  return in;
}

Input Input::nl03c_like() {
  // Structural stand-in for the paper's nl03c benchmark (see DESIGN.md):
  //   nv = 3·8·24 = 576  → cmat/other-buffer ratio ≈ nv/40 ≈ 14, matching
  //   the published "cmat is 10× everything else combined";
  //   nc = 1024·32, nt = 16 → cmat total ≈ 700 GB, forcing the 32-node
  //   minimum on the calibrated frontier_like capacity.
  Input in;
  in.n_radial = 1024;
  in.n_theta = 32;
  in.n_toroidal = 16;
  in.n_energy = 8;
  in.n_xi = 24;
  in.n_field = 3;  // electromagnetic: φ, A∥, B∥
  in.species.clear();
  for (int s = 0; s < 3; ++s) {
    SpeciesInput sp;
    if (s == 2) {  // electrons
      sp.physics.mass = 2.72e-4;
      sp.physics.charge = -1.0;
    }
    sp.a_ln_n = 1.0;
    sp.a_ln_t = 2.5;
    in.species.push_back(sp);
  }
  in.dt = 0.005;
  in.collision.nu_ee = 0.1;
  in.nonlinear = true;
  in.n_steps_per_report = 100;
  in.tag = "nl03c_like";
  in.validate();
  return in;
}

bool is_cmat_relevant_key(const std::string& key) {
  static const std::vector<std::string> kExact{
      "N_RADIAL",  "N_THETA", "N_TOROIDAL", "N_ENERGY", "N_XI",
      "E_MAX",     "N_FIELD", "DELTA_T",    "NU_EE",    "COLLISION_PITCH",
      "COLLISION_ENERGY",     "COLLISION_FLR",          "COLLISION_CONSERVE",
      "COLLISION_XSPECIES",   "Q",          "S",        "RHO_STAR",
      "BOX_SIZE",  "N_SPECIES"};
  for (const auto& k : kExact) {
    if (key == k) return true;
  }
  for (const char* prefix : {"Z_", "MASS_", "DENS_", "TEMP_"}) {
    if (starts_with(key, prefix)) return true;
  }
  return false;
}

std::vector<ParamDiff> diff_inputs(const Input& a, const Input& b) {
  const KeyValueFile ka = a.to_keyvalue();
  const KeyValueFile kb = b.to_keyvalue();
  std::vector<ParamDiff> out;
  // Union of keys, sorted (both serializations are sorted already).
  std::vector<std::string> keys = ka.keys();
  for (const auto& k : kb.keys()) {
    if (!ka.has(k)) keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  for (const auto& k : keys) {
    const std::string va = ka.has(k) ? ka.get_string(k) : "<absent>";
    const std::string vb = kb.has(k) ? kb.get_string(k) : "<absent>";
    if (va == vb) continue;
    out.push_back({k, va, vb, is_cmat_relevant_key(k)});
  }
  return out;
}

}  // namespace xg::gyro
