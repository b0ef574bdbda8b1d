#include "gyro/decomposition.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::gyro {

namespace {
/// The rules validate() enforces, as a predicate that throws nothing.
bool fits(const Decomposition& d, const Input& input, int n_sims_sharing) {
  return d.pv >= 1 && d.pt >= 1 && input.n_toroidal % d.pt == 0 &&
         input.nv() % d.pv == 0 && input.nc() % (d.pv * n_sims_sharing) == 0 &&
         input.nc() % d.pt == 0;
}
}  // namespace

void Decomposition::validate(const Input& input, int n_sims_sharing) const {
  XG_REQUIRE(pv >= 1 && pt >= 1, "Decomposition: pv, pt must be >= 1");
  XG_REQUIRE(input.n_toroidal % pt == 0,
             strprintf("Decomposition: n_toroidal=%d not divisible by pt=%d",
                       input.n_toroidal, pt));
  XG_REQUIRE(input.nv() % pv == 0,
             strprintf("Decomposition: nv=%d not divisible by pv=%d",
                       input.nv(), pv));
  XG_REQUIRE(input.nc() % (pv * n_sims_sharing) == 0,
             strprintf("Decomposition: nc=%d not divisible by k*pv=%d",
                       input.nc(), pv * n_sims_sharing));
  XG_REQUIRE(input.nc() % pt == 0,
             strprintf("Decomposition: nc=%d not divisible by pt=%d "
                       "(nonlinear transpose)",
                       input.nc(), pt));
}

std::optional<Decomposition> Decomposition::find(const Input& input,
                                                 int nranks,
                                                 int n_sims_sharing) {
  for (int pt = std::min(nranks, input.n_toroidal); pt >= 1; --pt) {
    if (nranks % pt != 0 || input.n_toroidal % pt != 0) continue;
    const Decomposition d{nranks / pt, pt};
    if (fits(d, input, n_sims_sharing)) return d;
  }
  return std::nullopt;
}

Decomposition Decomposition::choose(const Input& input, int nranks,
                                    int n_sims_sharing) {
  XG_REQUIRE(nranks >= 1, "Decomposition::choose: nranks must be >= 1");
  if (const auto d = find(input, nranks, n_sims_sharing)) return *d;
  throw DecompositionError(
      strprintf("no valid (pv, pt) decomposition of %d ranks for grid "
                "nc=%d nv=%d nt=%d (k=%d)",
                nranks, input.nc(), input.nv(), input.n_toroidal,
                n_sims_sharing));
}

CommLayout make_cgyro_layout(const mpi::Comm& sim_comm, const Decomposition& d) {
  XG_REQUIRE(sim_comm.size() == d.nranks(),
             strprintf("make_cgyro_layout: comm size %d != pv*pt = %d",
                       sim_comm.size(), d.nranks()));
  CommLayout layout;
  layout.sim = sim_comm;
  const int r = sim_comm.rank();
  const int p_v = r % d.pv;
  const int p_t = r / d.pv;
  // CGYRO reuses one communicator for the field/upwind AllReduces and the
  // str↔coll transpose; we model that by aliasing coll to nv (same context).
  layout.nv = sim_comm.split(p_t, p_v, "nv");
  layout.t = sim_comm.split(p_v, p_t, "t");
  layout.coll = layout.nv;
  layout.n_sims_sharing = 1;
  layout.share_index = 0;
  return layout;
}

}  // namespace xg::gyro
