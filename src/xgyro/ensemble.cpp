#include "xgyro/ensemble.hpp"

#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::xgyro {

void EnsembleInput::validate_shared_cmat() const {
  XG_REQUIRE(!members.empty(), "EnsembleInput: no member simulations");
  const std::uint64_t base = members.front().cmat_fingerprint();
  for (size_t i = 1; i < members.size(); ++i) {
    if (members[i].cmat_fingerprint() != base) {
      // Build an actionable report: exactly which parameters block sharing.
      std::string blockers;
      for (const auto& d : gyro::diff_inputs(members.front(), members[i])) {
        if (d.cmat_relevant) {
          blockers += strprintf("  %s: %s vs %s\n", d.key.c_str(),
                                d.value_a.c_str(), d.value_b.c_str());
        }
      }
      throw InputError(strprintf(
          "ensemble member %zu ('%s') cannot share the collisional constant "
          "tensor with member 0 ('%s'); cmat-relevant differences:\n%s"
          "(run with grouped sharing to keep mixed campaigns in one job)",
          i, members[i].tag.c_str(), members.front().tag.c_str(),
          blockers.c_str()));
    }
  }
}

std::vector<std::vector<int>> EnsembleInput::sharing_groups() const {
  std::vector<std::vector<int>> groups;
  std::vector<std::uint64_t> fingerprints;
  for (size_t i = 0; i < members.size(); ++i) {
    const std::uint64_t fp = members[i].cmat_fingerprint();
    bool placed = false;
    for (size_t g = 0; g < fingerprints.size(); ++g) {
      if (fingerprints[g] == fp) {
        groups[g].push_back(static_cast<int>(i));
        placed = true;
        break;
      }
    }
    if (!placed) {
      fingerprints.push_back(fp);
      groups.push_back({static_cast<int>(i)});
    }
  }
  return groups;
}

EnsembleInput EnsembleInput::sweep(
    const gyro::Input& base, int k,
    const std::function<void(gyro::Input&, int)>& mutate) {
  XG_REQUIRE(k >= 1, "EnsembleInput::sweep: k must be >= 1");
  EnsembleInput e;
  e.members.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    gyro::Input in = base;
    mutate(in, i);
    in.validate();
    e.members.push_back(std::move(in));
  }
  e.validate_shared_cmat();
  return e;
}

EnsembleInput EnsembleInput::load(const std::vector<std::string>& paths,
                                  bool require_shared_cmat) {
  EnsembleInput e;
  e.members.reserve(paths.size());
  for (const auto& p : paths) e.members.push_back(gyro::Input::load(p));
  if (require_shared_cmat) e.validate_shared_cmat();
  return e;
}

EnsembleInput EnsembleInput::load_manifest(const std::string& manifest_path,
                                           bool require_shared_cmat) {
  const auto kv = KeyValueFile::load(manifest_path);
  const long n = kv.get_int("N_SIM");
  XG_REQUIRE(n >= 1 && n <= 4096, "input.xgyro: N_SIM out of range");
  const std::string input_name = kv.get_string_or("INPUT_NAME", "input.cgyro");
  // Resolve member directories relative to the manifest's own directory.
  std::string base;
  if (const auto slash = manifest_path.find_last_of('/');
      slash != std::string::npos) {
    base = manifest_path.substr(0, slash + 1);
  }
  std::vector<std::string> paths;
  paths.reserve(static_cast<size_t>(n));
  for (long i = 1; i <= n; ++i) {
    const std::string dir = kv.get_string(strprintf("DIR_%ld", i));
    const bool absolute = !dir.empty() && dir.front() == '/';
    paths.push_back((absolute ? dir : base + dir) + "/" + input_name);
  }
  return load(paths, require_shared_cmat);
}

gyro::CommLayout make_xgyro_layout(const mpi::Comm& world, int k,
                                   const gyro::Decomposition& d,
                                   int* sim_index_out) {
  return make_xgyro_layout_grouped(world, std::vector<int>(k, 0), d,
                                   sim_index_out);
}

gyro::CommLayout make_xgyro_layout_grouped(const mpi::Comm& world,
                                           const std::vector<int>& group_of_sim,
                                           const gyro::Decomposition& d,
                                           int* sim_index_out) {
  const int k = static_cast<int>(group_of_sim.size());
  const int per_sim = d.nranks();
  XG_REQUIRE(k >= 1, "make_xgyro_layout_grouped: need at least one member");
  XG_REQUIRE(world.size() == k * per_sim,
             strprintf("make_xgyro_layout: world has %d ranks, need k*pv*pt "
                       "= %d*%d = %d",
                       world.size(), k, per_sim, k * per_sim));
  const int wr = world.rank();
  const int sim = wr / per_sim;
  const int r_in_sim = wr % per_sim;
  const int p_v = r_in_sim % d.pv;
  const int p_t = r_in_sim / d.pv;
  const int group = group_of_sim[sim];
  XG_REQUIRE(group >= 0, "make_xgyro_layout_grouped: group ids must be >= 0");

  // Position of this simulation within its sharing group, and group size.
  int index_in_group = 0;
  int group_size = 0;
  for (int s = 0; s < k; ++s) {
    if (group_of_sim[s] != group) continue;
    if (s < sim) ++index_in_group;
    ++group_size;
  }

  gyro::CommLayout layout;
  layout.sim = world.split(sim, r_in_sim, strprintf("sim%d", sim));
  layout.nv = layout.sim.split(p_t, p_v, strprintf("sim%d/nv", sim));
  layout.t = layout.sim.split(p_v, p_t, strprintf("sim%d/t", sim));
  // The structural change vs CGYRO: a distinct collision communicator per
  // (sharing group, toroidal block), simulation-major order within the
  // group, over which that group's cmat copy is distributed.
  layout.coll = world.split(group * d.pt + p_t, index_in_group * d.pv + p_v,
                            strprintf("coll_shared.g%d", group));
  layout.n_sims_sharing = group_size;
  layout.share_index = index_in_group;
  if (sim_index_out != nullptr) *sim_index_out = sim;
  return layout;
}

EnsembleDriver::EnsembleDriver(const EnsembleInput& input,
                               gyro::Decomposition per_sim_decomp,
                               mpi::Proc& proc, gyro::Mode mode,
                               SharingPolicy policy)
    : proc_(&proc) {
  std::vector<int> group_of_sim(static_cast<size_t>(input.n_sims()), 0);
  if (policy == SharingPolicy::kSingleGroup) {
    input.validate_shared_cmat();
  } else {
    const auto groups = input.sharing_groups();
    for (size_t g = 0; g < groups.size(); ++g) {
      for (const int s : groups[g]) group_of_sim[s] = static_cast<int>(g);
    }
  }
  auto layout = make_xgyro_layout_grouped(proc.world(), group_of_sim,
                                          per_sim_decomp, &sim_index_);
  // Attribute this rank's trace rows and spans to its ensemble member, so
  // the Chrome trace groups tracks per member (one pid per simulation).
  proc.set_trace_member(sim_index_);
  group_ = group_of_sim[sim_index_];
  group_size_ = layout.n_sims_sharing;
  sim_ = std::make_unique<gyro::Simulation>(input.members[sim_index_],
                                            per_sim_decomp, std::move(layout),
                                            proc, mode);
}

void EnsembleDriver::initialize() {
  // Runtime cross-check scoped to each collision communicator (the set of
  // ranks that will actually share one cmat copy): all of them must agree
  // on the fingerprint before the tensor is built. Catches inputs edited
  // between static validation and job launch.
  proc_->set_phase("init");
  const std::uint64_t mine = sim_->input_cmat_fingerprint();
  std::uint64_t fp[2] = {mine, ~mine};
  // min-reduce: fp[0] stays `mine` everywhere iff all fingerprints agree.
  sim_->coll_comm().allreduce(std::span<std::uint64_t>(fp, 2),
                              [](std::uint64_t a, std::uint64_t b) {
                                return a < b ? a : b;
                              });
  if (fp[0] != mine || fp[1] != ~mine) {
    throw InputError("XGYRO: members assigned to one sharing group disagree "
                     "on cmat-relevant parameters; refusing to share cmat");
  }
  sim_->initialize();
}

gyro::Diagnostics EnsembleDriver::advance_report_interval() {
  return sim_->advance_report_interval();
}

}  // namespace xg::xgyro
