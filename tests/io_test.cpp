// Timing logs, run metadata and input.xgyro manifests: round trips and
// rejection of malformed files. Solver-state snapshots are covered by
// checkpoint_test.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "gyro/run_info.hpp"
#include "gyro/simulation.hpp"
#include "gyro/timing_log.hpp"
#include "simnet/machine.hpp"
#include "xgyro/driver.hpp"

namespace xg::gyro {
namespace {

Input test_input() {
  Input in = Input::small_test(2);
  in.n_steps_per_report = 5;
  return in;
}

TEST(TimingLog, RenderParseRoundTripIsExact) {
  std::vector<TimingRow> rows{
      {"str", 0.0, 1.0 / 3.0, 1.0 / 3.0},
      {"str_comm", 1.23456789012345e-3, 0.0, 1.23456789012345e-3},
      {"coll", 0.25, 2.5, 2.75},
  };
  const std::string text = render_timing_log(rows, 7.125);
  double makespan = 0;
  const auto parsed = parse_timing_log(text, &makespan);
  ASSERT_EQ(parsed.size(), rows.size());
  EXPECT_DOUBLE_EQ(makespan, 7.125);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(parsed[i].phase, rows[i].phase);
    // %.17e captures doubles exactly
    EXPECT_EQ(parsed[i].comm_s, rows[i].comm_s);
    EXPECT_EQ(parsed[i].compute_s, rows[i].compute_s);
    EXPECT_EQ(parsed[i].total_s, rows[i].total_s);
  }
}

TEST(TimingLog, ParseToleratesExtraWhitespace) {
  const std::string text =
      "  # xgyro timing v1  \n"
      "\n"
      "   # phase comm compute total\n"
      "str_comm \t 1.0e-2   0.0\t2.0e-2   \n"
      "\t# makespan   3.5e+0\n"
      "\n";
  double makespan = 0;
  const auto rows = parse_timing_log(text, &makespan);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].phase, "str_comm");
  EXPECT_DOUBLE_EQ(rows[0].comm_s, 1.0e-2);
  EXPECT_DOUBLE_EQ(rows[0].total_s, 2.0e-2);
  EXPECT_DOUBLE_EQ(makespan, 3.5);
}

TEST(TimingLog, ParseWithoutMakespanLeavesOutputUntouched) {
  const std::string text =
      "# xgyro timing v1\n"
      "str 0.0 1.0 1.0\n";
  double makespan = -1.0;  // sentinel: must survive a log with no makespan
  const auto rows = parse_timing_log(text, &makespan);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(makespan, -1.0);
}

TEST(TimingLog, ParseRejectsNonFiniteValues) {
  // strtod accepts "nan"/"inf" spellings; a timing log carrying them is
  // corrupt and must be rejected, not propagated into Fig. 2 reductions.
  EXPECT_THROW(parse_timing_log("# xgyro timing v1\nstr nan 0.0 1.0\n"),
               InputError);
  EXPECT_THROW(parse_timing_log("# xgyro timing v1\nstr 0.0 inf 1.0\n"),
               InputError);
  EXPECT_THROW(parse_timing_log("# xgyro timing v1\nstr 0.0 0.0 -inf\n"),
               InputError);
  double makespan = 0;
  EXPECT_THROW(
      parse_timing_log("# xgyro timing v1\n# makespan nan\n", &makespan),
      InputError);
}

TEST(TimingLog, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "xg_timing.log";
  std::vector<TimingRow> rows{{"nl_comm", 0.5, 0.0, 0.5}};
  write_timing_log(path, rows, 1.5);
  double makespan = 0;
  const auto parsed = load_timing_log(path, &makespan);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].phase, "nl_comm");
  EXPECT_DOUBLE_EQ(makespan, 1.5);
}

TEST(TimingLog, RowsComeFromRunResult) {
  const Input in = test_input();
  xgyro::JobOptions opts;
  opts.mode = Mode::kModel;
  const auto res = xgyro::run_cgyro_job(in, net::testbox(1, 8), 8, opts);
  const auto rows = timing_rows(res, xgyro::solver_phases());
  ASSERT_EQ(rows.size(), xgyro::solver_phases().size());
  bool any_comm = false;
  for (const auto& r : rows) {
    EXPECT_GE(r.total_s, r.comm_s);
    EXPECT_GE(r.total_s, r.compute_s);
    any_comm |= r.comm_s > 0;
  }
  EXPECT_TRUE(any_comm);
  // And the full pipeline survives render -> parse.
  const auto parsed = parse_timing_log(render_timing_log(rows, res.makespan_s));
  EXPECT_EQ(parsed.size(), rows.size());
}

TEST(Manifest, LoadsMembersFromDirectories) {
  namespace fs = std::filesystem;
  const std::string base = ::testing::TempDir() + "xg_manifest";
  fs::create_directories(base + "/m0");
  fs::create_directories(base + "/m1");
  for (int i = 0; i < 2; ++i) {
    Input in = Input::small_test(2);
    in.species[0].a_ln_t = 2.0 + i;
    in.tag = "member" + std::to_string(i);
    std::ofstream f(base + "/m" + std::to_string(i) + "/input.cgyro");
    f << in.to_keyvalue().to_string();
  }
  {
    std::ofstream f(base + "/input.xgyro");
    f << "N_SIM=2\nDIR_1=m0\nDIR_2=m1\n";
  }
  const auto e = xgyro::EnsembleInput::load_manifest(base + "/input.xgyro");
  ASSERT_EQ(e.n_sims(), 2);
  EXPECT_EQ(e.members[0].tag, "member0");
  EXPECT_EQ(e.members[1].tag, "member1");
  EXPECT_DOUBLE_EQ(e.members[1].species[0].a_ln_t, 3.0);
}

TEST(Manifest, CustomInputNameAndAbsoluteDirs) {
  namespace fs = std::filesystem;
  const std::string base = ::testing::TempDir() + "xg_manifest_abs";
  fs::create_directories(base + "/runA");
  {
    std::ofstream f(base + "/runA/my.in");
    f << Input::small_test(1).to_keyvalue().to_string();
  }
  {
    std::ofstream f(base + "/job.xgyro");
    f << "N_SIM=1\nINPUT_NAME=my.in\nDIR_1=" << base << "/runA\n";
  }
  const auto e = xgyro::EnsembleInput::load_manifest(base + "/job.xgyro");
  EXPECT_EQ(e.n_sims(), 1);
}

TEST(Manifest, MissingPiecesRejected) {
  namespace fs = std::filesystem;
  const std::string base = ::testing::TempDir() + "xg_manifest_bad";
  fs::create_directories(base);
  {
    std::ofstream f(base + "/a.xgyro");
    f << "N_SIM=2\nDIR_1=m0\n";  // DIR_2 missing
  }
  EXPECT_THROW(xgyro::EnsembleInput::load_manifest(base + "/a.xgyro"),
               InputError);
  {
    std::ofstream f(base + "/b.xgyro");
    f << "N_SIM=0\n";
  }
  EXPECT_THROW(xgyro::EnsembleInput::load_manifest(base + "/b.xgyro"), Error);
  {
    std::ofstream f(base + "/c.xgyro");
    f << "N_SIM=1\nDIR_1=does_not_exist\n";
  }
  EXPECT_THROW(xgyro::EnsembleInput::load_manifest(base + "/c.xgyro"), Error);
}

TEST(Manifest, MixedPhysicsRejectedBySharedCmatValidation) {
  namespace fs = std::filesystem;
  const std::string base = ::testing::TempDir() + "xg_manifest_mixed";
  fs::create_directories(base + "/m0");
  fs::create_directories(base + "/m1");
  Input a = Input::small_test(1);
  Input b = a;
  b.collision.nu_ee *= 2.0;  // cmat-relevant
  {
    std::ofstream f(base + "/m0/input.cgyro");
    f << a.to_keyvalue().to_string();
  }
  {
    std::ofstream f(base + "/m1/input.cgyro");
    f << b.to_keyvalue().to_string();
  }
  {
    std::ofstream f(base + "/input.xgyro");
    f << "N_SIM=2\nDIR_1=m0\nDIR_2=m1\n";
  }
  EXPECT_THROW(xgyro::EnsembleInput::load_manifest(base + "/input.xgyro"),
               InputError);
}

TEST(RunInfo, MentionsEveryKeyQuantity) {
  const Input in = Input::small_test(2);
  const Decomposition d{2, 2};
  const auto machine = net::frontier_like(1);
  const auto text = render_run_info(in, d, 4, machine);
  for (const char* needle :
       {"nc=16", "nv=32", "pv 2 x pt 2", "shared by 4", "cmat", "fits",
        "ensemble-shared", "fingerprint"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // CGYRO layout (k=1) says the coll comm IS the nv comm.
  const auto solo = render_run_info(in, d, 1, machine);
  EXPECT_NE(solo.find("= nv comm"), std::string::npos);
}

TEST(RunInfo, GridsListEveryNode) {
  const Input in = Input::small_test(1);
  const auto text = render_grids(in);
  // one line per mode/node of each grid
  size_t ky = 0, kx = 0, energy = 0, xi = 0;
  for (size_t pos = 0; (pos = text.find("\nky ", pos)) != std::string::npos;
       ++pos) {
    ++ky;
  }
  for (size_t pos = 0; (pos = text.find("\nkx ", pos)) != std::string::npos;
       ++pos) {
    ++kx;
  }
  for (size_t pos = 0;
       (pos = text.find("\nenergy ", pos)) != std::string::npos; ++pos) {
    ++energy;
  }
  for (size_t pos = 0; (pos = text.find("\nxi ", pos)) != std::string::npos;
       ++pos) {
    ++xi;
  }
  EXPECT_EQ(ky, static_cast<size_t>(in.nt()));
  EXPECT_EQ(kx, static_cast<size_t>(in.n_radial));
  EXPECT_EQ(energy, static_cast<size_t>(in.n_energy));
  EXPECT_EQ(xi, static_cast<size_t>(in.n_xi));
}

TEST(RunInfo, WritersProduceReadableFiles) {
  const std::string dir = ::testing::TempDir();
  const Input in = Input::small_test(1);
  write_run_info(dir + "xg_info.txt", in, Decomposition{1, 1}, 1,
                 net::frontier_like(1));
  write_grids(dir + "xg_grids.txt", in);
  std::ifstream f1(dir + "xg_info.txt"), f2(dir + "xg_grids.txt");
  EXPECT_TRUE(f1.good());
  EXPECT_TRUE(f2.good());
  std::string line;
  std::getline(f2, line);
  EXPECT_EQ(line, "# xgyro grids v1");
}

TEST(InputFile, LoadFromDiskRoundTrip) {
  const std::string path = ::testing::TempDir() + "xg_input.cgyro";
  Input in = Input::small_test(2);
  in.seed = 77;
  {
    std::ofstream f(path);
    f << in.to_keyvalue().to_string();
  }
  const Input back = Input::load(path);
  EXPECT_EQ(back.seed, 77u);
  EXPECT_EQ(back.cmat_fingerprint(), in.cmat_fingerprint());
  EXPECT_THROW(Input::load("/nonexistent/input.cgyro"), Error);
}

TEST(TimingLog, MalformedInputRejected) {
  EXPECT_THROW(parse_timing_log("str 1.0 2.0\n"), InputError);  // no header
  EXPECT_THROW(parse_timing_log("# xgyro timing v1\nstr 1.0\n"), InputError);
  EXPECT_THROW(parse_timing_log("# xgyro timing v1\nstr a b c\n"), InputError);
  EXPECT_NO_THROW(parse_timing_log("# xgyro timing v1\n"));
}

}  // namespace
}  // namespace xg::gyro
