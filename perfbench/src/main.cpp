// perfbench: host-cost benchmark of the XGYRO library.
//
//   perfbench --workload fig2_model|ensemble_real|serve_stream --seed N
//             --seconds S --trace 0|1 [--perturb] [--scratch DIR]
//             [--out DIR] [--commit ID] [--source-digest HEX]
//
// Prints human-readable lines (host context, sample counts, metrics with
// units), then as its last line one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// --out DIR also writes the full result record (and, traced, the span dump).
// Normally launched through run.py, which builds this binary first.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.hpp"
#include "telemetry/json.hpp"
#include "util/format.hpp"

namespace {

using xg::telemetry::Json;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fig2_model|ensemble_real|serve_stream "
               "--seed N --seconds S --trace 0|1 [--perturb] [--scratch DIR] "
               "[--out DIR] [--commit ID] [--source-digest HEX]\n");
  return 2;
}

bool parse(int argc, char** argv, pb::Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--perturb") {
      o.perturb = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return false;
      o.trace = v == "1";
    } else if (a == "--scratch") {
      o.scratch_dir = v;
    } else if (a == "--out") {
      o.out_dir = v;
    } else if (a == "--commit") {
      o.commit = v;
    } else if (a == "--source-digest") {
      o.source_digest = v;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

bool release_build() {
  const std::string bt = PB_BUILD_TYPE;
  return bt == "Release" || bt == "RelWithDebInfo";
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  if (!parse(argc, argv, opt)) return usage();

  const double load_before = pb::loadavg_1min();
  const pb::CpuTicks cpu_before = pb::CpuTicks::now();
  pb::Result r;
  try {
    if (opt.workload == "fig2_model") {
      r = pb::run_fig2_model(opt);
    } else if (opt.workload == "ensemble_real") {
      r = pb::run_ensemble_real(opt);
    } else if (opt.workload == "serve_stream") {
      r = pb::run_serve_stream(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  const double load_after = pb::loadavg_1min();
  const pb::CpuTicks cpu_after = pb::CpuTicks::now();
  const double ticks = cpu_after.total - cpu_before.total;
  const double steal_frac = ticks > 0 ? (cpu_after.steal - cpu_before.steal) / ticks : 0.0;
  const bool correct = r.failed == 0 && r.attempted > 0;

  const Json host = Json::object()
                        .set("nproc", static_cast<int>(std::thread::hardware_concurrency()))
                        .set("loadavg_1m_before", load_before)
                        .set("loadavg_1m_after", load_after)
                        .set("cpu_steal_frac", steal_frac)
                        .set("build_type", PB_BUILD_TYPE)
                        .set("cxx_flags", PB_CXX_FLAGS)
                        .set("compiler", PB_COMPILER)
                        .set("commit", opt.commit)
                        .set("source_digest", opt.source_digest);

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              opt.perturb ? " PERTURBED-REFERENCE" : "");
  std::printf("host: nproc=%u loadavg_1m before=%.2f after=%.2f cpu_steal=%.2f%% build=%s "
              "flags='%s' compiler='%s' commit=%s source=%s\n",
              std::thread::hardware_concurrency(), load_before, load_after, 100 * steal_frac,
              PB_BUILD_TYPE,
              PB_CXX_FLAGS, PB_COMPILER, opt.commit.c_str(), opt.source_digest.c_str());
  if (!release_build()) {
    std::printf("WARNING: %s build; timings are not representative\n", PB_BUILD_TYPE);
  }
  for (const auto& line : r.notes) std::printf("%s\n", line.c_str());

  Json metrics = Json::object();
  if (!opt.trace) std::printf("end-to-end metrics:\n");
  for (const auto& [name, vu] : r.metrics) {
    metrics.set(name, Json::object().set("value", vu.first).set("unit", vu.second));
    if (!opt.trace) std::printf("  %-18s %14.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }

  if (!opt.out_dir.empty()) {
    std::filesystem::create_directories(opt.out_dir);
    const std::string stem =
        xg::strprintf("%s/%s-seed%llu-trace%d", opt.out_dir.c_str(), opt.workload.c_str(),
                      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
    const Json record = Json::object()
                            .set("workload", opt.workload)
                            .set("seed", static_cast<std::int64_t>(opt.seed))
                            .set("seconds", opt.seconds)
                            .set("trace", opt.trace)
                            .set("perturb", opt.perturb)
                            .set("host", host)
                            .set("correct", correct)
                            .set("attempted", static_cast<std::int64_t>(r.attempted))
                            .set("failed", static_cast<std::int64_t>(r.failed))
                            .set("metrics", metrics)
                            .set("detail", r.detail);
    xg::telemetry::write_json_file(stem + ".json", record);
    if (opt.trace && !r.span_dump.is_null()) {
      xg::telemetry::write_json_file(stem + ".spans.json", r.span_dump);
    }
  }

  const Json last = Json::object()
                        .set("correct", correct)
                        .set("attempted", static_cast<std::int64_t>(r.attempted))
                        .set("failed", static_cast<std::int64_t>(r.failed))
                        .set("metrics", std::move(metrics));
  std::printf("%s\n", last.dump().c_str());
  return 0;
}
