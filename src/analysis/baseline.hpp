// Benchmark baseline harness: canonical BENCH_<name>.json documents and the
// comparison logic behind xgyro_bench_check.
//
// A baseline wraps one bench's JSON payload (the document the bench's
// --json/stdout mode emits) with per-metric tolerances:
//
//   { "schema": "xgyro.bench_baseline", "schema_version": 1,
//     "bench": "node_scaling",
//     "default_tolerance_frac": 0.02,
//     "tolerances": { "<path suffix>": frac, ... },
//     "ignore": [ "<path substring>", ... ],
//     "payload": { ...original bench document... } }
//
// Comparison flattens every numeric leaf of both payloads to a dotted path
// ("series.3.compute_s") and gates the relative difference per path. DES
// benches report virtual seconds and are bit-deterministic, so tight default
// tolerances hold; wall-clock metrics (cells/s rates) are listed in
// "ignore" so CI stays machine-independent while config drift (nv, k,
// node counts) still fails loudly.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"

namespace xg::analysis {

/// Default per-metric relative tolerance for recorded baselines.
inline constexpr double kDefaultBaselineTolerance = 0.02;

/// Flatten every numeric leaf of `doc` to ("a.b.0.c", value), in document
/// order. Booleans and strings are skipped; array indices become path
/// segments.
std::vector<std::pair<std::string, double>> flatten_numeric(
    const telemetry::Json& doc);

/// Build a baseline document wrapping `payload`. `tolerance_overrides` are
/// (path-suffix, frac) pairs — the longest suffix matching a metric path
/// wins over the default; `ignore` entries exclude any path containing them
/// as a substring.
telemetry::Json make_baseline(
    const std::string& bench, const telemetry::Json& payload,
    double default_tolerance = kDefaultBaselineTolerance,
    const std::vector<std::pair<std::string, double>>& tolerance_overrides = {},
    const std::vector<std::string>& ignore = {});

/// One compared metric.
struct BaselineMetric {
  std::string path;
  double baseline = 0.0;
  double candidate = 0.0;
  double rel_diff = 0.0;  ///< |candidate - baseline| / |baseline| (inf if
                          ///< baseline is 0 and candidate is not)
  double tolerance = 0.0;
  bool ok = true;
};

struct BaselineCheck {
  std::string bench;
  bool pass = true;
  std::vector<BaselineMetric> metrics;  ///< compared, non-ignored paths
  /// Structural mismatches (path present on only one side) and schema
  /// violations; any entry fails the check.
  std::vector<std::string> errors;
};

/// Compare `candidate` (a raw bench payload, or another baseline document —
/// then its payload is unwrapped) against `baseline_doc`. Throws
/// xg::InputError when baseline_doc is not a valid xgyro.bench_baseline.
BaselineCheck check_baseline(const telemetry::Json& baseline_doc,
                             const telemetry::Json& candidate);

/// Copy of `doc` with every numeric leaf multiplied by `factor` (the
/// injected-regression generator used by the self-test).
telemetry::Json scale_numeric_leaves(const telemetry::Json& doc,
                                     double factor);

/// The regression size a baseline self-test injects: +10% on every metric.
inline constexpr double kSelfTestPerturbFrac = 0.10;

/// Result of a baseline self-test: the identity comparison must pass and a
/// +kSelfTestPerturbFrac scaling of every metric must fail — i.e. the
/// baseline actually detects a regression of that size.
struct BaselineSelfTest {
  bool identity_pass = false;
  bool perturbed_fails = false;
  /// Non-ignored paths with tolerance < kSelfTestPerturbFrac.
  int gated_metrics = 0;

  [[nodiscard]] bool ok() const {
    return identity_pass && perturbed_fails && gated_metrics > 0;
  }
};

BaselineSelfTest self_test_baseline(const telemetry::Json& baseline_doc);

/// Table of out-of-tolerance metrics (or "all N metrics within tolerance").
std::string format_baseline_check(const BaselineCheck& check);

}  // namespace xg::analysis
