#include "analysis/baseline.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::analysis {

using telemetry::Json;

namespace {

constexpr const char* kSchema = "xgyro.bench_baseline";
constexpr int kSchemaVersion = 1;

void flatten_into(const Json& node, const std::string& prefix,
                  std::vector<std::pair<std::string, double>>& out) {
  if (node.is_number()) {
    out.emplace_back(prefix, node.as_double());
    return;
  }
  if (node.is_object()) {
    for (const auto& [key, value] : node.items()) {
      flatten_into(value, prefix.empty() ? key : prefix + "." + key, out);
    }
    return;
  }
  if (node.is_array()) {
    const auto& elems = node.elems();
    for (std::size_t i = 0; i < elems.size(); ++i) {
      const std::string seg = strprintf("%zu", i);
      flatten_into(elems[i], prefix.empty() ? seg : prefix + "." + seg, out);
    }
  }
  // bool/string/null leaves carry no gated metric
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

struct BaselineDoc {
  std::string bench;
  double default_tolerance = kDefaultBaselineTolerance;
  std::vector<std::pair<std::string, double>> tolerance_overrides;
  std::vector<std::string> ignore;
  const Json* payload = nullptr;
};

BaselineDoc parse_baseline(const Json& doc) {
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kSchema) {
    throw InputError(
        strprintf("baseline: missing or wrong 'schema' (want \"%s\")", kSchema));
  }
  if (doc.at("schema_version").as_int() != kSchemaVersion) {
    throw InputError("baseline: unsupported schema_version");
  }
  BaselineDoc b;
  b.bench = doc.at("bench").as_string();
  b.default_tolerance = doc.at("default_tolerance_frac").as_double();
  if (!(b.default_tolerance >= 0.0)) {
    throw InputError("baseline: default_tolerance_frac must be >= 0");
  }
  if (const Json* tols = doc.find("tolerances"); tols != nullptr) {
    if (!tols->is_object()) {
      throw InputError("baseline: 'tolerances' must be an object");
    }
    for (const auto& [path, frac] : tols->items()) {
      b.tolerance_overrides.emplace_back(path, frac.as_double());
    }
  }
  if (const Json* ig = doc.find("ignore"); ig != nullptr) {
    if (!ig->is_array()) throw InputError("baseline: 'ignore' must be an array");
    for (const auto& e : ig->elems()) b.ignore.push_back(e.as_string());
  }
  b.payload = &doc.at("payload");
  if (!b.payload->is_object()) {
    throw InputError("baseline: 'payload' must be an object");
  }
  return b;
}

bool ignored(const BaselineDoc& b, const std::string& path) {
  for (const auto& pat : b.ignore) {
    if (path.find(pat) != std::string::npos) return true;
  }
  return false;
}

double tolerance_for(const BaselineDoc& b, const std::string& path) {
  double tol = b.default_tolerance;
  std::size_t best = 0;
  for (const auto& [suffix, frac] : b.tolerance_overrides) {
    if (ends_with(path, suffix) && suffix.size() >= best) {
      best = suffix.size();
      tol = frac;
    }
  }
  return tol;
}

}  // namespace

std::vector<std::pair<std::string, double>> flatten_numeric(const Json& doc) {
  std::vector<std::pair<std::string, double>> out;
  flatten_into(doc, "", out);
  return out;
}

Json make_baseline(
    const std::string& bench, const Json& payload, double default_tolerance,
    const std::vector<std::pair<std::string, double>>& tolerance_overrides,
    const std::vector<std::string>& ignore) {
  if (!payload.is_object()) {
    throw InputError("baseline: bench payload must be a JSON object");
  }
  Json tols = Json::object();
  for (const auto& [path, frac] : tolerance_overrides) tols.set(path, Json(frac));
  Json ig = Json::array();
  for (const auto& pat : ignore) ig.push(Json(pat));
  return Json::object()
      .set("schema", Json(kSchema))
      .set("schema_version", Json(kSchemaVersion))
      .set("bench", Json(bench))
      .set("default_tolerance_frac", Json(default_tolerance))
      .set("tolerances", std::move(tols))
      .set("ignore", std::move(ig))
      .set("payload", payload);
}

BaselineCheck check_baseline(const Json& baseline_doc, const Json& candidate) {
  const BaselineDoc base = parse_baseline(baseline_doc);

  // Accept either a raw bench payload or another baseline document for the
  // same bench (then compare payload to payload).
  const Json* cand_payload = &candidate;
  if (const Json* schema = candidate.find("schema");
      schema != nullptr && schema->is_string() &&
      schema->as_string() == kSchema) {
    cand_payload = &candidate.at("payload");
  }

  BaselineCheck check;
  check.bench = base.bench;

  const auto base_flat = flatten_numeric(*base.payload);
  const auto cand_flat = flatten_numeric(*cand_payload);
  auto lookup = [&cand_flat](const std::string& path) -> const double* {
    for (const auto& [p, v] : cand_flat) {
      if (p == path) return &v;
    }
    return nullptr;
  };

  for (const auto& [path, base_value] : base_flat) {
    if (ignored(base, path)) continue;
    const double* cand_value = lookup(path);
    if (cand_value == nullptr) {
      check.errors.push_back(
          strprintf("metric '%s' missing from candidate", path.c_str()));
      continue;
    }
    BaselineMetric m;
    m.path = path;
    m.baseline = base_value;
    m.candidate = *cand_value;
    m.tolerance = tolerance_for(base, path);
    const double diff = std::fabs(m.candidate - m.baseline);
    if (base_value != 0.0) {
      m.rel_diff = diff / std::fabs(base_value);
    } else {
      m.rel_diff =
          diff == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
    }
    m.ok = m.rel_diff <= m.tolerance;
    if (!m.ok) check.pass = false;
    check.metrics.push_back(std::move(m));
  }

  // A metric appearing only in the candidate is schema drift, not a pass.
  for (const auto& [path, value] : cand_flat) {
    if (ignored(base, path)) continue;
    bool in_base = false;
    for (const auto& [bp, bv] : base_flat) {
      if (bp == path) { in_base = true; break; }
    }
    if (!in_base) {
      check.errors.push_back(
          strprintf("metric '%s' absent from baseline", path.c_str()));
    }
  }
  if (!check.errors.empty()) check.pass = false;
  return check;
}

Json scale_numeric_leaves(const Json& doc, double factor) {
  switch (doc.type()) {
    case Json::Type::kInt:
    case Json::Type::kDouble:
      return Json(doc.as_double() * factor);
    case Json::Type::kObject: {
      Json out = Json::object();
      for (const auto& [key, value] : doc.items()) {
        out.set(key, scale_numeric_leaves(value, factor));
      }
      return out;
    }
    case Json::Type::kArray: {
      Json out = Json::array();
      for (const auto& e : doc.elems()) {
        out.push(scale_numeric_leaves(e, factor));
      }
      return out;
    }
    default:
      return doc;
  }
}

BaselineSelfTest self_test_baseline(const Json& baseline_doc) {
  const BaselineDoc base = parse_baseline(baseline_doc);

  BaselineSelfTest st;
  const BaselineCheck identity = check_baseline(baseline_doc, *base.payload);
  st.identity_pass = identity.pass;
  for (const auto& m : identity.metrics) {
    // A zero-valued metric survives any multiplicative perturbation, so it
    // cannot demonstrate detection.
    if (m.tolerance < kSelfTestPerturbFrac && m.baseline != 0.0) {
      ++st.gated_metrics;
    }
  }
  const Json perturbed =
      scale_numeric_leaves(*base.payload, 1.0 + kSelfTestPerturbFrac);
  st.perturbed_fails = !check_baseline(baseline_doc, perturbed).pass;
  return st;
}

std::string format_baseline_check(const BaselineCheck& check) {
  std::string out;
  int bad = 0;
  for (const auto& m : check.metrics) {
    if (!m.ok) ++bad;
  }
  out += strprintf("bench '%s': %zu metrics compared, %d out of tolerance, "
                   "%zu structural errors -> %s\n",
                   check.bench.c_str(), check.metrics.size(), bad,
                   check.errors.size(), check.pass ? "PASS" : "FAIL");
  for (const auto& e : check.errors) {
    out += strprintf("  error: %s\n", e.c_str());
  }
  for (const auto& m : check.metrics) {
    if (m.ok) continue;
    const std::string rel = std::isfinite(m.rel_diff)
                                ? strprintf("%.3f%%", 100.0 * m.rel_diff)
                                : std::string("inf");
    out += strprintf("  %s: baseline %.9g candidate %.9g (diff %s, tol "
                     "%.3f%%)\n",
                     m.path.c_str(), m.baseline, m.candidate, rel.c_str(),
                     100.0 * m.tolerance);
  }
  return out;
}

}  // namespace xg::analysis
