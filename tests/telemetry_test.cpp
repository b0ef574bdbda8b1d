// Telemetry layer tests: JSON round-trips, histogram quantiles, metrics
// snapshots, Chrome trace export/validation (one complete track per rank),
// per-member collective skew under fault injection, and run-report
// serialization plus the Fig. 2 diff path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string_view>

#include "gyro/timing_log.hpp"
#include "simmpi/fault.hpp"
#include "simnet/machine.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "xgyro/driver.hpp"
#include "xgyro/ensemble.hpp"

namespace xg::telemetry {
namespace {

using gyro::Input;

xgyro::EnsembleInput make_sweep(int k) {
  Input base = Input::small_test(2);
  base.nonlinear = true;  // exercise the nl gather/FFT/transpose spans too
  return xgyro::EnsembleInput::sweep(base, k, [](Input& in, int i) {
    in.species[0].a_ln_t = 2.0 + 0.5 * i;
    in.tag = "member" + std::to_string(i);
  });
}

mpi::RunResult traced_xgyro_run(int k = 2, int ranks_per_sim = 4,
                                const char* faults = nullptr) {
  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kModel;
  opts.enable_trace = true;
  opts.enable_traffic = true;
  if (faults != nullptr) opts.faults = mpi::FaultPlan::parse(faults);
  return xgyro::run_xgyro_job(make_sweep(k),
                              net::testbox(1, k * ranks_per_sim),
                              ranks_per_sim, opts);
}

// --- Json ------------------------------------------------------------------

TEST(Json, DumpParseRoundTripPreservesTypesAndValues) {
  Json doc = Json::object()
                 .set("null", Json())
                 .set("true", Json(true))
                 .set("false", Json(false))
                 .set("int", Json(std::int64_t{-42}))
                 .set("big", Json(std::uint64_t{1} << 62))
                 .set("pi", Json(3.14159265358979312))
                 .set("tenth", Json(0.1))
                 .set("whole", Json(2.0))
                 .set("str", Json("a \"quoted\"\\\n\tline\x01"))
                 .set("arr", [] {
                   Json a = Json::array();
                   a.push(Json(1));
                   a.push(Json(2.5));
                   a.push(Json::object().set("k", Json("v")));
                   return a;
                 }());
  for (const int indent : {-1, 0, 2}) {
    const Json back = Json::parse(doc.dump(indent));
    EXPECT_EQ(back.at("null").type(), Json::Type::kNull);
    EXPECT_TRUE(back.at("true").as_bool());
    EXPECT_FALSE(back.at("false").as_bool());
    EXPECT_EQ(back.at("int").as_int(), -42);
    EXPECT_EQ(back.at("big").as_int(), std::int64_t{1} << 62);
    // std::to_chars shortest form round-trips doubles bit-exactly.
    EXPECT_EQ(back.at("pi").as_double(), 3.14159265358979312);
    EXPECT_EQ(back.at("tenth").as_double(), 0.1);
    // Integral-valued doubles keep their floating type across the cycle.
    EXPECT_EQ(back.at("whole").type(), Json::Type::kDouble);
    EXPECT_EQ(back.at("whole").as_double(), 2.0);
    EXPECT_EQ(back.at("str").as_string(), "a \"quoted\"\\\n\tline\x01");
    EXPECT_EQ(back.at("arr").size(), 3u);
    EXPECT_EQ(back.at("arr").elems()[2].at("k").as_string(), "v");
    // Object key order is preserved, so dumps are deterministic.
    EXPECT_EQ(back.dump(indent), doc.dump(indent));
  }
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), InputError);
  EXPECT_THROW((void)Json::parse("{\"a\": 1} trailing"), InputError);
  EXPECT_THROW((void)Json::parse("{\"a\": }"), InputError);
  EXPECT_THROW((void)Json::parse("[1, 2"), InputError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), InputError);
  EXPECT_THROW((void)Json::parse("nan"), InputError);
  EXPECT_THROW((void)Json::parse("inf"), InputError);
  EXPECT_THROW((void)Json::parse("01x"), InputError);
  try {
    (void)Json::parse("[1, oops]");
    FAIL() << "expected InputError";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("byte 4"), std::string::npos)
        << e.what();
  }
}

TEST(Json, AccessorsThrowOnMismatch) {
  const Json doc = Json::parse(R"({"n": 1, "s": "x"})");
  EXPECT_THROW((void)doc.at("missing"), InputError);
  EXPECT_THROW((void)doc.at("s").as_int(), InputError);
  EXPECT_THROW((void)doc.at("n").as_string(), InputError);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(doc.at("n").as_double(), 1.0);  // int widens to double
}

TEST(Json, NonFiniteDoublesSerializeAsNull) {
  Json doc = Json::object()
                 .set("nan", Json(std::nan("")))
                 .set("inf", Json(std::numeric_limits<double>::infinity()));
  const Json back = Json::parse(doc.dump());
  EXPECT_TRUE(back.at("nan").is_null());
  EXPECT_TRUE(back.at("inf").is_null());
}

TEST(Json, WriteToUnwritablePathThrowsCleanError) {
  const Json doc = Json::object().set("a", Json(1));
  EXPECT_THROW(write_json_file("/nonexistent-dir-xg/out.json", doc), Error);
}

// --- Json conformance ------------------------------------------------------
// Exact outcomes (value bits, or the InputError message with its byte
// offset) of the edge cases a parser/serializer rewrite is most likely to
// move. Every log, report and metrics file goes through these paths, so
// any change here is a change to the bytes on disk.

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::string parse_error(std::string_view text) {
  try {
    (void)Json::parse(text);
  } catch (const InputError& e) {
    return e.what();
  }
  return "(parsed)";
}

TEST(JsonConformance, NumberTokensParseToPinnedValuesOrErrors) {
  struct Case {
    const char* text;
    Json::Type type;
    double value;  ///< compared by bits; kInt cases hold the integer value
  };
  const Case parsed[] = {
      {"+1", Json::Type::kDouble, 1.0},
      {"1.", Json::Type::kDouble, 1.0},
      {".5", Json::Type::kDouble, 0.5},
      {"-0", Json::Type::kInt, 0.0},
      {"-0.0", Json::Type::kDouble, -0.0},
      {"007", Json::Type::kInt, 7.0},
      {"1e-400", Json::Type::kDouble, 0.0},  // underflow flushes to +0
      {"4e-320", Json::Type::kDouble, 4e-320},  // subnormal kept exactly
      {"1.5e+3", Json::Type::kDouble, 1500.0},
      {"1E2", Json::Type::kDouble, 100.0},
      {"0.1", Json::Type::kDouble, 0.1},
      {"9223372036854775807", Json::Type::kInt, 0.0},
      {"9223372036854775808", Json::Type::kDouble, 9223372036854775808.0},
      {"-9223372036854775808", Json::Type::kInt, 0.0},
      {"123456789012345678901234567890", Json::Type::kDouble,
       123456789012345678901234567890.0},
      // Correct rounding at the edges of the double range and at ties.
      {"2.2250738585072011e-308", Json::Type::kDouble, 2.2250738585072011e-308},
      {"2.2250738585072012e-308", Json::Type::kDouble, 2.2250738585072012e-308},
      {"4.9406564584124654e-324", Json::Type::kDouble, 4.9406564584124654e-324},
      {"2.4703282292062328e-324", Json::Type::kDouble, 4.9406564584124654e-324},
      {"2.4703282292062327e-324", Json::Type::kDouble, 0.0},
      {"1.7976931348623157e308", Json::Type::kDouble, 1.7976931348623157e308},
      {"1.7976931348623158e308", Json::Type::kDouble, 1.7976931348623157e308},
      {"9007199254740993.0", Json::Type::kDouble, 9007199254740992.0},
      {"0.1000000000000000055511151231257827021181583404541015625",
       Json::Type::kDouble, 0.1},
  };
  for (const auto& c : parsed) {
    const Json j = Json::parse(c.text);
    ASSERT_EQ(j.type(), c.type) << c.text;
    if (c.type == Json::Type::kDouble) {
      EXPECT_EQ(bits_of(j.as_double()), bits_of(c.value)) << c.text;
    }
  }
  EXPECT_EQ(Json::parse("-0").as_int(), 0);
  EXPECT_EQ(Json::parse("007").as_int(), 7);
  EXPECT_EQ(Json::parse("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());

  EXPECT_EQ(parse_error("1e309"),
            "json parse error at byte 5: invalid number '1e309'");
  EXPECT_EQ(parse_error("-1e309"),
            "json parse error at byte 6: invalid number '-1e309'");
  EXPECT_EQ(parse_error("1.7976931348623159e308"),
            "json parse error at byte 22: invalid number "
            "'1.7976931348623159e308'");
  EXPECT_EQ(parse_error("1e"),
            "json parse error at byte 2: invalid number '1e'");
  EXPECT_EQ(parse_error("1-2"),
            "json parse error at byte 3: invalid number '1-2'");
  EXPECT_EQ(parse_error("-"), "json parse error at byte 1: invalid number");
  EXPECT_EQ(parse_error("[1,-]"), "json parse error at byte 4: invalid number");
  EXPECT_EQ(parse_error("x"), "json parse error at byte 0: invalid number");
}

TEST(JsonConformance, RandomBitDoublesRoundTripBitExactly) {
  Rng rng(7);
  for (int i = 0; i < 40000; ++i) {
    std::uint64_t bits = rng.next_u64();
    if (i % 8 == 0) bits &= 0x800FFFFFFFFFFFFFull;  // subnormals and zeros
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    const Json back = Json::parse(Json(v).dump());
    if (!std::isfinite(v)) {
      EXPECT_TRUE(back.is_null()) << std::hex << bits;
      continue;
    }
    ASSERT_EQ(back.type(), Json::Type::kDouble) << std::hex << bits;
    EXPECT_EQ(bits_of(back.as_double()), bits) << std::hex << bits;
  }
}

/// The serializer's escaping rule, spelled out byte by byte.
std::string expected_escape(unsigned char c) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\b': return "\\b";
    case '\f': return "\\f";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default: break;
  }
  if (c < 0x20) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "\\u%04x", c);
    return buf;
  }
  return std::string(1, static_cast<char>(c));
}

TEST(JsonConformance, EveryByteSurvivesDumpParse) {
  std::string all, want = "\"";
  for (int b = 0; b < 256; ++b) {
    all += static_cast<char>(b);
    want += expected_escape(static_cast<unsigned char>(b));
  }
  want += '"';
  const std::string dumped = Json(all).dump();
  EXPECT_EQ(dumped, want);
  EXPECT_EQ(Json::parse(dumped).as_string(), all);
  // One byte inside runs of plain text, as a value and as a key.
  for (int b = 0; b < 256; ++b) {
    const std::string s = std::string("ab") + static_cast<char>(b) + "cd";
    const std::string text = Json::object().set(s, Json(s)).dump();
    EXPECT_EQ(text, "{\"ab" + expected_escape(static_cast<unsigned char>(b)) +
                        "cd\":\"ab" +
                        expected_escape(static_cast<unsigned char>(b)) +
                        "cd\"}")
        << "byte " << b;
    const Json back = Json::parse(text);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back.items()[0].first, s) << "byte " << b;
    EXPECT_EQ(back.items()[0].second.as_string(), s) << "byte " << b;
  }
  // Escapes the serializer never writes still decode (\u to UTF-8).
  EXPECT_EQ(Json::parse(R"("a\/b\u0000\u00e9\u20AC")").as_string(),
            std::string("a/b\0\xC3\xA9\xE2\x82\xAC", 9));
}

TEST(JsonConformance, StringErrorsReportTheirByteOffset) {
  EXPECT_EQ(parse_error("\"a\x01" "b\""),
            "json parse error at byte 3: unescaped control character in "
            "string");
  EXPECT_EQ(parse_error("{\"k\x1f\":1}"),
            "json parse error at byte 4: unescaped control character in "
            "string");
  EXPECT_EQ(parse_error("\"abc"),
            "json parse error at byte 4: unexpected end of input");
  EXPECT_EQ(parse_error("\"ab\\"),
            "json parse error at byte 4: unexpected end of input");
  EXPECT_EQ(parse_error("\"\\u12"),
            "json parse error at byte 5: unexpected end of input");
  EXPECT_EQ(parse_error("\"\\u12g4\""),
            "json parse error at byte 6: bad \\u escape");
  EXPECT_EQ(parse_error("\"\\x\""),
            "json parse error at byte 3: bad escape character");
  EXPECT_EQ(parse_error("\""),
            "json parse error at byte 1: unexpected end of input");
}

TEST(JsonConformance, DuplicateKeyLastValueWinsAtFirstPosition) {
  const Json doc = Json::parse(R"({"a":1,"b":2,"a":{"x":3}})");
  ASSERT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc.items()[0].first, "a");
  EXPECT_EQ(doc.items()[1].first, "b");
  EXPECT_EQ(doc.at("a").at("x").as_int(), 3);
  EXPECT_EQ(doc.dump(), R"({"a":{"x":3},"b":2})");
  Json built = Json::object();
  built.set("a", 1).set("b", 2).set("a", "again");
  EXPECT_EQ(built.dump(), R"({"a":"again","b":2})");
}

/// Seeded random document: every type, raw-byte strings and keys (so
/// escapes land inside runs), random-bit doubles (NaN/Inf included, which
/// serialize as null), and nesting to `depth`.
Json random_json(Rng& rng, int depth) {
  const auto random_string = [&rng] {
    std::string s(rng.next_below(12), '\0');
    for (char& c : s) {
      // Half plain ASCII letters, half any byte.
      c = rng.next_below(2) == 0 ? static_cast<char>('a' + rng.next_below(26))
                                 : static_cast<char>(rng.next_below(256));
    }
    return s;
  };
  const std::uint64_t kind = rng.next_below(depth > 0 ? 10 : 6);
  switch (kind) {
    case 0: return Json();
    case 1: return Json(rng.next_below(2) == 1);
    case 2: return Json(static_cast<std::int64_t>(rng.next_u64()));
    case 3: {
      const std::uint64_t bits = rng.next_u64();
      double v = 0.0;
      std::memcpy(&v, &bits, sizeof v);
      return Json(v);
    }
    case 4: return Json(rng.uniform(-1e3, 1e3));
    case 5: return Json(random_string());
    case 6:
    case 7: {
      Json a = Json::array();
      for (std::uint64_t i = rng.next_below(6); i > 0; --i) {
        a.push(random_json(rng, depth - 1));
      }
      return a;
    }
    default: {
      Json o = Json::object();
      for (std::uint64_t i = rng.next_below(6); i > 0; --i) {
        o.set(random_string(), random_json(rng, depth - 1));
      }
      return o;
    }
  }
}

TEST(JsonConformance, SeededRandomTreeDumpParseDumpIsAFixedPoint) {
  Rng rng(20260717);
  Json forest = Json::array();
  for (int i = 0; i < 256; ++i) forest.push(random_json(rng, 5));
  const std::string compact = forest.dump();
  for (const int indent : {-1, 0, 2}) {
    const std::string text = forest.dump(indent);
    const Json back = Json::parse(text);
    EXPECT_EQ(back.dump(indent), text) << "indent " << indent;
    EXPECT_EQ(back.dump(), compact) << "indent " << indent;
  }
  // Pin the serialized bytes themselves across commits.
  EXPECT_EQ(compact.size(), 20964u);
  EXPECT_EQ(Hasher().bytes(compact.data(), compact.size()).digest(),
            0x9e935900ec59f4f5ull);
}

// --- Histogram / metrics ---------------------------------------------------

TEST(Histogram, QuantilesUseBucketUpperBounds) {
  Histogram h({1.0, 10.0, 100.0});
  for (int i = 0; i < 50; ++i) h.observe(0.5);    // bucket le=1
  for (int i = 0; i < 45; ++i) h.observe(5.0);    // bucket le=10
  for (int i = 0; i < 4; ++i) h.observe(50.0);    // bucket le=100
  h.observe(1000.0);                              // overflow
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.quantile(0.50), 1.0);
  EXPECT_EQ(h.quantile(0.95), 10.0);
  EXPECT_EQ(h.quantile(0.99), 100.0);
  EXPECT_EQ(h.quantile(1.0), 1000.0);  // overflow bucket reports the max
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 1000.0);

  const Json j = h.to_json();
  EXPECT_EQ(j.at("count").as_int(), 100);
  EXPECT_EQ(j.at("p50").as_double(), 1.0);
  EXPECT_EQ(j.at("p95").as_double(), 10.0);
  // Cumulative bucket counts, +inf bucket last with le=null.
  const auto& buckets = j.at("buckets").elems();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].at("count").as_int(), 50);
  EXPECT_EQ(buckets[2].at("count").as_int(), 99);
  EXPECT_TRUE(buckets[3].at("le").is_null());
  EXPECT_EQ(buckets[3].at("count").as_int(), 100);
}

TEST(Histogram, EmptyHistogramIsWellDefined) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(Metrics, SnapshotIsSchemaVersioned) {
  MetricsRegistry reg;
  reg.add_counter("a.b");
  reg.add_counter("a.b", 2);
  reg.set_gauge("g", 1.5);
  reg.set_gauge("g", 2.5);  // overwrite
  reg.histogram("h", {1.0, 2.0}).observe(0.5);
  EXPECT_EQ(reg.counter_value("a.b"), 3u);
  EXPECT_EQ(reg.counter_value("missing"), 0u);

  const Json snap = reg.snapshot();
  EXPECT_EQ(snap.at("schema").as_string(), "xgyro.metrics");
  EXPECT_EQ(snap.at("schema_version").as_int(), MetricsRegistry::kSchemaVersion);
  EXPECT_EQ(snap.at("counters").at("a.b").as_int(), 3);
  EXPECT_EQ(snap.at("gauges").at("g").as_double(), 2.5);
  EXPECT_EQ(snap.at("histograms").at("h").at("count").as_int(), 1);
}

TEST(Metrics, CollectRunMetricsCoversTraceTrafficAndInvariants) {
  const auto res = traced_xgyro_run();
  const net::Placement placement(net::testbox(1, 8));
  const auto reg = collect_run_metrics(res, placement);
  EXPECT_EQ(reg.counter_value("trace.collective_rows"), res.trace.size());
  EXPECT_EQ(reg.counter_value("trace.spans"), res.spans.size());
  EXPECT_GT(reg.counter_value("invariants.collectives_checked"), 0u);
  EXPECT_GT(reg.counter_value("bytes.intra_node") +
                reg.counter_value("bytes.inter_node"),
            0u);
  const Histogram* lat = reg.find_histogram("collective.latency_s");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), res.trace.size());
  // One payload sample per collective instance (canonical rows only).
  const Histogram* pay = reg.find_histogram("collective.payload_bytes");
  ASSERT_NE(pay, nullptr);
  std::set<std::pair<std::uint64_t, std::uint64_t>> instances;
  for (const auto& e : res.trace) instances.insert({e.comm_context, e.seq});
  EXPECT_EQ(pay->count(), instances.size());
}

// --- spans + per-member trace rows ----------------------------------------

TEST(Spans, DisabledTracingRecordsNothing) {
  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kModel;
  const auto res = xgyro::run_xgyro_job(make_sweep(2), net::testbox(1, 8), 4,
                                        opts);
  EXPECT_TRUE(res.spans.empty());
  EXPECT_TRUE(res.trace.empty());
}

TEST(Spans, RecordSolverRegionsWithMemberAttribution) {
  const auto res = traced_xgyro_run();
  ASSERT_FALSE(res.spans.empty());
  std::set<std::string> names;
  for (const auto& s : res.spans) {
    names.insert(s.name);
    EXPECT_GE(s.t_end, s.t_start);
    EXPECT_GE(s.world_rank, 0);
    EXPECT_GE(s.member, 0);  // every rank belongs to an ensemble member
    EXPECT_LT(s.member, 2);
  }
  for (const char* expected :
       {"xgyro.job", "initialize", "report_interval", "field.allreduce",
        "upwind.allreduce", "nl.gather_phi", "nl.fft_bracket", "coll.apply",
        "coll.transpose_to_str"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;
  }
  // Sorted by start time for deterministic export.
  for (size_t i = 1; i < res.spans.size(); ++i) {
    EXPECT_LE(res.spans[i - 1].t_start, res.spans[i].t_start);
  }
}

TEST(Skew, StragglerFaultWidensCollectiveSkew) {
  const auto clean = traced_xgyro_run();
  const auto faulty = traced_xgyro_run(2, 4, "seed=7;straggler=1x4.0");
  const double clean_skew = max_collective_skew_s(clean);
  const double faulty_skew = max_collective_skew_s(faulty);
  EXPECT_GT(faulty_skew, 0.0);
  EXPECT_GT(faulty_skew, clean_skew);

  // Every collective instance groups one row per participant.
  for (const auto& s : collective_skew(faulty)) {
    EXPECT_EQ(s.rows, s.participants);
    EXPECT_GE(s.start_skew_s, 0.0);
    EXPECT_GE(s.end_skew_s, 0.0);
  }
}

// --- Chrome trace ----------------------------------------------------------

TEST(ChromeTrace, FileRoundTripValidatesOneTrackPerRank) {
  const int k = 2, ranks_per_sim = 4, nranks = k * ranks_per_sim;
  const auto res = traced_xgyro_run(k, ranks_per_sim);
  const std::string path = ::testing::TempDir() + "xg_trace.json";
  write_chrome_trace(path, res);

  const Json doc = load_json_file(path);
  const TraceCheck check = check_chrome_trace(doc);
  ASSERT_EQ(static_cast<int>(check.ranks_with_tracks.size()), nranks);
  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(check.ranks_with_tracks[static_cast<size_t>(r)], r);
  }
  EXPECT_EQ(check.n_complete_events,
            static_cast<int>(res.spans.size() + res.trace.size()));

  // pid = member + 1, tid = world rank; ranks 0-3 are member 0.
  std::set<std::pair<int, int>> span_tracks;
  for (const auto& e : doc.at("traceEvents").elems()) {
    if (e.at("ph").as_string() != "X") continue;
    span_tracks.insert({static_cast<int>(e.at("pid").as_int()),
                        static_cast<int>(e.at("tid").as_int())});
  }
  EXPECT_TRUE(span_tracks.count({1, 0}));
  EXPECT_TRUE(span_tracks.count({2, ranks_per_sim}));
}

TEST(ChromeTrace, ValidatorRejectsBrokenDocuments) {
  EXPECT_THROW((void)check_chrome_trace(Json::object()), InputError);
  EXPECT_THROW((void)check_chrome_trace(
                   Json::object().set("schema", Json("other"))),
               InputError);
  // An X event on a track with no thread_name metadata row.
  Json doc = Json::object()
                 .set("schema", Json("xgyro.trace"))
                 .set("schema_version", Json(1))
                 .set("traceEvents", [] {
                   Json a = Json::array();
                   a.push(Json::object()
                              .set("ph", Json("X"))
                              .set("name", Json("x"))
                              .set("pid", Json(1))
                              .set("tid", Json(0))
                              .set("ts", Json(0.0))
                              .set("dur", Json(1.0)));
                   return a;
                 }());
  EXPECT_THROW((void)check_chrome_trace(doc), InputError);
}

TEST(ChromeTrace, ValidatorRejectsMismatchedParticipantCounts) {
  // Every member row of one collective instance carries the communicator
  // size; rows of the same (ctx, seq) disagreeing on it is a merge/export
  // corruption the validator must reject (xgyro_report --validate-trace).
  const auto res = traced_xgyro_run();
  const std::string path = ::testing::TempDir() + "xg_trace_mismatch.json";
  write_chrome_trace(path, res);
  const Json doc = load_json_file(path);
  EXPECT_GT(check_chrome_trace(doc).n_collective_instances, 0);

  // Bump "participants" on the first collective row only: its instance
  // group now disagrees across members.
  Json events = Json::array();
  bool tampered = false;
  for (const auto& e : doc.at("traceEvents").elems()) {
    const Json* args = e.find("args");
    if (!tampered && args != nullptr && args->find("participants") != nullptr) {
      Json new_args = Json::object();
      for (const auto& [key, value] : args->items()) {
        new_args.set(key, key == "participants" ? Json(value.as_int() + 1)
                                                : value);
      }
      Json row = Json::object();
      for (const auto& [key, value] : e.items()) {
        row.set(key, key == "args" ? std::move(new_args) : value);
      }
      events.push(std::move(row));
      tampered = true;
    } else {
      events.push(e);
    }
  }
  ASSERT_TRUE(tampered);
  Json bad = Json::object();
  for (const auto& [key, value] : doc.items()) {
    bad.set(key, key == "traceEvents" ? std::move(events) : value);
  }
  EXPECT_THROW((void)check_chrome_trace(bad), InputError);
}

TEST(ChromeTrace, WriteToUnwritablePathThrows) {
  const auto res = traced_xgyro_run();
  EXPECT_THROW(write_chrome_trace("/nonexistent-dir-xg/t.json", res), Error);
}

// --- run reports -----------------------------------------------------------

TEST(Report, JsonRoundTripIsBitExact) {
  const auto res = traced_xgyro_run();
  const net::Placement placement(net::testbox(1, 8));
  const RunReport rep = build_run_report(res, placement,
                                         xgyro::solver_phases(), "xgyro", 2);
  const std::string path = ::testing::TempDir() + "xg_report.json";
  write_run_report(path, rep);
  const RunReport back = load_run_report(path);

  EXPECT_EQ(back.label, "xgyro");
  EXPECT_EQ(back.makespan_s, rep.makespan_s);  // bit-exact doubles
  EXPECT_EQ(back.nranks, rep.nranks);
  EXPECT_EQ(back.n_members, 2);
  ASSERT_EQ(back.phases.size(), rep.phases.size());
  for (size_t i = 0; i < rep.phases.size(); ++i) {
    EXPECT_EQ(back.phases[i].phase, rep.phases[i].phase);
    EXPECT_EQ(back.phases[i].comm_s, rep.phases[i].comm_s);
    EXPECT_EQ(back.phases[i].compute_s, rep.phases[i].compute_s);
    EXPECT_EQ(back.phases[i].total_s, rep.phases[i].total_s);
  }
  EXPECT_TRUE(back.have_traffic);
  EXPECT_EQ(back.intra_bytes, rep.intra_bytes);
  EXPECT_EQ(back.inter_bytes, rep.inter_bytes);
  EXPECT_EQ(back.collectives_checked, rep.collectives_checked);
  EXPECT_EQ(back.trace_rows, rep.trace_rows);
  EXPECT_EQ(back.collectives_traced, rep.collectives_traced);
  EXPECT_EQ(back.spans, rep.spans);
  EXPECT_EQ(back.max_collective_skew_s, rep.max_collective_skew_s);
  EXPECT_EQ(back.metrics.at("schema").as_string(), "xgyro.metrics");
}

TEST(Report, RejectsWrongSchema) {
  EXPECT_THROW((void)report_from_json(Json::object()), InputError);
  EXPECT_THROW((void)report_from_json(
                   Json::object().set("schema", Json("xgyro.report"))
                       .set("schema_version", Json(99))),
               InputError);
}

TEST(Report, SpeedupTableMatchesLegacyTimingLogPathBitForBit) {
  // The same run reduced through both artifact formats must print the
  // identical Fig. 2 table: timing logs round-trip doubles via %.17e, the
  // report via shortest-form JSON doubles — both exact.
  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kModel;
  opts.enable_trace = true;
  const auto machine = net::testbox(1, 8);
  const net::Placement placement(machine);
  const auto cg_res = xgyro::run_cgyro_job(Input::small_test(2), machine, 8,
                                           opts);
  const auto xg_res = traced_xgyro_run();

  const auto cg_rows = gyro::timing_rows(cg_res, xgyro::solver_phases());
  const auto xg_rows = gyro::timing_rows(xg_res, xgyro::solver_phases());
  const std::string cg_log = ::testing::TempDir() + "xg_cg.timing";
  const std::string xg_log = ::testing::TempDir() + "xg_xg.timing";
  gyro::write_timing_log(cg_log, cg_rows, cg_res.makespan_s);
  gyro::write_timing_log(xg_log, xg_rows, xg_res.makespan_s);

  double cg_mk = 0, xg_mk = 0;
  const auto cg_parsed = gyro::load_timing_log(cg_log, &cg_mk);
  const auto xg_parsed = gyro::load_timing_log(xg_log, &xg_mk);
  const std::string from_logs =
      format_speedup_table(cg_parsed, cg_mk, xg_parsed, xg_mk, 8);

  const std::string cg_rep = ::testing::TempDir() + "xg_cg.report.json";
  const std::string xg_rep = ::testing::TempDir() + "xg_xg.report.json";
  write_run_report(cg_rep, build_run_report(cg_res, placement,
                                            xgyro::solver_phases(), "cgyro",
                                            1, /*with_metrics=*/false));
  write_run_report(xg_rep, build_run_report(xg_res, placement,
                                            xgyro::solver_phases(), "xgyro",
                                            2, /*with_metrics=*/false));
  const RunReport a = load_run_report(cg_rep);
  const RunReport b = load_run_report(xg_rep);
  const std::string from_reports =
      format_speedup_table(a.phases, a.makespan_s, b.phases, b.makespan_s, 8);

  EXPECT_EQ(from_logs, from_reports);
  EXPECT_NE(from_logs.find("Fig. 2-style reduction"), std::string::npos);
}

TEST(Report, DiffReportsComputesPhaseAndMakespanDeltas) {
  RunReport a, b;
  a.label = "before";
  b.label = "after";
  a.makespan_s = 2.0;
  b.makespan_s = 1.0;
  a.phases = {{"str_comm", 0.5, 0.0, 0.5}, {"coll", 0.1, 0.4, 0.5}};
  b.phases = {{"str_comm", 0.25, 0.0, 0.25}, {"nl", 0.0, 0.1, 0.1}};
  const ReportDiff d = diff_reports(a, b);
  ASSERT_EQ(d.phases.size(), 3u);  // union of phases
  EXPECT_EQ(d.phases[0].phase, "str_comm");
  EXPECT_DOUBLE_EQ(d.phases[0].delta_s, -0.25);
  EXPECT_DOUBLE_EQ(d.phases[0].delta_frac, -0.5);
  EXPECT_EQ(d.phases[1].phase, "coll");
  EXPECT_DOUBLE_EQ(d.phases[1].b_total_s, 0.0);
  EXPECT_EQ(d.phases[2].phase, "nl");
  EXPECT_DOUBLE_EQ(d.makespan_delta_frac, -0.5);

  const std::string text = format_regressions(a, b);
  EXPECT_NE(text.find("before -> after"), std::string::npos);
  EXPECT_NE(text.find("str_comm"), std::string::npos);
}

}  // namespace
}  // namespace xg::telemetry
