/**
 * @file
 * Whole-Measurement golden pins: a golden point stores the parsed
 * measurementToJson() document, so every field the sweep cache keeps
 * (counters, dcache rates, per-thread numbers, taxonomy leaves, and a
 * sampled point's summary and per-sample records) is pinned exactly.
 */

#ifndef VCA_TESTS_GOLDEN_JSON_HH
#define VCA_TESTS_GOLDEN_JSON_HH

#include <gtest/gtest.h>

#include <string>

#include "analysis/runner.hh"
#include "trace/json.hh"

namespace vca::test {

/** Write a parsed JSON value back out (golden refresh). */
inline void
writeJsonValue(trace::JsonWriter &w, const trace::JsonValue &v)
{
    using Kind = trace::JsonValue::Kind;
    switch (v.kind()) {
      case Kind::Null:
        w.null();
        break;
      case Kind::Bool:
        w.boolean(v.asBool());
        break;
      case Kind::Number:
        w.number(v.asNumber());
        break;
      case Kind::String:
        w.string(v.asString());
        break;
      case Kind::Array:
        w.beginArray();
        for (size_t i = 0; i < v.size(); ++i)
            writeJsonValue(w, v.at(i));
        w.endArray();
        break;
      case Kind::Object:
        w.beginObject();
        for (const auto &[key, member] : v.members()) {
            w.key(key);
            writeJsonValue(w, member);
        }
        w.endObject();
        break;
    }
}

/** Pin one measurement under the golden point's "measurement" key. */
inline void
writeMeasurementPin(trace::JsonWriter &w, const analysis::Measurement &m)
{
    w.key("measurement");
    writeJsonValue(w,
                   trace::JsonValue::parse(analysis::measurementToJson(m)));
}

/**
 * Require @p actual to equal @p golden member by member; a mismatch
 * names its dotted path (e.g. "sampling.records.3.cycles"). Numbers
 * compare exactly: the JSON form round-trips doubles.
 */
inline void
expectSameJson(const trace::JsonValue &golden,
               const trace::JsonValue &actual, const std::string &path)
{
    using Kind = trace::JsonValue::Kind;
    ASSERT_EQ(int(golden.kind()), int(actual.kind())) << path;
    switch (golden.kind()) {
      case Kind::Null:
        break;
      case Kind::Bool:
        EXPECT_EQ(golden.asBool(), actual.asBool()) << path;
        break;
      case Kind::Number:
        EXPECT_EQ(golden.asNumber(), actual.asNumber()) << path;
        break;
      case Kind::String:
        EXPECT_EQ(golden.asString(), actual.asString()) << path;
        break;
      case Kind::Array:
        ASSERT_EQ(golden.size(), actual.size()) << path;
        for (size_t i = 0; i < golden.size(); ++i)
            expectSameJson(golden.at(i), actual.at(i),
                           path + "." + std::to_string(i));
        break;
      case Kind::Object: {
        const auto &g = golden.members();
        const auto &a = actual.members();
        ASSERT_EQ(g.size(), a.size()) << path;
        for (size_t i = 0; i < g.size(); ++i) {
            ASSERT_EQ(g[i].first, a[i].first) << path;
            expectSameJson(g[i].second, a[i].second,
                           path + "." + g[i].first);
        }
        break;
      }
    }
}

/** Check one measurement against its golden point's pin. */
inline void
expectMeasurementPin(const trace::JsonValue &goldenPoint,
                     const analysis::Measurement &m,
                     const std::string &label)
{
    const trace::JsonValue *pin = goldenPoint.find("measurement");
    ASSERT_TRUE(pin && pin->isObject())
        << label << ": no measurement pin - refresh with "
                    "VCA_UPDATE_GOLDEN=1";
    expectSameJson(*pin,
                   trace::JsonValue::parse(analysis::measurementToJson(m)),
                   label + ": measurement");
}

} // namespace vca::test

#endif // VCA_TESTS_GOLDEN_JSON_HH
