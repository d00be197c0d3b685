// MetricsRegistry unit suite + the Prometheus exposition FORMAT LOCK.
//
// PrometheusTextIsByteStable builds a local registry with one family of
// each type and compares the whole exposition against a literal golden —
// HELP/TYPE lines, family and series ordering, label rendering and
// escaping, cumulative histogram buckets, the +Inf/_sum/_count tail, and
// the "# EOF" terminator are all byte-locked (the histogram bucket bounds
// are spelled via LatencyStats::BucketUpperBound, whose own contract is
// locked by tests/latency_stats_test.cc). The `metrics` admin verb on both
// transports returns exactly this rendering of the global registry, so a
// drift here is a drift on the wire.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/latency_stats.h"

namespace gcon {
namespace obs {
namespace {

TEST(MetricsRegistryTest, PrometheusTextIsByteStable) {
  MetricsRegistry registry;
  registry.gauge("gcon_test_epsilon", "Cumulative privacy budget.")->Set(1.5);

  Histogram* latency = registry.histogram(
      "gcon_test_latency_us", "Batch latency.", {{"model", "default"}});
  latency->Observe(5.0);
  latency->Observe(5.0);
  latency->Observe(300.0);  // octave 8, sub-bucket 1 -> upper bound 319

  registry
      .counter("gcon_test_requests_total", "Requests served.",
               {{"model", "default"}})
      ->Increment(3);
  // A label value exercising the nastier escapes: a backslash and a double
  // quote (newline is covered by EscapesLabelValues).
  registry
      .counter("gcon_test_requests_total", "Requests served.",
               {{"model", "a\\b\"c"}})
      ->Increment();

  EXPECT_EQ(registry.PrometheusText(),
            "# HELP gcon_test_epsilon Cumulative privacy budget.\n"
            "# TYPE gcon_test_epsilon gauge\n"
            "gcon_test_epsilon 1.5\n"
            "# HELP gcon_test_latency_us Batch latency.\n"
            "# TYPE gcon_test_latency_us histogram\n"
            "gcon_test_latency_us_bucket{model=\"default\",le=\"5\"} 2\n"
            "gcon_test_latency_us_bucket{model=\"default\",le=\"319\"} 3\n"
            "gcon_test_latency_us_bucket{model=\"default\",le=\"+Inf\"} 3\n"
            "gcon_test_latency_us_sum{model=\"default\"} 310\n"
            "gcon_test_latency_us_count{model=\"default\"} 3\n"
            "# HELP gcon_test_requests_total Requests served.\n"
            "# TYPE gcon_test_requests_total counter\n"
            "gcon_test_requests_total{model=\"a\\\\b\\\"c\"} 1\n"
            "gcon_test_requests_total{model=\"default\"} 3\n"
            "# EOF\n");
}

TEST(MetricsRegistryTest, EmptyRegistryIsJustTheTerminator) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.PrometheusText(), "# EOF\n");
}

TEST(MetricsRegistryTest, EscapesLabelValues) {
  MetricsRegistry registry;
  registry.counter("gcon_test_total", "h", {{"k", "line\nbreak"}});
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("gcon_test_total{k=\"line\\nbreak\"} 0\n"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, ReRegistrationReturnsTheSameHandle) {
  MetricsRegistry registry;
  Counter* a =
      registry.counter("gcon_test_total", "first help wins", {{"m", "x"}});
  Counter* b = registry.counter("gcon_test_total", "ignored", {{"m", "x"}});
  EXPECT_EQ(a, b);
  Counter* other = registry.counter("gcon_test_total", "ignored",
                                    {{"m", "y"}});
  EXPECT_NE(a, other);
  a->Increment(2);
  EXPECT_EQ(b->value(), 2u);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# HELP gcon_test_total first help wins\n"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, TypeConflictThrows) {
  MetricsRegistry registry;
  registry.counter("gcon_test_total", "h");
  EXPECT_THROW(registry.gauge("gcon_test_total", "h"), std::logic_error);
  EXPECT_THROW(registry.histogram("gcon_test_total", "h"), std::logic_error);
}

TEST(MetricsRegistryTest, DisarmedHandlesDropUpdates) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("gcon_test_total", "h");
  Gauge* gauge = registry.gauge("gcon_test_gauge", "h");
  Histogram* histogram = registry.histogram("gcon_test_us", "h");
  counter->Increment();
  gauge->Set(4.0);
  ASSERT_TRUE(MetricsEnabled());
  SetMetricsEnabled(false);
  counter->Increment(100);
  gauge->Set(9.0);
  gauge->Add(1.0);
  histogram->Observe(7.0);
  SetMetricsEnabled(true);
  EXPECT_EQ(counter->value(), 1u);
  EXPECT_EQ(gauge->value(), 4.0);
  EXPECT_EQ(histogram->stats().TotalCount(), 0u);
}

TEST(MetricsRegistryTest, GaugeAddAccumulates) {
  MetricsRegistry registry;
  Gauge* gauge = registry.gauge("gcon_test_epsilon", "h");
  gauge->Set(1.0);
  gauge->Add(0.5);
  gauge->Add(0.25);
  EXPECT_DOUBLE_EQ(gauge->value(), 1.75);
}

TEST(MetricsRegistryTest, GlobalRegistryCarriesTheBuiltinInstruments) {
  // The process-wide registry is shared by every subsystem; poking one
  // well-known family proves Global() wiring without depending on which
  // other suites ran first.
  Counter* counter = MetricsRegistry::Global().counter(
      "gcon_test_global_total", "Self-test counter.");
  const std::uint64_t before = counter->value();
  counter->Increment();
  EXPECT_EQ(counter->value(), before + 1);
  EXPECT_NE(MetricsRegistry::Global().PrometheusText().find(
                "gcon_test_global_total"),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace gcon
