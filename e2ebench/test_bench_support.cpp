// Tests of the benchmark's own logic: the strict parser, the tail rule,
// span self time and coverage, the trace export and seed-derived inputs.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "bench_support.hpp"

using namespace e2ebench;

namespace {

Options parse(std::vector<std::string> args) { return parse_args(args); }

void expect_rejected(std::vector<std::string> args) {
  EXPECT_THROW((void)parse_args(args), UsageError) << ::testing::PrintToString(args);
}

}  // namespace

TEST(Parser, AcceptsSpaceAndEqualsForms) {
  const Options a = parse({"--workload", "clean_campaign", "--seed", "7", "--seconds", "12",
                           "--trace", "1"});
  EXPECT_EQ(a.workload, "clean_campaign");
  EXPECT_EQ(a.seed, 7u);
  EXPECT_EQ(a.seconds, 12u);
  EXPECT_TRUE(a.trace);
  const Options b = parse({"--workload=files_recovery", "--seed=18446744073709551615",
                           "--trace=0", "--work-dir=/tmp/x"});
  EXPECT_EQ(b.workload, "files_recovery");
  EXPECT_EQ(b.seed, 18446744073709551615ULL);
  EXPECT_FALSE(b.trace);
  EXPECT_EQ(b.work_dir, "/tmp/x");
}

TEST(Parser, RejectsBadInput) {
  expect_rejected({});                                                  // no workload
  expect_rejected({"--workload", "nope"});                              // unknown workload
  expect_rejected({"--workload", "clean_campaign", "--bogus", "1"});    // unknown flag
  expect_rejected({"--workload", "clean_campaign", "--seed", "-5"});    // negative
  expect_rejected({"--workload", "clean_campaign", "--seed", "+5"});    // signed
  expect_rejected({"--workload", "clean_campaign", "--seed", "12abc"}); // garbage
  expect_rejected({"--workload", "clean_campaign", "--seed", "1.5"});   // fractional
  expect_rejected({"--workload", "clean_campaign", "--seed", " 5"});    // whitespace
  expect_rejected({"--workload", "clean_campaign", "--seed", ""});      // empty
  expect_rejected({"--workload", "clean_campaign", "--seed=18446744073709551616"});
  expect_rejected({"--workload", "clean_campaign", "--seed"});          // missing value
  // A space-separated value that is really the next flag.
  expect_rejected({"--workload", "clean_campaign", "--seed", "--seconds", "5"});
  expect_rejected({"--workload", "clean_campaign", "--seconds", "0"});
  expect_rejected({"--workload", "clean_campaign", "--seconds", "3601"});
  expect_rejected({"--workload", "clean_campaign", "--trace", "2"});
  expect_rejected({"--workload", "clean_campaign", "--trace", "yes"});
  expect_rejected({"--workload", "clean_campaign", "--seed", "1", "--seed", "2"});
  expect_rejected({"--workload", "clean_campaign", "stray"});
  expect_rejected({"--workload", "clean_campaign", "--trace-file", "--seed"});
}

TEST(TailRule, PicksHighestPercentileWithTenBeyond) {
  EXPECT_DOUBLE_EQ(tail_percentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(tail_percentile(9999), 99.0);
  EXPECT_DOUBLE_EQ(tail_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(tail_percentile(999), 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile(200), 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile(199), 90.0);
  EXPECT_DOUBLE_EQ(tail_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(tail_percentile(20), 50.0);
  for (std::size_t n : {20u, 100u, 512u, 1024u, 4096u, 20000u})
    EXPECT_GE(samples_beyond(n, tail_percentile(n)), 10u) << n;
}

TEST(TailRule, RejectsRunsTooShort) {
  EXPECT_THROW((void)tail_percentile(19), std::runtime_error);
  EXPECT_THROW((void)tail_percentile(0), std::runtime_error);
  // Just below each rung the next lower percentile is chosen.
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(samples_beyond(99, 90.0), 9u);
  EXPECT_EQ(samples_beyond(39, 75.0), 9u);
  EXPECT_DOUBLE_EQ(tail_percentile(39), 50.0);
  EXPECT_DOUBLE_EQ(tail_percentile(40), 75.0);
}

TEST(Percentile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({5}, 99.0), 5.0);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
}

TEST(Percentile, ItemMinimumsTakeEachItemsFastestPass) {
  // Slowed passes (30, 500) do not move their items.
  const std::vector<double> m = item_minimums({{1, 10, 5}, {3, 30, 5}, {2, 20, 500}});
  EXPECT_EQ(m, (std::vector<double>{1, 10, 5}));
  EXPECT_EQ(item_minimums({{4, 2}}), (std::vector<double>{4, 2}));
  EXPECT_EQ(item_minimums({{4, 8}, {6, 2}}), (std::vector<double>{4, 2}));
  EXPECT_THROW((void)item_minimums({}), std::invalid_argument);
  EXPECT_THROW((void)item_minimums({{1, 2}, {1}}), std::invalid_argument);
}

namespace {

/// root [0,100]: core.a [10,60] > riscv.x [20,40] (estimated);
///               bench.block [60,90] > sca.b [65,85].
/// other root [200,300]: core.c [210,290].
SpanLog nested_log() {
  SpanLog log;
  const std::size_t root = log.open("bench.pass", 0, 0);
  const std::size_t a = log.open("core.a", 1, 10);
  log.close(a, 60);
  SpanRecord x;
  x.name = "riscv.x";
  x.parent = static_cast<std::int64_t>(a);
  x.begin_ns = 20;
  x.end_ns = 40;
  x.estimated = true;
  log.add(x);
  const std::size_t block = log.open("bench.block", 1, 60);
  const std::size_t b = log.open("sca.b", 1, 65);
  log.close(b, 85);
  log.close(block, 90);
  log.close(root, 100);
  const std::size_t other = log.open("bench.pass", 1, 200);
  const std::size_t c = log.open("core.c", 2, 210);
  log.close(c, 290);
  log.close(other, 300);
  return log;
}

}  // namespace

TEST(Spans, SelfTimeIsSpanMinusChildren) {
  const SpanLog log = nested_log();
  const auto self = self_times_ns(log.spans());
  ASSERT_EQ(self.size(), 7u);
  EXPECT_EQ(self[0], 100u - 50u - 30u);  // bench.pass minus core.a and bench.block
  EXPECT_EQ(self[1], 50u - 20u);         // core.a minus riscv.x
  EXPECT_EQ(self[2], 20u);               // riscv.x
  EXPECT_EQ(self[3], 30u - 20u);         // bench.block minus sca.b
  EXPECT_EQ(self[4], 20u);
  EXPECT_EQ(log.spans()[2].parent, 1);
  EXPECT_EQ(log.spans()[4].parent, 3);
}

TEST(Spans, CoverageCountsLayerSelfTimeUnderChosenRoots) {
  const SpanLog log = nested_log();
  // Layer self times under root 0: core.a 30 + riscv.x 20 + sca.b 20.
  EXPECT_DOUBLE_EQ(coverage_ratio(log.spans(), {0}, 100), 0.7);
  // Both roots: + core.c 80, over 200 ns of wall.
  EXPECT_DOUBLE_EQ(coverage_ratio(log.spans(), {0, 5}, 200), 150.0 / 200.0);
  EXPECT_THROW((void)coverage_ratio(log.spans(), {0}, 0), std::invalid_argument);
}

TEST(Spans, LayerTotalsSumInclusiveTimeUnderChosenRoots) {
  const SpanLog log = nested_log();
  const auto totals = layer_totals_ns(log.spans(), {0});
  EXPECT_EQ(totals.size(), 3u);  // bench.* spans are not layers; core.c is under root 5
  EXPECT_EQ(totals.at("core.a"), 50u);
  EXPECT_EQ(totals.at("riscv.x"), 20u);
  EXPECT_EQ(totals.at("sca.b"), 20u);
  EXPECT_EQ(layer_totals_ns(log.spans(), {5}).at("core.c"), 80u);
}

TEST(Spans, MustCloseInnermostFirst) {
  SpanLog log;
  const std::size_t outer = log.open("bench.pass", 0, 0);
  (void)log.open("core.a", 0, 1);
  EXPECT_THROW(log.close(outer, 2), std::logic_error);
}

TEST(Spans, ChromeTraceCarriesParentsAndItems) {
  const SpanLog log = nested_log();
  std::ostringstream out;
  write_chrome_trace(out, log.spans());
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"riscv.x\",\"cat\":\"riscv\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":2,\"parent\":1,\"item\":0,\"estimated\":true"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":0.065,\"dur\":0.020"), std::string::npos);  // sca.b, in us
  EXPECT_EQ(json.back(), '\n');
}

TEST(Spans, JsonStringEscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_string("plain"), "\"plain\"");
  EXPECT_EQ(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_string(std::string("x\ny\x01", 4)), "\"x\\u000ay\\u0001\"");
}

TEST(Inputs, ArePureFunctionsOfTheSeed) {
  EXPECT_EQ(make_inputs(42, 128), make_inputs(42, 128));
  EXPECT_FALSE(make_inputs(42, 128) == make_inputs(43, 128));
  const WorkloadInputs in = make_inputs(42, 256);
  EXPECT_EQ(std::set<std::uint64_t>(in.attack_seeds.begin(), in.attack_seeds.end()).size(),
            256u);
  // A longer capture list extends the shorter one.
  const WorkloadInputs shorter = make_inputs(42, 16);
  EXPECT_TRUE(std::equal(shorter.attack_seeds.begin(), shorter.attack_seeds.end(),
                         in.attack_seeds.begin()));
  EXPECT_EQ(make_victim(42, 3, 64), make_victim(42, 3, 64));
  EXPECT_FALSE(make_victim(42, 3, 64) == make_victim(42, 4, 64));
  EXPECT_FALSE(make_victim(42, 3, 64) == make_victim(43, 3, 64));
  for (const std::uint64_t byte : make_victim(7, 0, 64).message) {
    EXPECT_GE(byte, 0x20u);
    EXPECT_LT(byte, 0x7Fu);
  }
}
