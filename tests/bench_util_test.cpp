// The bench-side selection logic the ablation/figure harnesses rely on:
// list and number parsing, the --runs/--fast precedence of
// sweep_options_from, metric selection in print_series' CSV output, the
// bound lookup and verdict of bench_large_n's peak-RSS gate — plus an
// end-to-end run of the real bench_ablations binary (path injected via
// MINIM_BENCH_ABLATIONS) asserting every ablation section and variant row is
// selected and printed.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"

namespace {

namespace fs = std::filesystem;

using minim::bench::double_list_from;
using minim::bench::kMaxRecolorThreads;
using minim::bench::Metric;
using minim::bench::NumberRange;
using minim::bench::parse_number;
using minim::bench::parse_recolor_threads;
using minim::bench::rss_bound_for;
using minim::bench::rss_gate_passes;
using minim::bench::RssBound;
using minim::bench::RssRow;
using minim::bench::split_list;
using minim::bench::string_list_from;
using minim::bench::sweep_options_from;
using minim::util::Options;

Options options_from(std::vector<std::string> args) {
  std::vector<const char*> argv{"test"};
  for (const auto& a : args) argv.push_back(a.c_str());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchUtil, SplitListDropsEmptyFields) {
  EXPECT_EQ(split_list("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_list(",a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_list("").empty());
  EXPECT_EQ(split_list("solo"), (std::vector<std::string>{"solo"}));
}

TEST(BenchUtil, ListOptionsFallBackWhenAbsent) {
  const Options options = options_from({"--strategies=minim,bbb"});
  EXPECT_EQ(string_list_from(options, "strategies", {"cp"}),
            (std::vector<std::string>{"minim", "bbb"}));
  EXPECT_EQ(string_list_from(options, "missing", {"cp"}),
            (std::vector<std::string>{"cp"}));
  EXPECT_EQ(double_list_from(options, "missing", {1.5}), (std::vector<double>{1.5}));
  const Options with_ns = options_from({"--ns=40,60"});
  EXPECT_EQ(double_list_from(with_ns, "ns", {}), (std::vector<double>{40, 60}));
}

TEST(BenchUtil, NumbersAcceptWholeFiniteValuesInRange) {
  const NumberRange count{1, 512, true};
  EXPECT_EQ(parse_number("1", count), 1.0);
  EXPECT_EQ(parse_number("64", count), 64.0);
  EXPECT_EQ(parse_number("512", count), 512.0);
  EXPECT_EQ(parse_number("1e2", count), 100.0);
  EXPECT_EQ(parse_number("2.5", NumberRange{}), 2.5);
  EXPECT_EQ(parse_number("-3", NumberRange{}), -3.0);
  EXPECT_EQ(parse_number("0.25", NumberRange{0, 1}), 0.25);
}

TEST(BenchUtil, NumbersRejectGarbageNegativeNonFiniteAndOutOfRange) {
  const NumberRange count{1, 512, true};
  for (const char* bad : {"abc", "1e2x", "", " 4", "4 ", "-1", "0", "513",
                          "2.5", "inf", "nan", "1e999", "64,"})
    EXPECT_FALSE(parse_number(bad, count).has_value()) << "'" << bad << "'";
  for (const char* bad : {"abc", "inf", "-inf", "nan", "1e999", "0.5x"})
    EXPECT_FALSE(parse_number(bad, NumberRange{}).has_value())
        << "'" << bad << "'";
  EXPECT_FALSE(parse_number("1.5", NumberRange{0, 1}).has_value());
  EXPECT_FALSE(parse_number("-0.1", NumberRange{0, 1}).has_value());
}

TEST(BenchUtil, BadListFieldExitsTwoNamingTheFlag) {
  const Options options = options_from({"--batch-sizes=1,abc"});
  EXPECT_EXIT(double_list_from(options, "batch-sizes", {}, {1, 512, true}),
              testing::ExitedWithCode(2),
              "--batch-sizes: 'abc' is not a whole number in \\[1, 512\\]");
}

TEST(BenchRss, StageUnderItsBoundPasses) {
  const RssBound bounds[] = {{"stage.a", 30.0}, {"stage.b", 50.0}};
  EXPECT_EQ(rss_bound_for(bounds, "stage.b"), 50.0);
  const RssRow rows[] = {{"stage.a", 29.9, rss_bound_for(bounds, "stage.a")},
                         {"stage.b", 50.0, rss_bound_for(bounds, "stage.b")}};
  EXPECT_FALSE(rows[0].over());
  EXPECT_FALSE(rows[1].over()) << "the bound itself is allowed";
  EXPECT_TRUE(rss_gate_passes(rows));
}

TEST(BenchRss, StageOverItsBoundFails) {
  const RssBound bounds[] = {{"stage.a", 30.0}, {"stage.b", 50.0}};
  const RssRow rows[] = {{"stage.a", 20.0, rss_bound_for(bounds, "stage.a")},
                         {"stage.b", 50.1, rss_bound_for(bounds, "stage.b")}};
  EXPECT_TRUE(rows[1].over());
  EXPECT_FALSE(rss_gate_passes(rows));
}

TEST(BenchRss, UnknownStageIsReportedNotPassed) {
  const RssBound bounds[] = {{"stage.a", 30.0}};
  EXPECT_FALSE(rss_bound_for(bounds, "stage.a.churn").has_value());
  EXPECT_FALSE(rss_bound_for(bounds, "stage").has_value());
  const RssRow unknown{"stage.c", 1000.0, rss_bound_for(bounds, "stage.c")};
  EXPECT_FALSE(unknown.bound_mb.has_value());
  EXPECT_FALSE(unknown.over()) << "an unbounded stage is not judged over";
  // Next to a bounded stage the verdict is that stage's.
  const RssRow mixed[] = {unknown,
                          {"stage.a", 10.0, rss_bound_for(bounds, "stage.a")}};
  EXPECT_TRUE(rss_gate_passes(mixed));
  const RssRow mixed_over[] = {
      unknown, {"stage.a", 31.0, rss_bound_for(bounds, "stage.a")}};
  EXPECT_FALSE(rss_gate_passes(mixed_over));
}

TEST(BenchRss, RunWithNoBoundedStageFails) {
  const RssBound bounds[] = {{"stage.a", 30.0}};
  const RssRow rows[] = {{"stage.x", 1.0, rss_bound_for(bounds, "stage.x")},
                         {"stage.y", 1.0, rss_bound_for(bounds, "stage.y")}};
  EXPECT_FALSE(rss_gate_passes(rows));
  EXPECT_FALSE(rss_gate_passes(std::span<const RssRow>{})) << "no stages at all";
}

TEST(BenchUtil, RecolorThreadsAcceptsAutoAndTheBoundedRange) {
  EXPECT_EQ(parse_recolor_threads("0"), 0u);  // one thread per core
  EXPECT_EQ(parse_recolor_threads("1"), 1u);
  EXPECT_EQ(parse_recolor_threads("4"), 4u);
  EXPECT_EQ(parse_recolor_threads(std::to_string(kMaxRecolorThreads)),
            kMaxRecolorThreads);
}

TEST(BenchUtil, RecolorThreadsRejectsNegativeHugeAndMalformedValues) {
  for (const char* bad : {"-3", "-0", "257", "4096", "99999999999999999999", "",
                          "2.5", "1e3", "two", "4 ", "+4", "true"})
    EXPECT_FALSE(parse_recolor_threads(bad).has_value()) << "'" << bad << "'";
}

TEST(BenchUtil, SweepOptionsRunsDefaultsAndFastPrecedence) {
  EXPECT_EQ(sweep_options_from(options_from({}), {"minim"}).runs, 100u);
  EXPECT_EQ(sweep_options_from(options_from({"--runs=7"}), {"minim"}).runs, 7u);
  // --fast is the CI smoke switch: it wins even over an explicit --runs.
  EXPECT_EQ(sweep_options_from(options_from({"--fast"}), {"minim"}).runs, 10u);
  EXPECT_EQ(sweep_options_from(options_from({"--runs=7", "--fast"}), {"minim"}).runs,
            10u);
  const auto sweep = sweep_options_from(options_from({"--seed=5", "--threads=2"}),
                                        {"minim", "cp"});
  EXPECT_EQ(sweep.seed, 5u);
  EXPECT_EQ(sweep.threads, 2u);
  EXPECT_EQ(sweep.strategies, (std::vector<std::string>{"minim", "cp"}));
}

TEST(BenchUtil, PrintSeriesSelectsTheRequestedMetric) {
  // Two distinguishable metrics; the CSV written for kRecodings must carry
  // the recoding stat, not the color stat.
  minim::sim::SweepPoint point;
  point.x = 80.0;
  point.strategy = "minim";
  point.color_metric.add(3.0);
  point.recoding_metric.add(42.0);

  const fs::path dir = fs::temp_directory_path() / "minim_bench_util_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const Options options = options_from({"--csv-dir=" + dir.string()});

  testing::internal::CaptureStdout();
  print_series("title", "N", {point}, Metric::kRecodings, options, "series");
  const std::string stdout_text = testing::internal::GetCapturedStdout();
  EXPECT_NE(stdout_text.find("42.00"), std::string::npos);

  std::ifstream csv(dir / "series.csv");
  std::stringstream contents;
  contents << csv.rdbuf();
  EXPECT_NE(contents.str().find("42.000000"), std::string::npos);
  EXPECT_EQ(contents.str().find("3.000000"), std::string::npos);
  fs::remove_all(dir);
}

TEST(BenchAblations, EveryAblationSectionIsSelectedAndPrinted) {
  const fs::path out = fs::temp_directory_path() / "minim_ablations_out.txt";
  const std::string command = std::string(MINIM_BENCH_ABLATIONS) +
                              " --runs=1 --threads=1 > " + out.string() +
                              " 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  std::ifstream in(out);
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string text = contents.str();
  for (const char* needle :
       {"A. Matching engine", "hungarian (paper)", "greedy 1/2-approx",
        "max-cardinality", "B. Old-color edge weight", "weight 3 (paper)",
        "C. CP variants", "D. BBB coloring order",
        "E. Minim move semantics", "mover keeps preference",
        "mover rejoins uncolored"})
    EXPECT_NE(text.find(needle), std::string::npos) << "missing: " << needle;
  fs::remove(out);
}

}  // namespace
