// pathmodel_cc: the ground-truth packet-level scenario suite for all four
// scenario classes under NewReno, Cubic and BBR, each suite scored against
// the oracle threshold baseline. sim/packet, infer/pathmodel and
// core/pathmodel_eval do all the work; gen, route, measure and serve do
// none. The suite's instances are fixed by their index within the class
// (run_pathmodel_suite takes no seed), so every seed runs the same cases.

#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "core/pathmodel_eval.h"
#include "workloads.h"

namespace perfbench {

namespace nc = netcong;
namespace sp = netcong::sim::packet;

namespace {

constexpr int kPerClass = 2;

struct Suite {
  sp::CcAlgo cc;
  const char* span;
};
constexpr Suite kSuites[] = {
    {sp::CcAlgo::kNewReno, "core.pathmodel_suite_reno"},
    {sp::CcAlgo::kCubic, "core.pathmodel_suite_cubic"},
    {sp::CcAlgo::kBbr, "core.pathmodel_suite_bbr"},
};

}  // namespace

void run_pathmodel_cc(const RunOptions& opt, RunResult& out) {
  Ledger ledger(opt.trace);
  // Set-up: there are no inputs to build, so set-up is the one-time cost
  // of the first simulated flows (code and allocator warm-up), paid on one
  // NewReno case of each class.
  const double setup_s = timed_setup(ledger, [&] {
    ledger.time("core.pathmodel_warmup", [] {
      return nc::core::run_pathmodel_suite(
          sp::CcAlgo::kNewReno, nc::core::PathModelScenario::kAll, 1);
    });
  });

  std::vector<std::vector<nc::core::PathModelCase>> last(3);
  std::vector<nc::core::PathModelScore> scores(3);
  run_rounds(opt, ledger, [&] {
    ledger.time("core.pathmodel_suites", [&] {
      for (std::size_t k = 0; k < 3; ++k) {
        last[k] = ledger.time(kSuites[k].span, [&] {
          return nc::core::run_pathmodel_suite(
              kSuites[k].cc, nc::core::PathModelScenario::kAll, kPerClass);
        });
      }
    });
    ledger.time("core.pathmodel_score", [&] {
      for (std::size_t k = 0; k < 3; ++k) {
        scores[k] = nc::core::score_pathmodel(last[k]);
      }
    });
    for (const auto& cases : last) {
      out.attempted += cases.size();
      for (const auto& c : cases) out.failed += c.result.valid ? 0 : 1;
    }
  });

  int checks = ledger.open("bench.checks");
  for (std::size_t k = 0; k < 3; ++k) {
    const std::string cc = sp::cc_algo_name(kSuites[k].cc);
    out.check(cc + " case count", check_case_count(last[k], kPerClass));
    out.check(cc + " truth labels", check_truth_labels(last[k]));
    out.check(cc + " beats baseline", check_beats_baseline(scores[k]));
    std::printf("%-6s %zu cases: congested F1 %.3f vs threshold baseline "
                "%.3f, label accuracy %.3f, localization %d/%d\n",
                cc.c_str(), last[k].size(), scores[k].congested.f1,
                scores[k].baseline_best_f1, scores[k].label_accuracy,
                scores[k].localization_correct,
                scores[k].localization_total);
  }
  // The same checks, each fed one deliberately wrong input.
  {
    std::vector<nc::core::PathModelCase> bad = last[0];
    bad.pop_back();
    mutation_must_fail(out, "case count", check_case_count(bad, kPerClass));
    bad = last[0];
    bad.front().result.valid = false;
    mutation_must_fail(out, "case labelled", check_case_count(bad, kPerClass));
    bad = last[0];
    auto& flip = bad.front().truth_label;
    flip = flip == nc::infer::FlowLabel::kCongestionLimited
               ? nc::infer::FlowLabel::kBandwidthLimited
               : nc::infer::FlowLabel::kCongestionLimited;
    mutation_must_fail(out, "truth labels", check_truth_labels(bad));
    nc::core::PathModelScore tie = scores[0];
    tie.congested.f1 = tie.baseline_best_f1;
    mutation_must_fail(out, "beats baseline", check_beats_baseline(tie));
  }
  ledger.close(checks);

  const double cases_per_s =
      4.0 * kPerClass * 3 / stage(ledger, "core.pathmodel_suites");
  if (!opt.trace) {
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric("items_per_s", cases_per_s, "1/s");
    out.metric("round_s", median(ledger.samples("round")), "s");
    return;
  }
  for (const Suite& s : kSuites) {
    out.metric(std::string(s.span) + "_s", stage(ledger, s.span), "s");
  }
  out.metric("core.pathmodel_score_s", stage(ledger, "core.pathmodel_score"),
             "s");
  out.metric("pathmodel_cases_per_s", cases_per_s, "cases/s");
  report_trace(opt, ledger, out);
}

}  // namespace perfbench
