// batch_week: the paper's own pipeline at paper scale. A GeneratorConfig::
// full() world (about 5.7k ASes) runs a 7-day crowdsourced NDT campaign
// with Paris traceroutes (130k tests); the campaign output is then
// matched test-to-trace and run through MAP-IT, border inference, anomaly
// detection and the per-interconnect report. gen, route, measure, infer
// and core do the work; serve does none.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>

#include "checks.h"
#include "core/report.h"
#include "gen/workload.h"
#include "infer/anomaly.h"
#include "infer/bdrmap.h"
#include "infer/fingerprint.h"
#include "infer/mapit.h"
#include "measure/corpus.h"
#include "measure/matching.h"
#include "measure/ndt.h"
#include "stack.h"
#include "workloads.h"

namespace perfbench {

namespace nc = netcong;

namespace {

constexpr int kDays = 7;
// The crowdsourced schedule's length depends on the seed (heavy-tailed
// per-client activity: 135k-145k requests over 7 days); a seeded uniform
// subsample of exactly this many keeps the work per run fixed.
constexpr std::size_t kTests = 130'000;

struct Inputs {
  std::unique_ptr<Stack> stack;
  std::vector<nc::gen::TestRequest> schedule;
  nc::measure::CampaignConfig campaign_cfg;
};

struct RoundOutput {
  nc::measure::ColumnarCampaignResult columnar;
  nc::measure::CampaignResult result;
  nc::measure::MatchStats match;
  nc::infer::MapItResult mapit;
  nc::infer::BdrmapResult borders;
  nc::infer::AnomalyReport anomalies;
  nc::core::InterconnectReport report;
};

// Keeps kTests requests chosen uniformly by a seeded partial shuffle, in
// their original (time) order.
std::vector<nc::gen::TestRequest> subsample(
    std::vector<nc::gen::TestRequest> all, std::uint64_t seed) {
  if (all.size() <= kTests) return all;
  std::vector<std::size_t> idx(all.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < kTests; ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, idx.size() - 1);
    std::swap(idx[i], idx[pick(rng)]);
  }
  idx.resize(kTests);
  std::sort(idx.begin(), idx.end());
  std::vector<nc::gen::TestRequest> kept;
  kept.reserve(kTests);
  for (std::size_t i : idx) kept.push_back(all[i]);
  return kept;
}

nc::measure::ColumnarCampaignResult run_campaign(const Inputs& in,
                                                 std::uint64_t seed) {
  nc::measure::NdtCampaign campaign(in.stack->world, *in.stack->fwd,
                                    *in.stack->model, *in.stack->mlab,
                                    in.campaign_cfg);
  campaign.set_path_cache(in.stack->cache.get());
  nc::util::Rng rng(seed * 2654435761u + 17);
  return campaign.run_columnar(in.schedule, rng);
}

nc::core::ReportOptions report_options() {
  nc::core::ReportOptions o;
  o.days = kDays;
  return o;
}

}  // namespace

void run_batch_week(const RunOptions& opt, RunResult& out) {
  Ledger ledger(opt.trace);
  Inputs in;

  // Set-up: world, routing, schedule, and one warm-up campaign. The first
  // campaign over a fresh world is about twice as slow as the next ones
  // (the path cache and the platform's server rankings fill), so it is
  // paid here and the timed rounds start warm.
  const double setup_s = timed_setup(ledger, [&] {
    in = Inputs{};
    in.campaign_cfg.threads = kCampaignThreads;
    nc::gen::GeneratorConfig cfg = nc::gen::GeneratorConfig::full();
    cfg.seed = kWorldSeed;
    in.stack = std::make_unique<Stack>(cfg, ledger);
    in.schedule = ledger.time("gen.schedule", [&] {
      nc::util::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 1);
      nc::gen::WorkloadConfig wl;
      wl.days = kDays;
      return subsample(nc::gen::crowdsourced_schedule(
                           in.stack->world, in.stack->world.clients, wl, rng),
                       opt.seed);
    });
    ledger.time("measure.warmup", [&] { run_campaign(in, opt.seed); });
  });
  const Stack& st = *in.stack;
  std::printf("batch_week seed %llu: %zu ASes, %zu tests scheduled, "
              "vantage AS %u\n",
              static_cast<unsigned long long>(opt.seed),
              st.world.topo->as_count(), in.schedule.size(), st.vp_as);

  std::optional<RoundOutput> last;
  nc::route::PathCache::Stats cache_round{};
  run_rounds(opt, ledger, [&] {
    last.reset();
    RoundOutput r;
    const nc::route::PathCache::Stats before = st.cache->stats();
    r.columnar = ledger.time("measure.campaign",
                             [&] { return run_campaign(in, opt.seed); });
    const nc::route::PathCache::Stats after = st.cache->stats();
    cache_round.hits = after.hits - before.hits;
    cache_round.misses = after.misses - before.misses;
    ledger.time("bench.analysis", [&] {
      r.result = ledger.time("measure.materialize",
                             [&] { return r.columnar.materialize(); });
      ledger.time("measure.match", [&] {
        return nc::measure::match_tests(r.result.tests, r.result.traceroutes,
                                        *st.world.topo,
                                        nc::measure::MatchOptions{}, &r.match);
      });
      r.mapit = ledger.time("infer.mapit", [&] {
        return nc::infer::run_mapit(r.result.traceroutes, *st.ip2as,
                                    *st.orgs);
      });
      r.borders = ledger.time("infer.bdrmap", [&] {
        return nc::infer::borders_from_mapit(r.mapit, st.vp_as, *st.orgs,
                                             st.world.topo->relationships(),
                                             *st.aliases);
      });
      r.anomalies = ledger.time("infer.anomaly", [&] {
        return nc::infer::detect_anomalies(r.result, *st.ip2as);
      });
      r.report = ledger.time("core.report", [&] {
        return nc::core::build_interconnect_report(
            r.result.tests, st.world, st.isp_of, report_options());
      });
    });
    const auto& q = r.columnar.quality;
    out.attempted += q.tests_attempted;
    out.failed += q.tests_failed;
    last.emplace(std::move(r));
  });

  // Checks, on the last round's output.
  int checks = ledger.open("bench.checks");
  const RoundOutput& r = *last;
  const auto& q = r.columnar.quality;
  out.check("tests attempted", check_tests_attempted(q, in.schedule.size()));
  out.check("data quality accounting", check_quality_accounting(q));
  out.check("MAP-IT halves", check_mapit_halves(r.result.traceroutes, r.mapit,
                                                *st.ip2as, *st.orgs));
  out.check("report tally", check_report_tally(r.result.tests, st.world,
                                               st.isp_of, report_options(),
                                               r.report));
  // The same checks, each fed one deliberately wrong input.
  mutation_must_fail(out, "tests attempted",
                     check_tests_attempted(q, in.schedule.size() + 1));
  {
    nc::sim::DataQuality bad = q;
    --bad.tests_completed;
    mutation_must_fail(out, "test accounting", check_quality_accounting(bad));
    bad = q;
    ++bad.traceroutes_completed;
    mutation_must_fail(out, "traceroute accounting",
                       check_quality_accounting(bad));
  }
  {
    nc::infer::MapItResult bad = r.mapit;
    auto it = bad.operating_as.begin();
    if (it != bad.operating_as.end()) it->second += 1;
    mutation_must_fail(out, "MAP-IT halves",
                       check_mapit_halves(r.result.traceroutes, bad,
                                          *st.ip2as, *st.orgs));
  }
  if (!r.report.cells.empty()) {
    nc::core::InterconnectReport bad = r.report;
    --bad.cells.front().tests;  // one test removed from the tally
    mutation_must_fail(out, "report tally",
                       check_report_tally(r.result.tests, st.world, st.isp_of,
                                          report_options(), bad));
  } else {
    out.check("report", "no report cells");
  }
  ledger.close(checks);

  std::printf("campaign: %zu tests (%zu completed), %zu traceroutes, "
              "%zu hops; matched %zu/%zu; %zu interfaces, %zu borders, "
              "%zu alarms, %zu report cells; map-it %016llx\n",
              q.tests_attempted, q.tests_completed,
              r.columnar.traceroutes.size(),
              r.columnar.traceroutes.total_hops(), r.match.matched,
              r.match.eligible, r.mapit.operating_as.size(),
              r.borders.borders.size(), r.anomalies.alarms.size(),
              r.report.cells.size(),
              static_cast<unsigned long long>(nc::infer::fingerprint(r.mapit)));

  const double tests = static_cast<double>(q.tests_attempted);
  const double campaign_s = stage(ledger, "measure.campaign");
  if (!opt.trace) {
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric("items_per_s", tests / campaign_s, "1/s");
    out.metric("round_s", median(ledger.samples("round")), "s");
    return;
  }
  out.metric("gen.generate_world_s", stage(ledger, "gen.generate_world"), "s");
  out.metric("gen.schedule_s", stage(ledger, "gen.schedule"), "s");
  out.metric("gen.ases", static_cast<double>(st.world.topo->as_count()),
             "count");
  out.metric("gen.interdomain_links",
             static_cast<double>(st.world.topo->interdomain_link_count()),
             "count");
  out.metric("gen.rss_delta_mb", ledger.rss_growth_mb("gen.generate_world"),
             "MiB");
  out.metric("route.setup_s", stage(ledger, "route.setup"), "s");
  out.metric("route.path_cache_hits", static_cast<double>(cache_round.hits),
             "count");
  out.metric("route.path_cache_misses",
             static_cast<double>(cache_round.misses), "count");
  out.metric("route.path_cache_hit_ratio", cache_round.hit_rate(), "ratio");
  out.metric("measure.campaign_s", campaign_s, "s");
  out.metric("measure.tests_attempted", tests, "count");
  out.metric("measure.tests_completed",
             static_cast<double>(q.tests_completed), "count");
  out.metric("measure.traceroutes_completed",
             static_cast<double>(q.traceroutes_completed), "count");
  out.metric("measure.trace_hops",
             static_cast<double>(r.columnar.traceroutes.total_hops()),
             "count");
  out.metric("measure.paths_interned",
             static_cast<double>(r.columnar.paths.size()), "count");
  out.metric("measure.rss_delta_mb",
             std::max(ledger.rss_growth_mb("measure.campaign"),
                      ledger.rss_growth_mb("measure.warmup")),
             "MiB");
  out.metric("measure.materialize_s", stage(ledger, "measure.materialize"),
             "s");
  out.metric("measure.match_s", stage(ledger, "measure.match"), "s");
  out.metric("measure.matched_ratio", r.match.fraction(), "ratio");
  out.metric("infer.mapit_s", stage(ledger, "infer.mapit"), "s");
  out.metric("infer.mapit_interfaces",
             static_cast<double>(r.mapit.operating_as.size()), "count");
  out.metric("infer.bdrmap_s", stage(ledger, "infer.bdrmap"), "s");
  out.metric("infer.borders", static_cast<double>(r.borders.borders.size()),
             "count");
  out.metric("infer.anomaly_s", stage(ledger, "infer.anomaly"), "s");
  out.metric("infer.anomaly_alarms",
             static_cast<double>(r.anomalies.alarms.size()), "count");
  out.metric("core.report_s", stage(ledger, "core.report"), "s");
  out.metric("core.report_cells", static_cast<double>(r.report.cells.size()),
             "count");
  out.metric("campaign_tests_per_s", tests / campaign_s, "tests/s");
  out.metric("analysis_s", stage(ledger, "bench.analysis"), "s");
  report_trace(opt, ledger, out);
}

}  // namespace perfbench
