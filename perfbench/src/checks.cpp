#include "checks.h"

#include <tuple>

#include "infer/bdrmap.h"
#include "infer/fingerprint.h"
#include "serve/ndt_stats.h"
#include "util/strings.h"

namespace perfbench {

namespace nc = netcong;
using nc::util::format;

std::string check_tests_attempted(const nc::sim::DataQuality& q,
                                  std::size_t schedule_size) {
  if (q.tests_attempted == schedule_size) return "";
  return format("tests_attempted %zu != schedule length %zu",
                q.tests_attempted, schedule_size);
}

std::string check_quality_accounting(const nc::sim::DataQuality& q) {
  std::size_t tests = q.tests_completed + q.tests_aborted + q.tests_unserved +
                      q.tests_failed;
  if (q.tests_attempted != tests) {
    return format("attempted %zu != completed+aborted+unserved+failed %zu",
                  q.tests_attempted, tests);
  }
  std::size_t traces = q.traceroutes_completed + q.traceroutes_lost_busy +
                       q.traceroutes_lost_failed + q.traceroutes_lost_crash;
  if (q.traceroutes_scheduled != traces) {
    return format("traceroutes scheduled %zu != completed+lost %zu",
                  q.traceroutes_scheduled, traces);
  }
  return "";
}

std::string check_mapit_halves(
    const std::vector<nc::measure::TracerouteRecord>& corpus,
    const nc::infer::MapItResult& whole, const nc::infer::Ip2As& ip2as,
    const nc::infer::OrgMap& orgs) {
  const std::size_t half = corpus.size() / 2;
  nc::infer::MapItEvidence first, second;
  for (std::size_t i = half; i-- > 0;) first.add(corpus[i], ip2as);
  for (std::size_t i = corpus.size(); i-- > half;) second.add(corpus[i], ip2as);
  second.merge(first);
  std::uint64_t merged = nc::infer::fingerprint(second.infer(ip2as, orgs));
  std::uint64_t direct = nc::infer::fingerprint(whole);
  if (merged == direct) return "";
  return format("whole-corpus MAP-IT %016llx != merged halves %016llx",
                static_cast<unsigned long long>(direct),
                static_cast<unsigned long long>(merged));
}

std::string check_report_tally(
    const std::vector<nc::measure::NdtRecord>& tests,
    const nc::gen::World& world,
    const std::map<nc::topo::Asn, std::string>& isp_of,
    const nc::core::ReportOptions& options,
    const nc::core::InterconnectReport& report) {
  const nc::topo::Topology& topo = *world.topo;
  using Key = std::tuple<std::string, std::string, std::string>;
  std::map<Key, std::size_t> tally;
  for (const auto& t : tests) {
    if (t.download_mbps <= 0.0) continue;
    auto isp = isp_of.find(t.client_asn);
    if (isp == isp_of.end()) continue;
    const auto& server_as = topo.as_info(t.server_asn);
    if (server_as.type != nc::topo::AsType::kTransit) continue;
    int day = static_cast<int>(t.utc_time_hours / 24.0);
    if (day < 0 || day >= options.days) continue;
    const auto& metro = topo.city(topo.host(t.server).city).code;
    ++tally[Key{server_as.name, isp->second, metro}];
  }
  std::size_t expected_cells = 0;
  for (const auto& [key, n] : tally) {
    if (n >= options.min_tests_per_cell) ++expected_cells;
  }
  if (report.cells.size() != expected_cells) {
    return format("%zu report cells, %zu tallies reach the %zu-test floor",
                  report.cells.size(), expected_cells,
                  options.min_tests_per_cell);
  }
  for (const auto& cell : report.cells) {
    auto it = tally.find(Key{cell.source, cell.isp, cell.metro});
    std::size_t want = it == tally.end() ? 0 : it->second;
    std::size_t daily = 0;
    for (std::size_t n : cell.daily_tests) daily += n;
    if (cell.tests != want || daily != want) {
      return format("cell %s/%s/%s: %zu tests (%zu by day), tally %zu",
                    cell.source.c_str(), cell.isp.c_str(), cell.metro.c_str(),
                    cell.tests, daily, want);
    }
  }
  return "";
}

std::string check_log_roundtrip(
    const std::vector<nc::serve::IngestEvent>& appended,
    const std::vector<nc::serve::IngestEvent>& recovered) {
  if (appended.size() != recovered.size()) {
    return format("recovered %zu events of %zu appended", recovered.size(),
                  appended.size());
  }
  std::uint64_t a = nc::serve::fingerprint(appended, appended.size());
  std::uint64_t r = nc::serve::fingerprint(recovered, recovered.size());
  if (a == r) return "";
  return format("recovered log %016llx != appended log %016llx",
                static_cast<unsigned long long>(r),
                static_cast<unsigned long long>(a));
}

std::string check_conservation(const nc::serve::ServiceCounters& c) {
  if (c.submitted != c.consumed + c.dropped) {
    return format("submitted %llu != consumed %llu + dropped %llu",
                  static_cast<unsigned long long>(c.submitted),
                  static_cast<unsigned long long>(c.consumed),
                  static_cast<unsigned long long>(c.dropped));
  }
  if (c.dropped != 0) {
    return format("%llu events dropped under the block policy",
                  static_cast<unsigned long long>(c.dropped));
  }
  return "";
}

std::string check_fingerprints_agree(std::uint64_t live,
                                     std::uint64_t recovered,
                                     std::uint64_t batch) {
  if (live == batch && recovered == batch) return "";
  return format("live %016llx, recovered %016llx, batch %016llx",
                static_cast<unsigned long long>(live),
                static_cast<unsigned long long>(recovered),
                static_cast<unsigned long long>(batch));
}

std::string check_borders_inferred(const nc::serve::ServiceSnapshot& s) {
  if (s.borders && !s.borders->borders.empty()) return "";
  return "final snapshot inferred no borders";
}

std::uint64_t batch_reference_fingerprint(
    const std::vector<nc::serve::IngestEvent>& log,
    const nc::infer::Ip2As& ip2as, const nc::infer::OrgMap& orgs,
    nc::topo::Asn vp_as, const nc::topo::RelationshipTable& rels,
    const nc::infer::AliasResolver& aliases) {
  nc::serve::ServiceSnapshot snap;
  std::vector<nc::measure::TracerouteRecord> traces;
  for (const auto& ev : log) {
    if (const auto* t = std::get_if<nc::measure::NdtRecord>(&ev)) {
      snap.ndt.add(*t);
    } else {
      traces.push_back(std::get<nc::measure::TracerouteRecord>(ev));
    }
  }
  snap.events_consumed = log.size();
  snap.ndt_tests = snap.ndt.tests();
  snap.mapit = nc::infer::run_mapit(traces, ip2as, orgs);
  snap.traces = snap.mapit.coverage.traces_total;
  snap.borders =
      nc::infer::borders_from_mapit(snap.mapit, vp_as, orgs, rels, aliases);
  return nc::serve::snapshot_fingerprint(snap);
}

namespace {

// The label each scenario class is built to have (core/pathmodel_eval):
// the two congested classes share a queue with competing flows, the others
// do not. Written out here so the check does not trust the suite's own
// labelling.
struct Truth {
  nc::infer::FlowLabel label;
  nc::infer::BottleneckSite site;
};

Truth truth_of(nc::core::PathModelScenario s) {
  using nc::core::PathModelScenario;
  using nc::infer::BottleneckSite;
  using nc::infer::FlowLabel;
  switch (s) {
    case PathModelScenario::kSender:
      return {FlowLabel::kSenderLimited, BottleneckSite::kNone};
    case PathModelScenario::kInterdomain:
      return {FlowLabel::kCongestionLimited, BottleneckSite::kInterdomain};
    case PathModelScenario::kAccess:
      return {FlowLabel::kCongestionLimited, BottleneckSite::kAccess};
    default:
      return {FlowLabel::kBandwidthLimited, BottleneckSite::kNone};
  }
}

}  // namespace

std::string check_case_count(
    const std::vector<nc::core::PathModelCase>& cases, int per_class) {
  const std::size_t want = 4u * static_cast<std::size_t>(per_class);
  if (cases.size() != want) {
    return format("%zu cases, want 4 classes x %d", cases.size(), per_class);
  }
  std::map<nc::core::PathModelScenario, int> per;
  for (const auto& c : cases) {
    if (!c.result.valid) {
      return format("a %s case has no label",
                    nc::core::pathmodel_scenario_name(c.scenario));
    }
    ++per[c.scenario];
  }
  for (const auto& [scenario, n] : per) {
    if (n != per_class) {
      return format("%d %s cases, want %d", n,
                    nc::core::pathmodel_scenario_name(scenario), per_class);
    }
  }
  return "";
}

std::string check_truth_labels(
    const std::vector<nc::core::PathModelCase>& cases) {
  for (const auto& c : cases) {
    Truth t = truth_of(c.scenario);
    if (c.truth_label != t.label || c.truth_site != t.site) {
      return format("a %s case carries truth %s, the generator builds %s",
                    nc::core::pathmodel_scenario_name(c.scenario),
                    nc::infer::flow_label_name(c.truth_label),
                    nc::infer::flow_label_name(t.label));
    }
  }
  return "";
}

std::string check_beats_baseline(const nc::core::PathModelScore& s) {
  if (s.congested.f1 > s.baseline_best_f1) return "";
  return format("path-model congested F1 %.3f <= threshold baseline %.3f",
                s.congested.f1, s.baseline_best_f1);
}

}  // namespace perfbench
