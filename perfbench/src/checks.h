#pragma once

// Correctness checks over the program's outputs. Each returns "" when the
// output has the property and a one-line reason when it does not. None of
// them compares against a stored copy of earlier output: each checks a
// property the method must have, or recomputes a figure apart from the
// program. Every check is also fed a deliberately wrong input by the
// workload that uses it (see mutation_must_fail in workloads.h), so a check
// that can no longer fail is itself a failure.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pathmodel_eval.h"
#include "core/report.h"
#include "gen/world.h"
#include "infer/datasets.h"
#include "infer/mapit.h"
#include "measure/traceroute.h"
#include "serve/event.h"
#include "serve/service.h"
#include "sim/faults.h"

namespace perfbench {

// batch_week
std::string check_tests_attempted(const netcong::sim::DataQuality& q,
                                  std::size_t schedule_size);
std::string check_quality_accounting(const netcong::sim::DataQuality& q);
// MAP-IT over the whole corpus must equal MAP-IT evidence gathered from the
// two halves of the corpus, each fed in reverse order, then merged.
std::string check_mapit_halves(
    const std::vector<netcong::measure::TracerouteRecord>& corpus,
    const netcong::infer::MapItResult& whole,
    const netcong::infer::Ip2As& ip2as, const netcong::infer::OrgMap& orgs);
// Every report cell's test count must equal a tally recomputed here from
// the raw tests, and every tally at or above the cell floor must be a cell.
std::string check_report_tally(
    const std::vector<netcong::measure::NdtRecord>& tests,
    const netcong::gen::World& world,
    const std::map<netcong::topo::Asn, std::string>& isp_of,
    const netcong::core::ReportOptions& options,
    const netcong::core::InterconnectReport& report);

// ingest_replay
std::string check_log_roundtrip(
    const std::vector<netcong::serve::IngestEvent>& appended,
    const std::vector<netcong::serve::IngestEvent>& recovered);
std::string check_conservation(const netcong::serve::ServiceCounters& c);
std::string check_fingerprints_agree(std::uint64_t live,
                                     std::uint64_t recovered,
                                     std::uint64_t batch);
std::string check_borders_inferred(const netcong::serve::ServiceSnapshot& s);
// The reference for the service: run_mapit + borders_from_mapit +
// NdtStreamStats over the log, with no queues or threads, digested the way
// the service digests a snapshot.
std::uint64_t batch_reference_fingerprint(
    const std::vector<netcong::serve::IngestEvent>& log,
    const netcong::infer::Ip2As& ip2as, const netcong::infer::OrgMap& orgs,
    netcong::topo::Asn vp_as, const netcong::topo::RelationshipTable& rels,
    const netcong::infer::AliasResolver& aliases);

// pathmodel_cc
std::string check_case_count(
    const std::vector<netcong::core::PathModelCase>& cases, int per_class);
std::string check_truth_labels(
    const std::vector<netcong::core::PathModelCase>& cases);
std::string check_beats_baseline(const netcong::core::PathModelScore& s);

}  // namespace perfbench
