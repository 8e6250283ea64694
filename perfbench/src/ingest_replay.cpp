// ingest_replay: the daemon's path. Set-up builds the event log of a
// 10k-AS, 100k-test campaign (about 157k events, 49 MB of frames). Each
// round then
//   1. appends the log to a fresh WAL, with one sync at the end;
//   2. replays it unpaced from one producer into an IngestService under the
//      block policy (a closed loop: submit waits while the queues are full),
//      taking 100 evenly spaced snapshots, the last one after the final
//      event;
//   3. recovers the WAL and replays the recovered events into a fresh
//      service, up to its first snapshot.
// serve does nearly all the work; measure runs only in set-up.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include <unistd.h>

#include "checks.h"
#include "measure/corpus.h"
#include "measure/ndt.h"
#include "serve/codec.h"
#include "serve/event.h"
#include "serve/service.h"
#include "serve/wal.h"
#include "stack.h"
#include "workloads.h"

namespace perfbench {

namespace nc = netcong;
namespace fs = std::filesystem;

namespace {

constexpr double kCustomerScale = 1.76;  // about 10k ASes
constexpr int kClientsPerAccessIsp = 400;
constexpr std::size_t kTests = 100'000;
constexpr int kSnapshots = 100;
constexpr std::size_t kQueueCapacity = 4096;

struct Inputs {
  std::unique_ptr<Stack> stack;
  std::vector<nc::serve::IngestEvent> log;
};

// Exactly kTests requests, round-robin over the client population at a
// fixed platform-wide arrival rate, so every seed yields the same corpus
// size.
std::vector<nc::gen::TestRequest> fixed_schedule(
    const std::vector<std::uint32_t>& clients) {
  constexpr double kTestsPerHour = 5000.0;
  std::vector<nc::gen::TestRequest> schedule(kTests);
  for (std::size_t i = 0; i < kTests; ++i) {
    schedule[i].client = clients[i % clients.size()];
    schedule[i].utc_time_hours = static_cast<double>(i) / kTestsPerHour;
  }
  return schedule;
}

nc::serve::ServeConfig serve_config(nc::topo::Asn vp_as) {
  nc::serve::ServeConfig c;
  c.shards = kIngestShards;
  c.queue_capacity = kQueueCapacity;
  c.policy = nc::serve::OverflowPolicy::kBlock;
  c.vp_as = vp_as;
  return c;
}

struct RoundOutput {
  std::vector<nc::serve::IngestEvent> recovered;
  nc::serve::ServiceSnapshot live_final;
  nc::serve::ServiceSnapshot recovered_first;
  nc::serve::ServiceCounters live_counters;
  nc::serve::ServiceCounters recovery_counters;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_segments = 0;
  std::uint64_t bytes_scanned = 0;
};

}  // namespace

void run_ingest_replay(const RunOptions& opt, RunResult& out) {
  Ledger ledger(opt.trace);
  Inputs in;
  nc::sim::DataQuality campaign_quality;
  std::size_t trace_hops = 0, paths_interned = 0, traces = 0;
  nc::route::PathCache::Stats cache_stats{};

  const double setup_s = timed_setup(ledger, [&] {
    in = Inputs{};
    nc::gen::GeneratorConfig cfg = nc::gen::GeneratorConfig::full();
    cfg.seed = kWorldSeed;
    cfg.customer_scale = kCustomerScale;
    cfg.clients_per_access_isp = kClientsPerAccessIsp;
    in.stack = std::make_unique<Stack>(cfg, ledger);
    const Stack& st = *in.stack;
    auto schedule = ledger.time(
        "gen.schedule", [&] { return fixed_schedule(st.world.clients); });
    nc::measure::CampaignConfig cc;
    cc.threads = kCampaignThreads;
    nc::measure::NdtCampaign campaign(st.world, *st.fwd, *st.model, *st.mlab,
                                      cc);
    campaign.set_path_cache(st.cache.get());
    nc::util::Rng rng(opt.seed * 2654435761u + 29);
    auto result = ledger.time("measure.campaign", [&] {
      return campaign.run_columnar(schedule, rng);
    });
    campaign_quality = result.quality;
    trace_hops = result.traceroutes.total_hops();
    traces = result.traceroutes.size();
    paths_interned = result.paths.size();
    cache_stats = st.cache->stats();
    in.log = ledger.time("serve.event_log",
                         [&] { return nc::serve::event_log_from(result); });
  });
  const Stack& st = *in.stack;
  const std::vector<nc::serve::IngestEvent>& log = in.log;
  const std::size_t n = log.size();
  std::printf("ingest_replay seed %llu: %zu ASes, %zu events "
              "(%zu tests, %zu traceroutes), vantage AS %u\n",
              static_cast<unsigned long long>(opt.seed),
              st.world.topo->as_count(), n, campaign_quality.tests_attempted,
              traces, st.vp_as);

  const std::string wal_dir =
      opt.out_dir + "/wal-" + std::to_string(::getpid());
  std::vector<double> snapshot_ms, submit_us;  // from a traced round
  std::size_t snapshots_taken = 0;
  std::optional<RoundOutput> last;

  run_rounds(opt, ledger, [&] {
    last.reset();
    RoundOutput r;
    const bool traced_round = ledger.recording();
    if (traced_round) {
      snapshot_ms.clear();
      submit_us.clear();
    }
    fs::remove_all(wal_dir);

    // 1. WAL append. In a traced round the encoding is also timed on its
    // own, in a separate pass, since append() encodes inside the call.
    if (traced_round) {
      ledger.time("serve.encode", [&] {
        std::vector<std::uint8_t> buf;
        for (const auto& ev : log) {
          buf.clear();
          nc::serve::append_frame(ev, buf);
        }
      });
    }
    {
      nc::serve::WalWriter wal;
      if (!wal.open(wal_dir, nc::serve::WalOptions{}).ok()) {
        out.check("wal", "cannot open " + wal_dir);
        return;
      }
      ledger.time("serve.wal", [&] {
        ledger.time("serve.wal_append", [&] {
          for (const auto& ev : log) {
            if (!wal.append(ev).ok()) ++out.failed;
          }
        });
        ledger.time("serve.wal_sync", [&] {
          if (!wal.sync().ok()) ++out.failed;
        });
      });
      r.wal_segments = wal.stats().segments_created;
      wal.close();
    }
    for (const std::string& seg : nc::serve::wal_segments(wal_dir)) {
      r.wal_bytes += fs::file_size(seg);
    }
    out.attempted += n;

    // 2. Live replay with snapshots.
    {
      nc::serve::IngestService svc(*st.ip2as, *st.orgs,
                                   serve_config(st.vp_as));
      svc.set_relationships(&st.world.topo->relationships(),
                            st.aliases.get());
      svc.start();
      ledger.time("serve.replay", [&] {
        int taken = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (traced_round) {
            const double s0 = now_s();
            if (!svc.submit(log[i])) ++out.failed;
            submit_us.push_back((now_s() - s0) * 1e6);
          } else if (!svc.submit(log[i])) {
            ++out.failed;
          }
          const std::size_t due =
              (static_cast<std::size_t>(taken) + 1) * n / kSnapshots;
          if (i + 1 != due) continue;
          if (taken + 1 == kSnapshots) {
            ledger.time("serve.drain", [&] { svc.flush(); });
          }
          nc::serve::ServiceSnapshot snap =
              ledger.time("serve.snapshot", [&] { return svc.snapshot(); });
          if (traced_round) snapshot_ms.push_back(snap.snapshot_ms);
          if (++taken == kSnapshots) r.live_final = std::move(snap);
          snapshots_taken = static_cast<std::size_t>(taken);
        }
      });
      r.live_counters = svc.counters();
      svc.stop();
    }
    out.attempted += n;

    // 3. Recovery: scan + decode the WAL, replay into a fresh service, and
    // take its first snapshot.
    const bool recovered_ok = ledger.time("serve.recovery", [&] {
      auto recovered = ledger.time("serve.recover", [&] {
        return nc::serve::recover_wal(wal_dir, /*repair=*/false);
      });
      if (!recovered.ok()) {
        out.check("recovery", recovered.error());
        return false;
      }
      r.recovered = std::move(recovered.value().events);
      r.bytes_scanned = recovered.value().bytes_scanned;
      out.attempted += n;
      if (r.recovered.size() < n) out.failed += n - r.recovered.size();
      ledger.time("serve.recovery_replay", [&] {
        nc::serve::IngestService svc(*st.ip2as, *st.orgs,
                                     serve_config(st.vp_as));
        svc.set_relationships(&st.world.topo->relationships(),
                              st.aliases.get());
        svc.start();
        for (const auto& ev : r.recovered) {
          if (!svc.submit(ev)) ++out.failed;
        }
        r.recovered_first = svc.snapshot();
        r.recovery_counters = svc.counters();
        svc.stop();
      });
      return true;
    });
    out.attempted += n;
    fs::remove_all(wal_dir);
    if (!recovered_ok) return;
    last.emplace(std::move(r));
  });
  if (!last) {
    fs::remove_all(wal_dir);
    return;
  }

  int checks = ledger.open("bench.checks");
  RoundOutput& r = *last;
  const std::uint64_t batch = batch_reference_fingerprint(
      log, *st.ip2as, *st.orgs, st.vp_as, st.world.topo->relationships(),
      *st.aliases);
  out.check("recovered log", check_log_roundtrip(log, r.recovered));
  out.check("live accounting", check_conservation(r.live_counters));
  out.check("recovery accounting", check_conservation(r.recovery_counters));
  out.check("snapshot fingerprints",
            check_fingerprints_agree(r.live_final.fingerprint,
                                     r.recovered_first.fingerprint, batch));
  out.check("border inference", check_borders_inferred(r.live_final));
  // The same checks, each fed one deliberately wrong input.
  {
    // One field of one recovered event changed.
    auto& ev = r.recovered[r.recovered.size() / 2];
    if (auto* t = std::get_if<nc::measure::NdtRecord>(&ev)) {
      t->download_mbps += 0.5;
    } else {
      std::get<nc::measure::TracerouteRecord>(ev).utc_time_hours += 1e-3;
    }
    mutation_must_fail(out, "recovered log",
                       check_log_roundtrip(log, r.recovered));
    nc::serve::ServiceCounters bad = r.live_counters;
    ++bad.dropped;
    mutation_must_fail(out, "accounting", check_conservation(bad));
    mutation_must_fail(out, "snapshot fingerprints",
                       check_fingerprints_agree(r.live_final.fingerprint,
                                                r.recovered_first.fingerprint,
                                                batch ^ 1));
    nc::serve::ServiceSnapshot no_borders;
    mutation_must_fail(out, "border inference",
                       check_borders_inferred(no_borders));
  }
  ledger.close(checks);

  const std::size_t borders =
      r.live_final.borders ? r.live_final.borders->borders.size() : 0;
  std::printf("replay: %zu events, %zu snapshots, %zu interfaces, %zu "
              "borders, fingerprint %016llx (batch %016llx); WAL %llu bytes "
              "in %llu segments\n",
              n, snapshots_taken, r.live_final.mapit.operating_as.size(),
              borders,
              static_cast<unsigned long long>(r.live_final.fingerprint),
              static_cast<unsigned long long>(batch),
              static_cast<unsigned long long>(r.wal_bytes),
              static_cast<unsigned long long>(r.wal_segments));

  const double events = static_cast<double>(n);
  const double replay_s = stage(ledger, "serve.replay");
  if (!opt.trace) {
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric("items_per_s", events / replay_s, "1/s");
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
  out.metric("route.path_cache_hits", static_cast<double>(cache_stats.hits),
             "count");
  out.metric("route.path_cache_misses",
             static_cast<double>(cache_stats.misses), "count");
  out.metric("route.path_cache_hit_ratio", cache_stats.hit_rate(), "ratio");
  out.metric("measure.campaign_s", stage(ledger, "measure.campaign"), "s");
  out.metric("measure.tests_attempted",
             static_cast<double>(campaign_quality.tests_attempted), "count");
  out.metric("measure.tests_completed",
             static_cast<double>(campaign_quality.tests_completed), "count");
  out.metric("measure.traceroutes_completed",
             static_cast<double>(campaign_quality.traceroutes_completed),
             "count");
  out.metric("measure.trace_hops", static_cast<double>(trace_hops), "count");
  out.metric("measure.paths_interned", static_cast<double>(paths_interned),
             "count");
  out.metric("measure.rss_delta_mb", ledger.rss_growth_mb("measure.campaign"),
             "MiB");
  out.metric("serve.event_log_s", stage(ledger, "serve.event_log"), "s");
  out.metric("serve.encode_s", stage(ledger, "serve.encode"), "s");
  out.metric("serve.wal_append_s", stage(ledger, "serve.wal_append"), "s");
  out.metric("serve.wal_sync_s", stage(ledger, "serve.wal_sync"), "s");
  out.metric("serve.wal_segments", static_cast<double>(r.wal_segments),
             "count");
  double submit_total_us = 0.0;
  for (double us : submit_us) submit_total_us += us;
  out.metric("serve.submit_s", submit_total_us / 1e6, "s");
  out.metric("serve.submit_us_p50", quantile(submit_us, 0.5), "us");
  out.metric("serve.submit_us_p90", quantile(submit_us, 0.9), "us");
  out.metric("serve.drain_s", stage(ledger, "serve.drain"), "s");
  out.metric("serve.snapshot_count", static_cast<double>(snapshots_taken),
             "count");
  out.metric("serve.recover_s", stage(ledger, "serve.recover"), "s");
  out.metric("serve.recover_bytes_scanned",
             static_cast<double>(r.bytes_scanned), "B");
  out.metric("serve.recovery_replay_s", stage(ledger, "serve.recovery_replay"),
             "s");
  out.metric("serve.rss_delta_mb", ledger.rss_growth_mb("serve.replay"),
             "MiB");
  out.metric("ingest_events_per_s", events / replay_s, "events/s");
  out.metric("snapshot_ms_p50", quantile(snapshot_ms, 0.5), "ms");
  out.metric("snapshot_ms_p90", quantile(snapshot_ms, 0.9), "ms");
  out.metric("wal_append_events_per_s", events / stage(ledger, "serve.wal"),
             "events/s");
  out.metric("wal_bytes_per_event", static_cast<double>(r.wal_bytes) / events,
             "B");
  out.metric("recovery_events_per_s", events / stage(ledger, "serve.recovery"),
             "events/s");
  report_trace(opt, ledger, out);
}

}  // namespace perfbench
