#include "stack.h"

namespace perfbench {

namespace nc = netcong;

Stack::Stack(const nc::gen::GeneratorConfig& cfg, Ledger& ledger)
    : world(ledger.time("gen.generate_world",
                        [&] { return nc::gen::generate_world(cfg); })) {
  const nc::topo::Topology& topo = *world.topo;
  ledger.time("route.setup", [&] {
    bgp = std::make_unique<nc::route::BgpRouting>(topo);
    fwd = std::make_unique<nc::route::Forwarder>(topo, *bgp);
    cache = std::make_unique<nc::route::PathCache>(*fwd);
    model = std::make_unique<nc::sim::ThroughputModel>(topo, *world.traffic);
  });
  ledger.time("infer.datasets", [&] {
    ip2as = std::make_unique<nc::infer::Ip2As>(topo);
    orgs = std::make_unique<nc::infer::OrgMap>(topo);
    aliases = std::make_unique<nc::infer::AliasResolver>(topo, 0.9, cfg.seed);
  });
  mlab = std::make_unique<nc::measure::Platform>("M-Lab", topo,
                                                 world.mlab_servers);
  for (const auto& [name, asns] : world.isp_asns) {
    for (nc::topo::Asn a : asns) isp_of[a] = name;
  }
  std::map<nc::topo::Asn, int> servers_in;
  for (std::uint32_t s : world.mlab_servers) ++servers_in[topo.host(s).asn];
  int best = 0;
  for (const auto& [asn, n] : servers_in) {
    if (n > best) best = n, vp_as = asn;
  }
}

}  // namespace perfbench
