#pragma once

// A generated world with the routing, measurement platform and inference
// datasets on top, built stage by stage through the ledger so that each
// module's share of set-up is timed on its own.

#include <map>
#include <memory>
#include <string>

#include "gen/world.h"
#include "infer/alias.h"
#include "infer/datasets.h"
#include "ledger.h"
#include "measure/platform.h"
#include "route/bgp.h"
#include "route/forwarding.h"
#include "route/path_cache.h"
#include "sim/throughput.h"

namespace perfbench {

struct Stack {
  Stack(const netcong::gen::GeneratorConfig& cfg, Ledger& ledger);

  netcong::gen::World world;
  std::unique_ptr<netcong::route::BgpRouting> bgp;
  std::unique_ptr<netcong::route::Forwarder> fwd;
  std::unique_ptr<netcong::route::PathCache> cache;
  std::unique_ptr<netcong::sim::ThroughputModel> model;
  std::unique_ptr<netcong::measure::Platform> mlab;
  std::unique_ptr<netcong::infer::Ip2As> ip2as;
  std::unique_ptr<netcong::infer::OrgMap> orgs;
  std::unique_ptr<netcong::infer::AliasResolver> aliases;
  std::map<netcong::topo::Asn, std::string> isp_of;  // client ASN -> ISP
  // Vantage AS for border inference: the AS that hosts the most M-Lab
  // servers. The campaign's traceroutes start at M-Lab servers, so this is
  // the AS whose borders the corpus observes most often.
  netcong::topo::Asn vp_as = 0;
};

}  // namespace perfbench
