// Shared `fleet-serve` implementation for the two coordinator entry points:
// `vscrubd --coordinator` and `vscrubctl fleet-serve`. Both parse the same
// declarative `fleet-serve` command table in core/cli.cpp and build one
// CoordinatorConfig here, so flags and behavior cannot drift apart.
#pragma once

#include <cstdio>
#include <memory>

#include "coord/coordinator.h"
#include "core/cli.h"
#include "svc/config.h"
#include "svc/server.h"

namespace vscrub {

inline CoordinatorConfig coordinator_config_from(const CliArgs& args) {
  CoordinatorConfig config;
  config.socket_path = args.option("--socket", "/tmp/vscrub-coord.sock");
  config.workers = args.option_all("--worker");
  config.cache_dir = args.option("--cache-dir", "");
  config.shards_per_worker = args.option_u64("--shards-per-worker", 2);
  config.lease_ms = args.option_u64("--lease-ms", 10000);
  config.checkpoint_every_chunks =
      args.option_u64("--checkpoint-every-chunks", 1);
  config.max_concurrent =
      static_cast<unsigned>(args.option_u64("--max-concurrent", 2));
  config.validate();
  return config;
}

/// Runs the coordinator daemon until SIGTERM/SIGINT: the first signal
/// drains gracefully (live sharded campaigns finish and deliver their
/// merged reports), a second cancels them at the next range boundary.
inline int run_fleet_serve(const CliArgs& args) {
  CoordinatorConfig config = coordinator_config_from(args);
  // Only the transport fields of ServiceConfig matter here; the engine is
  // the CoordinatorService, not the default CampaignService.
  ServiceConfig transport;
  transport.socket_path = config.socket_path;
  auto service = std::make_unique<CoordinatorService>(std::move(config));
  const CoordinatorConfig& cfg = service->config();
  SocketServer server(transport, std::move(service));
  server.start();
  server.bind_signals();
  std::printf("vscrubd: coordinating %zu worker(s) on %s (x%llu shards, "
              "lease %llu ms, hub store %s)\n",
              cfg.workers.size(), cfg.socket_path.c_str(),
              static_cast<unsigned long long>(cfg.shards_per_worker),
              static_cast<unsigned long long>(cfg.lease_ms),
              cfg.cache_dir.empty() ? "disabled" : cfg.cache_dir.c_str());
  std::fflush(stdout);
  server.run();
  const std::string stats_json = args.option("--stats-json", "");
  if (!stats_json.empty() &&
      server.service().stats_report().write(stats_json)) {
    std::printf("vscrubd: wrote coordinator stats to %s\n",
                stats_json.c_str());
  }
  std::printf("vscrubd: coordinator drained, exiting\n");
  return 0;
}

}  // namespace vscrub
