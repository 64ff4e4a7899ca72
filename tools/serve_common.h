// Shared `serve` implementation for the two daemon entry points: the
// dedicated `vscrubd` binary and `vscrubctl serve`. Both parse the same
// declarative `serve` command table (derived from service_config_flags() in
// svc/config.h), and both apply the parsed flags through ServiceConfig::set,
// so flags, help text and behavior cannot drift apart.
#pragma once

#include <cstdio>

#include "core/cli.h"
#include "svc/config.h"
#include "svc/server.h"

namespace vscrub {

inline ServiceConfig service_config_from(const CliArgs& args) {
  ServiceConfig config;
  for (const auto& [flag, value] : args.options) config.set(flag, value);
  config.validate();
  return config;
}

/// Runs the daemon until SIGTERM/SIGINT: first signal drains gracefully
/// (in-flight requests finish and deliver), a second cancels live work at
/// the next chunk boundary. Returns 0 after a clean drain. With --worker
/// sockets the daemon is a coordinator that shards its campaigns.
inline int run_serve(const CliArgs& args) {
  const ServiceConfig config = service_config_from(args);
  SocketServer server(config);
  server.start();
  server.bind_signals();
  std::printf("vscrubd: listening on %s", config.socket_path.c_str());
  if (config.tcp_port != 0) {
    std::printf(" and 127.0.0.1:%u", config.tcp_port);
  }
  std::printf(" (queue %zu, %u executors, store %s",
              config.queue_capacity, config.executors,
              config.cache_dir.empty() ? "disabled"
                                       : config.cache_dir.c_str());
  if (!config.workers.empty()) {
    std::printf(", sharding over %zu worker(s)", config.workers.size());
  }
  if (config.preempt_chunks > 0) {
    std::printf(", preempt every %llu chunks",
                static_cast<unsigned long long>(config.preempt_chunks));
  }
  std::printf(")\n");
  std::fflush(stdout);
  server.run();
  if (!config.stats_json.empty() &&
      server.service().stats_report().write(config.stats_json)) {
    std::printf("vscrubd: wrote service stats to %s\n",
                config.stats_json.c_str());
  }
  std::printf("vscrubd: drained, exiting\n");
  return 0;
}

}  // namespace vscrub
