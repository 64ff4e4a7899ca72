#include "svc/config.h"

#include <cstdlib>
#include <limits>

namespace vscrub {

namespace {

/// Strict u64 parse: the whole string must be a decimal number. The CLI's
/// permissive option_u64 (atoi semantics) is fine for one-shot commands; a
/// daemon's config deserves to reject "--queue 1x6" instead of serving with
/// queue 1.
u64 parse_u64_or_throw(const std::string& flag, const std::string& value,
                       u64 max = std::numeric_limits<u64>::max()) {
  if (value.empty()) {
    throw ServiceConfigError("serve: " + flag + " needs a number");
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end == value.c_str() || *end != '\0' ||
      value[0] == '-') {
    throw ServiceConfigError("serve: " + flag + " is not a number: '" +
                             value + "'");
  }
  if (parsed > max) {
    throw ServiceConfigError("serve: " + flag + " out of range (max " +
                             std::to_string(max) + "): '" + value + "'");
  }
  return static_cast<u64>(parsed);
}

}  // namespace

std::map<std::string, u64> parse_sched_weights(const std::string& spec) {
  std::map<std::string, u64> weights;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string entry =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (entry.empty()) {
      throw ServiceConfigError(
          "serve: --sched-weight entries are NAME=W, comma separated: '" +
          spec + "'");
    }
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ServiceConfigError(
          "serve: --sched-weight entry missing NAME=W: '" + entry + "'");
    }
    const std::string name = entry.substr(0, eq);
    const u64 weight =
        parse_u64_or_throw("--sched-weight", entry.substr(eq + 1));
    if (weight == 0) {
      throw ServiceConfigError(
          "serve: --sched-weight weight must be >= 1 for '" + name + "'");
    }
    weights[name] = weight;
  }
  return weights;
}

const std::vector<ServiceConfigFlag>& service_config_flags() {
  static const std::vector<ServiceConfigFlag> flags = {
      {"--socket", true, "PATH",
       "unix socket path (default " + ServiceConfig{}.socket_path + ")"},
      {"--tcp-port", true, "P", "also listen on TCP loopback port P"},
      {"--queue", true, "N", "admission queue capacity (default 16)"},
      {"--executors", true, "N",
       "concurrent requests, sharded campaigns included (default 2)"},
      {"--threads", true, "N",
       "shared injection pool workers (0 = hardware)"},
      {"--cache-dir", true, "DIR",
       "process-wide verdict store shared by every client"},
      {"--retry-after", true, "MS", "busy-reply retry hint (default 250)"},
      {"--checkpoint-every", true, "N",
       "checkpoint served campaigns every N chunks (0 = off)"},
      {"--send-timeout", true, "MS",
       "reply write-progress deadline before a client that stops reading "
       "is dropped (default 10000)"},
      {"--sched-weight", true, "NAME=W",
       "fair-share weight for tenant NAME (repeatable / comma list; "
       "default 1)"},
      {"--preempt", true, "N",
       "preempt a served campaign after N chunks when another tenant "
       "waits; it checkpoints and resumes later (0 = off)"},
      {"--spool-dir", true, "DIR",
       "directory for --checkpoint-every files when --cache-dir is unset"},
      {"--stats-json", true, "FILE",
       "write service stats JSON after the drain"},
      {"--worker", true, "PATH",
       "shard campaigns over this vscrubd worker socket (repeatable; makes "
       "this daemon a coordinator)"},
      {"--lease-ms", true, "MS",
       "reassign a sharded range after this long without a worker frame "
       "(default 10000)"},
  };
  return flags;
}

void ServiceConfig::set(const std::string& flag, const std::string& value) {
  if (flag == "--socket") {
    socket_path = value;
  } else if (flag == "--tcp-port") {
    tcp_port = static_cast<u16>(parse_u64_or_throw(flag, value, 65535));
  } else if (flag == "--queue") {
    queue_capacity = static_cast<std::size_t>(parse_u64_or_throw(flag, value));
  } else if (flag == "--executors") {
    executors = static_cast<unsigned>(parse_u64_or_throw(flag, value, 4096));
  } else if (flag == "--threads") {
    pool_threads = static_cast<unsigned>(parse_u64_or_throw(flag, value, 4096));
  } else if (flag == "--cache-dir") {
    cache_dir = value;
  } else if (flag == "--retry-after") {
    retry_after_ms = parse_u64_or_throw(flag, value);
  } else if (flag == "--checkpoint-every") {
    checkpoint_every_chunks = parse_u64_or_throw(flag, value);
  } else if (flag == "--send-timeout") {
    send_timeout_ms = static_cast<int>(
        parse_u64_or_throw(flag, value, std::numeric_limits<int>::max()));
  } else if (flag == "--sched-weight") {
    for (const auto& [name, weight] : parse_sched_weights(value)) {
      sched_weights[name] = weight;
    }
  } else if (flag == "--preempt") {
    preempt_chunks = parse_u64_or_throw(flag, value);
  } else if (flag == "--spool-dir") {
    spool_dir = value;
  } else if (flag == "--stats-json") {
    stats_json = value;
  } else if (flag == "--worker") {
    workers.push_back(value);
  } else if (flag == "--lease-ms") {
    lease_ms = parse_u64_or_throw(flag, value);
  } else {
    throw ServiceConfigError("serve: unknown flag " + flag);
  }
}

void ServiceConfig::validate() const {
  if (socket_path.empty()) {
    throw ServiceConfigError("serve: --socket path must not be empty");
  }
  // sockaddr_un::sun_path is 108 bytes on Linux; reject here with a typed
  // error instead of failing at bind time.
  if (socket_path.size() >= 108) {
    throw ServiceConfigError("serve: --socket path too long (max 107): " +
                             socket_path);
  }
  if (queue_capacity == 0) {
    throw ServiceConfigError("serve: --queue must be >= 1");
  }
  if (executors == 0) {
    throw ServiceConfigError("serve: --executors must be >= 1");
  }
  if (send_timeout_ms <= 0) {
    throw ServiceConfigError("serve: --send-timeout must be >= 1 ms");
  }
  if (max_conn_backlog_bytes == 0) {
    throw ServiceConfigError("serve: connection backlog bound must be >= 1");
  }
  if (!workers.empty() && preempt_chunks > 0) {
    throw ServiceConfigError(
        "serve: --preempt does not apply to sharded campaigns; drop it or "
        "the --worker sockets");
  }
  if (lease_ms == 0) {
    throw ServiceConfigError("serve: --lease-ms must be >= 1");
  }
  for (const auto& [name, weight] : sched_weights) {
    if (name.empty() || weight == 0) {
      throw ServiceConfigError(
          "serve: --sched-weight entries need a nonempty NAME and W >= 1");
    }
  }
}

}  // namespace vscrub
