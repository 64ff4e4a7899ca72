// ServiceConfig — the ONE validated configuration object for the vscrubd
// serving stack. Transport (socket, deadlines), engine (queue, executors,
// store), scheduler (tenant weights, preemption) and fleet (worker roster,
// leases) settings live here together, and every consumer — the `vscrubd`
// daemon, `vscrubctl serve`, the loopback tests, and the service bench —
// builds the same struct. A config that names workers is a coordinator's:
// the same CampaignService then shards its campaigns over those daemons.
//
// The declarative flag table below (service_config_flags()) is the single
// source of truth for the `serve` CLI surface: core/cli builds the serve
// command from it, serve_common applies parsed flags through set(), and the
// CLI contract tests cover every field automatically. Adding a knob means
// adding one table row + one set() case — no flag can drift from its field.
//
// Every setter failure is a typed ServiceConfigError (same discipline as
// GangWidthError): junk numbers, malformed weight specs and
// inconsistent combinations are rejected at configuration time with a
// message naming the flag, never discovered mid-serve.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace vscrub {

/// Typed error for rejected service configuration: unknown flags, unparsable
/// values, and validate() consistency failures.
class ServiceConfigError : public Error {
 public:
  explicit ServiceConfigError(const std::string& what) : Error(what) {}
};

/// One row of the serve flag surface; mirrors core/cli's CliFlag shape
/// without depending on it (svc sits below core in the link order).
struct ServiceConfigFlag {
  const char* name;        ///< "--queue"
  bool takes_value;        ///< false for boolean flags
  const char* value_name;  ///< "N", "PATH", ...
  std::string help;
};

/// Every flag the `serve` command accepts, in display order.
const std::vector<ServiceConfigFlag>& service_config_flags();

struct ServiceConfig {
  // ---- transport -------------------------------------------------------
  /// Unix-domain socket path. Bound at start(); unlinked on shutdown.
  std::string socket_path = "/tmp/vscrubd.sock";
  /// When nonzero, also listen on 127.0.0.1:tcp_port (loopback only — the
  /// protocol carries no authentication).
  u16 tcp_port = 0;
  /// Deadline for a connection's queued replies to make progress. A peer
  /// whose socket stays unwritable past this is declared dead: its write
  /// queue is dropped and the connection closed, so a wedged client can
  /// never pin server memory (or stall the SIGTERM drain) forever.
  int send_timeout_ms = 10000;
  /// Hard bound on bytes queued toward one connection. A client that
  /// submits work but never reads its replies accumulates at most this much
  /// before being declared dead. Not a CLI flag; tests shrink it to force
  /// the backpressure path deterministically.
  std::size_t max_conn_backlog_bytes = 64u << 20;

  // ---- engine ----------------------------------------------------------
  /// Admission bound; a work request arriving when this many are already
  /// queued gets a kBusy reply instead of a slot.
  std::size_t queue_capacity = 16;
  /// Executor threads — the number of requests making progress at once.
  unsigned executors = 2;
  /// Workers in the shared injection pool (0 = hardware concurrency).
  unsigned pool_threads = 0;
  /// Directory of the process-wide verdict store; empty = no store (campaign
  /// requests run uncached, recampaign requests are rejected).
  std::string cache_dir;
  /// Retry hint carried in kBusy replies.
  u64 retry_after_ms = 250;
  /// Bound on the request-latency histogram (deterministic reservoir).
  u64 latency_reservoir = 1024;
  /// Campaigns write a checkpoint file (VSCK5, under checkpoint_dir())
  /// every this many chunks so a cancelled or hard-stopped request leaves a
  /// resumable file; 0 disables periodic checkpointing. The only served
  /// path that writes checkpoint files: preemption keeps its checkpoints in
  /// memory.
  u64 checkpoint_every_chunks = 0;

  // ---- scheduler -------------------------------------------------------
  /// Fair-share weights by tenant name ("--sched-weight NAME=W[,NAME=W]").
  /// Unlisted tenants get weight 1; a tenant with weight W receives W times
  /// the scheduling share of a weight-1 tenant under contention.
  std::map<std::string, u64> sched_weights;
  /// Preemption quantum: a running campaign that has completed this many
  /// chunks while a different tenant has work queued is checkpointed and
  /// requeued at its tenant's head, and the scheduler picks the next lane.
  /// 0 disables preemption. The checkpoint stays in memory with the job, so
  /// preemption needs no directory.
  u64 preempt_chunks = 0;
  /// Directory for periodic (checkpoint_every_chunks) checkpoint files when
  /// cache_dir is empty (or should not hold scratch state). Empty = use
  /// cache_dir.
  std::string spool_dir;

  // ---- fleet -----------------------------------------------------------
  /// Worker daemons' Unix-socket paths ("--worker PATH", repeatable). When
  /// non-empty this service is a coordinator: its campaigns are sharded
  /// across these workers (svc/fabric.h), it runs no injection pool, and it
  /// takes no recampaign, mission or fleet requests.
  std::vector<std::string> workers;
  /// A sharded range with no progress or checkpoint frame for this long is
  /// declared lost and reassigned from its last shipped checkpoint.
  u64 lease_ms = 10000;

  // ---- daemon ----------------------------------------------------------
  /// When nonempty, the daemon writes a service_stats report here after the
  /// drain completes.
  std::string stats_json;

  /// Applies one parsed CLI flag ("--queue", "8"). Throws ServiceConfigError
  /// on an unknown flag or an unparsable value. --sched-weight merges and
  /// --worker appends, so both may repeat.
  void set(const std::string& flag, const std::string& value);

  /// Cross-field consistency check; call once after the last set(). Throws
  /// ServiceConfigError naming the first violated constraint.
  void validate() const;

  /// Where periodic checkpoint files go: spool_dir when set, else
  /// cache_dir.
  std::string checkpoint_dir() const {
    return spool_dir.empty() ? cache_dir : spool_dir;
  }

  /// Scheduling weight for one tenant (default 1).
  u64 weight_for(const std::string& tenant) const {
    const auto it = sched_weights.find(tenant);
    return it == sched_weights.end() ? 1 : it->second;
  }
};

/// Parses "NAME=W[,NAME=W...]" into (tenant, weight) pairs. Throws
/// ServiceConfigError on empty names, missing '=', junk or zero weights.
std::map<std::string, u64> parse_sched_weights(const std::string& spec);

}  // namespace vscrub
