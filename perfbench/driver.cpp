// Campaign benchmark driver. Runs one workload against the vscrub library
// from the outside — the public calls of each layer, an in-process vscrubd
// reached over its socket, an in-process coordinator over three in-process
// workers — and prints the raw measurements as one JSON line. run.py turns
// them into metrics and checks every campaign result against
// reference.json.
//
//   perfbench_driver --workload NAME --seed N --seconds S --workdir DIR
//                    [--trace-out FILE]      (DIR must not exist yet)
//   perfbench_driver --make-reference FILE
//   perfbench_driver --digest-probe DESIGN SAMPLE SEED
//
// Workloads: xcv1000_exhaustive (one-shot run_campaign with nproc
// threads), served_mixed (open-loop schedule over one ServiceSession),
// fabric_3w (closed loop over one ServiceSession to a CoordinatorService).
// See README.md for why each exists.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <cctype>
#include <condition_variable>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "coord/coordinator.h"
#include "pnr/pnr.h"
#include "seu/cache_key.h"
#include "seu/campaign.h"
#include "seu/injector.h"
#include "sim/simd.h"
#include "svc/config.h"
#include "svc/protocol.h"
#include "svc/requests.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/session.h"

namespace perfbench {
namespace {

using vscrub::u64;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

const Clock::time_point kEpoch = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}
double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workload definitions. Everything a run draws from --seed comes from these
// pools, and --make-reference computes the one-shot result of every pool
// entry, so every result a run can produce has a reference row.

struct CampaignKey {
  std::string design;
  std::string device;
  u64 sample = 0;  ///< 0 = exhaustive
  u64 seed = 99;   ///< the library default; unused when exhaustive
  std::string id() const {
    return design + "|" + device + "|" + std::to_string(sample) + "|" +
           std::to_string(sample == 0 ? 99 : seed);
  }
};

const std::vector<std::string> kServedDesigns = {
    "lfsrmult", "mult", "multadd", "vmult", "selfcheck", "lfsr"};
const std::vector<u64> kServedSamples = {2000, 8000};
constexpr u64 kServedSeedPool = 8;     ///< seeds per (design, sample)
/// The fabric runs mult, not lfsrmult: sampled lfsrmult digests
/// depend on how bits are grouped over injectors (README.md, "Known
/// defect"), and the fabric's range split groups them differently each run.
const std::string kFabricDesign = "mult";
constexpr u64 kFabricSample = 8000;
constexpr u64 kFabricSeedPool = 160;   ///< seeds 1..160 for kFabricDesign
constexpr u64 kWarmupSeed = 1000000;   ///< memo warm-up, outside every pool
constexpr double kServedRate = 3.0;    ///< offered campaigns per second
constexpr double kServedPingRate = 4.0;
constexpr int kWaiters = 8;
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 25;
constexpr double kMinSetupSeconds = 1.5;

/// The k-th served seed (1-based) of the i-th sample size: 1..8 for 2,000
/// bits, 9..16 for 8,000. A sample is a prefix of the larger sample drawn
/// with the same seed, so shared seeds made some fresh 2,000-bit campaigns
/// pure store reads, and how many depended on the schedule's order.
u64 served_seed(std::size_t size_index, u64 k) {
  return size_index * kServedSeedPool + k;
}

std::vector<CampaignKey> reference_pool() {
  std::vector<CampaignKey> pool;
  pool.push_back({"lfsrmult", "xcv1000", 0, 99});
  for (const auto& d : kServedDesigns) {
    for (std::size_t i = 0; i < kServedSamples.size(); ++i) {
      for (u64 k = 1; k <= kServedSeedPool; ++k) {
        pool.push_back({d, "campaign", kServedSamples[i], served_seed(i, k)});
      }
    }
  }
  for (u64 seed = 1; seed <= kFabricSeedPool; ++seed) {
    pool.push_back({kFabricDesign, "campaign", kFabricSample, seed});
  }
  return pool;
}

/// Fisher-Yates shuffle driven by the library's platform-independent Rng, so
/// schedules are identical everywhere for the same --seed.
template <typename T>
void shuffle(std::vector<T>& v, vscrub::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform(i))]);
  }
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory around each layer call, written as Chrome
// trace-event JSON at exit. Spans of one campaign share a request id (the
// trace's tid, so concurrent requests land on separate tracks).

class Tracer {
 public:
  struct Span {
    std::string name;
    u64 id = 0;
    u64 parent = 0;
    u64 req = 0;
    double ts_us = 0;
    double dur_us = 0;
    std::string args;  ///< extra JSON members, without braces
  };

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool v) { on_.store(v, std::memory_order_relaxed); }
  u64 new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void record(Span span) {
    std::lock_guard lock(mutex_);
    spans_.push_back(std::move(span));
  }
  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return spans_.size();
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      char head[256];
      std::snprintf(head, sizeof head,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,",
                    s.name.c_str(), layer.c_str(),
                    static_cast<unsigned long long>(s.req), s.ts_us, s.dur_us);
      out << (i ? ",\n" : "\n") << head << "\"args\":{\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"req\":" << s.req
          << (s.args.empty() ? "" : ",") << s.args << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<u64> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

Tracer g_tracer;

/// RAII span: records [construction, destruction) when tracing was on at
/// construction. id() is 0 when not recording, which children accept as
/// "no parent".
class ScopedSpan {
 public:
  ScopedSpan(std::string name, u64 parent, u64 req) : live_(g_tracer.on()) {
    if (!live_) return;
    span_.name = std::move(name);
    span_.id = g_tracer.new_id();
    span_.parent = parent;
    span_.req = req;
    span_.ts_us = now_us();
  }
  ~ScopedSpan() {
    if (!live_) return;
    span_.dur_us = now_us() - span_.ts_us;
    g_tracer.record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  u64 id() const { return live_ ? span_.id : 0; }
  void add_arg(const std::string& key, double v) {
    if (!live_) return;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g",
                  span_.args.empty() ? "" : ",", key.c_str(), v);
    span_.args += buf;
  }

 private:
  bool live_;
  Tracer::Span span_;
};

/// A span reconstructed from a duration a report carries (the campaign's own
/// wall_seconds inside a served request): placed to end where its parent
/// ended, marked derived.
void derived_span(const std::string& name, u64 parent, u64 req, double end_us,
                  double dur_us) {
  if (!g_tracer.on()) return;
  Tracer::Span s;
  s.name = name;
  s.id = g_tracer.new_id();
  s.parent = parent;
  s.req = req;
  s.dur_us = std::max(0.0, dur_us);
  s.ts_us = end_us - s.dur_us;
  s.args = "\"derived\":1";
  g_tracer.record(std::move(s));
}

// ---------------------------------------------------------------------------
// Output: one JSON object on one line.

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class JsonLine {
 public:
  JsonLine& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + json;
    return *this;
  }
  JsonLine& n(const std::string& key, double v) { return raw(key, num(v)); }
  JsonLine& s(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonLine& list(const std::string& key, const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + num(v[i]);
    return raw(key, out + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Measurements shared by every workload.

struct ResultRow {
  std::string id;
  u64 injections = 0;
  u64 digest = 0;
  u64 failures = 0;
  std::string extra;  ///< deterministic one-shot counters as JSON members
};

struct PhaseSum {
  vscrub::InjectionPhases phases;
  u64 injections = 0;
  u64 campaigns = 0;
  double thread_wall_s = 0;  ///< threads x campaign wall, summed
  void add(const vscrub::CampaignResult& r, unsigned threads) {
    phases += r.phases;
    injections += r.injections;
    campaigns += 1;
    thread_wall_s += threads * r.wall_seconds;
  }
  std::string json() const {
    const auto& p = phases;
    return JsonLine()
        .n("corrupt_s", p.corrupt_s).n("run_s", p.run_s)
        .n("repair_s", p.repair_s).n("persist_s", p.persist_s)
        .n("gang_s", p.gang_s).n("pruned", static_cast<double>(p.pruned))
        .n("gang_runs", static_cast<double>(p.gang_runs))
        .n("gang_lanes", static_cast<double>(p.gang_lanes))
        .n("gang_early_exits", static_cast<double>(p.gang_early_exits))
        .n("gang_fallbacks", static_cast<double>(p.gang_fallbacks))
        .n("injections", static_cast<double>(injections))
        .n("campaigns", static_cast<double>(campaigns))
        .n("thread_wall_s", thread_wall_s)
        .str();
  }
};

struct Run {
  std::vector<double> setup_s, compile_ms, golden_ms, keyplan_ms, daemon_ms;
  std::vector<double> setup_traced;  ///< 1 when that rep ran with tracing on
  double memo_warm_ms = 0;
  double timed_s = 0;
  u64 verdicts = 0;
  u64 attempted = 0;
  u64 failed = 0;
  u64 completed = 0;
  std::vector<double> latency_ms;
  std::vector<double> warm;      ///< per latency sample: 1 = store answered all
  std::vector<double> hop_ms;    ///< latency minus the report's wall_seconds
  std::vector<double> ping_us;
  std::vector<double> gen_lag_ms;
  u64 cache_hits = 0;
  u64 remote_hits = 0;
  u64 ranges_per_campaign = 0;
  u64 reassignments = 0;
  u64 workers_lost = 0;
  double worker_busy_s = 0;  ///< fabric: summed worker request time
  std::vector<ResultRow> results;
  PhaseSum engine;  ///< one-shot campaigns, or the traced replay
  std::string stats;  ///< server counters (kStats) as JSON members
};

void add_result(Run& run, const CampaignKey& key,
                const vscrub::CampaignResult& r,
                const vscrub::PlacedDesign& design, bool with_counts) {
  ResultRow row;
  row.id = key.id();
  row.injections = r.injections;
  row.digest = r.sensitive_digest(design);
  row.failures = r.failures;
  if (with_counts) {
    row.extra = JsonLine()
                    .n("pruned", static_cast<double>(r.pruned))
                    .n("gang_runs", static_cast<double>(r.phases.gang_runs))
                    .n("gang_lanes", static_cast<double>(r.phases.gang_lanes))
                    .n("gang_early_exits",
                       static_cast<double>(r.phases.gang_early_exits))
                    .n("gang_fallbacks",
                       static_cast<double>(r.phases.gang_fallbacks))
                    .str();
  }
  run.results.push_back(std::move(row));
}

void add_report(Run& run, const CampaignKey& key, const vscrub::FlatJson& r) {
  ResultRow row;
  row.id = key.id();
  row.injections = r.get_u64("injections");
  row.digest = r.get_u64("sensitive_digest");
  row.failures = r.get_u64("failures");
  run.results.push_back(std::move(row));
}

std::string results_json(const std::vector<ResultRow>& rows) {
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ResultRow& r = rows[i];
    // Digests are full 64-bit values: rendered as strings so no JSON reader
    // rounds them through a double.
    out += (i ? "," : "") +
           JsonLine()
               .s("id", r.id)
               .n("injections", static_cast<double>(r.injections))
               .s("digest", std::to_string(r.digest))
               .n("failures", static_cast<double>(r.failures))
               .raw("counts", r.extra.empty() ? "null" : r.extra)
               .str();
  }
  return out + "]";
}

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::shared_ptr<const vscrub::PlacedDesign> compile_design(
    const std::string& design, const std::string& device) {
  return std::make_shared<const vscrub::PlacedDesign>(vscrub::compile(
      std::make_shared<const vscrub::Netlist>(vscrub::design_by_name(design)),
      std::make_shared<const vscrub::ConfigSpace>(
          vscrub::device_by_name(device)),
      {}));
}

using DesignMap =
    std::map<std::string, std::shared_ptr<const vscrub::PlacedDesign>>;

/// One set-up repetition: compile, golden trace (SeuInjector construction)
/// and cache-key plan for every design the workload runs, with the library
/// default injection options. Returns the compiled designs.
DesignMap setup_designs(Run& run, const std::vector<std::string>& designs,
                        const std::string& device, u64 parent) {
  DesignMap out;
  double compile_ms = 0, golden_ms = 0, keyplan_ms = 0;
  const vscrub::InjectionOptions options;
  for (const auto& name : designs) {
    auto t0 = Clock::now();
    {
      ScopedSpan span("pnr.compile", parent, 0);
      out[name] = compile_design(name, device);
    }
    auto t1 = Clock::now();
    {
      ScopedSpan span("sim.golden", parent, 0);
      vscrub::SeuInjector injector(*out[name], options);
    }
    auto t2 = Clock::now();
    {
      ScopedSpan span("seu.keyplan", parent, 0);
      const vscrub::CacheKeyPlan plan =
          vscrub::build_cache_key_plan(*out[name], options);
      if (plan.frame_hashes.empty()) throw std::runtime_error("empty key plan");
    }
    auto t3 = Clock::now();
    compile_ms += 1e3 * secs(t0, t1);
    golden_ms += 1e3 * secs(t1, t2);
    keyplan_ms += 1e3 * secs(t2, t3);
  }
  run.compile_ms.push_back(compile_ms);
  run.golden_ms.push_back(golden_ms);
  run.keyplan_ms.push_back(keyplan_ms);
  return out;
}

/// Runs `rep` at least kMinSetupReps times and until kMinSetupSeconds have
/// been spent (at most kMaxSetupReps), recording each repetition's wall
/// clock; set-up metrics are medians over the repetitions. Every workload
/// calls it before and again after its timed phase, so the median spans the
/// run instead of its first seconds: the host's speed drifts over tens of
/// seconds, and one batch at process start read up to 25% apart between
/// runs of the same workload. In a traced run
/// the repetitions alternate tracing on and off, so the rollup can compare
/// the two (bench.trace_overhead).
template <typename Rep>
void repeat_setup(Run& run, bool trace, Rep rep) {
  double spent = 0;
  for (int i = 0; i < kMaxSetupReps &&
                  (i < kMinSetupReps || spent < kMinSetupSeconds);
       ++i) {
    const bool traced = trace && i % 2 == 0;
    g_tracer.set_on(traced);
    const auto t0 = Clock::now();
    {
      ScopedSpan span("bench.setup", 0, 0);
      rep(span.id());
    }
    run.setup_s.push_back(secs(t0, Clock::now()));
    run.setup_traced.push_back(traced ? 1 : 0);
    spent += run.setup_s.back();
  }
  g_tracer.set_on(trace);
}

// ---------------------------------------------------------------------------
// One-shot workloads.

Run run_oneshot(const std::string& design, const std::string& device,
                double seconds, bool trace) {
  Run run;
  DesignMap compiled;
  const auto setup_rep = [&](u64 parent) {
    compiled = setup_designs(run, {design}, device, parent);
  };
  repeat_setup(run, trace, setup_rep);
  const unsigned threads = nproc();
  vscrub::CampaignOptions options;
  options.with_exhaustive().with_threads(threads);
  const CampaignKey key{design, device, 0, 99};

  const auto start = Clock::now();
  for (u64 req = 1;; ++req) {
    const auto t0 = Clock::now();
    vscrub::CampaignResult r;
    {
      ScopedSpan span("seu.campaign", 0, req);
      r = vscrub::run_campaign(*compiled[design], options);
      span.add_arg("injections", static_cast<double>(r.injections));
      span.add_arg("gang_s", r.phases.gang_s);
      span.add_arg("corrupt_s", r.phases.corrupt_s);
      span.add_arg("repair_s", r.phases.repair_s);
    }
    const auto now = Clock::now();
    run.latency_ms.push_back(1e3 * secs(t0, now));
    run.warm.push_back(0);
    run.attempted += 1;
    run.completed += 1;
    run.verdicts += r.injections;
    // Every campaign's deterministic counters are checked against the
    // reference, so they must repeat exactly; the engine figures come from
    // the first.
    add_result(run, key, r, *compiled[design], true);
    if (run.engine.campaigns == 0) run.engine.add(r, threads);
    // Start another campaign only if one as long as the last still fits.
    if (secs(start, now) + secs(t0, now) > seconds) break;
  }
  run.timed_s = secs(start, Clock::now());
  repeat_setup(run, trace, setup_rep);
  return run;
}

// ---------------------------------------------------------------------------
// Served and fabric workloads: in-process daemons on Unix sockets under the
// run's work directory.

/// A daemon plus the thread running its event loop; stopping drains it.
class Daemon {
 public:
  explicit Daemon(vscrub::ServiceConfig config,
                  std::unique_ptr<vscrub::FrameService> svc = nullptr)
      : server_(svc ? std::make_unique<vscrub::SocketServer>(std::move(config),
                                                             std::move(svc))
                    : std::make_unique<vscrub::SocketServer>(
                          std::move(config))) {
    server_->start();
    runner_ = std::thread([this] { server_->run(); });
  }
  ~Daemon() {
    server_->request_stop();
    runner_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

 private:
  std::unique_ptr<vscrub::SocketServer> server_;
  std::thread runner_;
};

std::string fresh_dir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

std::string campaign_payload(const CampaignKey& key) {
  return vscrub::JsonReport("campaign_request")
      .set_string("design", key.design)
      .set_string("device", key.device)
      .set_u64("sample", key.sample)
      .set_u64("seed", key.seed)
      .to_json();
}

unsigned served_pool_threads() { return std::max(1u, nproc() - 1); }

/// The served daemon: 2 executors, nproc-1 pool threads, a store in a fresh
/// directory.
std::unique_ptr<Daemon> start_served(const std::string& dir) {
  vscrub::ServiceConfig config;
  config.socket_path = dir + "/d.sock";
  fs::remove(config.socket_path);
  config.executors = 2;
  config.pool_threads = served_pool_threads();
  config.cache_dir = fresh_dir(dir + "/store");
  return std::make_unique<Daemon>(config);
}

struct Fleet {
  std::vector<std::unique_ptr<Daemon>> workers;
  std::unique_ptr<Daemon> coordinator;
  std::string socket;
};

/// 3 single-thread workers (spool dirs for checkpoint shipping) plus a
/// coordinator whose hub store lives in a fresh directory.
Fleet start_fleet(const std::string& dir) {
  Fleet fleet;
  vscrub::CoordinatorConfig coord;
  for (int i = 0; i < 3; ++i) {
    vscrub::ServiceConfig w;
    w.socket_path = dir + "/w" + std::to_string(i) + ".sock";
    fs::remove(w.socket_path);
    w.executors = 1;
    w.pool_threads = 1;
    w.spool_dir = fresh_dir(dir + "/spool" + std::to_string(i));
    coord.workers.push_back(w.socket_path);
    fleet.workers.push_back(std::make_unique<Daemon>(w));
  }
  fleet.socket = dir + "/coord.sock";
  fs::remove(fleet.socket);
  coord.socket_path = fleet.socket;
  coord.cache_dir = fresh_dir(dir + "/hub");
  vscrub::ServiceConfig transport;
  transport.socket_path = fleet.socket;
  fleet.coordinator = std::make_unique<Daemon>(
      transport, std::make_unique<vscrub::CoordinatorService>(coord));
  return fleet;
}

void stop_fleet(Fleet& fleet) {
  fleet.coordinator.reset();  // drain the coordinator before its workers
  fleet.workers.clear();
}

/// Submits one tiny campaign per design so the process-wide compile memo is
/// warm before timing (the memo is static: it can only be warmed once).
void warm_compile_memo(vscrub::ServiceSession& session,
                       const std::vector<std::string>& designs) {
  for (const auto& d : designs) {
    const vscrub::Frame f = session.call(
        vscrub::FrameKind::kCampaign,
        campaign_payload({d, "campaign", 64, kWarmupSeed}));
    if (f.kind != vscrub::FrameKind::kResult) {
      throw std::runtime_error("memo warm-up failed: " + f.payload);
    }
  }
}

/// Connects with a short retry: the event loop thread may not be polling
/// yet when the session dials.
vscrub::ServiceSession connect(const std::string& socket) {
  for (int attempt = 0;; ++attempt) {
    try {
      return vscrub::ServiceSession::connect_unix(socket);
    } catch (const std::exception&) {
      if (attempt >= 50) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

/// Replays one campaign per distinct design of the run one-shot, with the
/// daemon's gang width on as many threads as one daemon's compute pool, so a
/// traced served/fabric run can split its compute into engine phases (served
/// reports carry no phase breakdown). Traced runs only.
void replay_engine(Run& run, const std::vector<CampaignKey>& keys,
                   unsigned threads) {
  std::map<std::string, bool> seen;
  for (const CampaignKey& key : keys) {
    if (seen[key.design]) continue;
    seen[key.design] = true;
    const auto design = compile_design(key.design, key.device);
    vscrub::CampaignOptions options;
    options.with_sample(key.sample, key.seed).with_threads(threads);
    options.injection.with_gang_width(vscrub::served_gang_width_default());
    vscrub::CampaignResult r;
    {
      ScopedSpan span("seu.replay", 0, 0);
      r = vscrub::run_campaign(*design, options);
    }
    add_result(run, key, r, *design, false);
    run.engine.add(r, threads);
  }
}

struct Outcome {
  CampaignKey key;
  bool ok = false;
  double latency_ms = 0;
  double wall_ms = 0;
  u64 injections = 0;
  u64 cache_hits = 0;
  u64 remote_hits = 0;
  u64 ranges = 0;
  u64 reassignments = 0;
  u64 workers_lost = 0;
  vscrub::FlatJson report;
};

/// Waits for one campaign reply and turns it into an Outcome. `due` is when
/// the request was due to be sent (open loop) or was sent (closed loop).
Outcome finish(vscrub::JobHandle& handle, const CampaignKey& key,
               Clock::time_point due, u64 span_parent, u64 req,
               const char* inner_span) {
  Outcome o;
  o.key = key;
  vscrub::Frame reply;
  try {
    reply = handle.wait();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: request %s lost: %s\n", key.id().c_str(),
                 e.what());
    return o;
  }
  const auto done = Clock::now();
  o.latency_ms = 1e3 * secs(due, done);
  if (reply.kind != vscrub::FrameKind::kResult) {
    std::fprintf(stderr, "perfbench: request %s got %s: %s\n",
                 key.id().c_str(), vscrub::frame_kind_name(reply.kind),
                 reply.payload.c_str());
    return o;
  }
  o.report = vscrub::FlatJson::parse(reply.payload);
  o.ok = !o.report.get_bool("interrupted");
  o.wall_ms = 1e3 * o.report.get_double("wall_seconds");
  o.injections = o.report.get_u64("injections");
  o.cache_hits = o.report.get_u64("cache_hits");
  o.remote_hits = o.report.get_u64("remote_hits");
  o.ranges = o.report.get_u64("fabric_ranges");
  o.reassignments = o.report.get_u64("fabric_reassignments");
  o.workers_lost = o.report.get_u64("fabric_workers_lost");
  derived_span(inner_span, span_parent, req,
               std::chrono::duration<double, std::micro>(done - kEpoch)
                   .count(),
               1e3 * o.wall_ms);
  return o;
}

void fold(Run& run, const Outcome& o) {
  run.attempted += 1;
  if (!o.ok) {
    run.failed += 1;
    return;
  }
  run.completed += 1;
  run.verdicts += o.injections;
  run.cache_hits += o.cache_hits;
  run.remote_hits += o.remote_hits;
  run.latency_ms.push_back(o.latency_ms);
  run.hop_ms.push_back(o.latency_ms - o.wall_ms);
  run.warm.push_back(o.injections > 0 &&
                             o.cache_hits + o.remote_hits == o.injections
                         ? 1
                         : 0);
  run.ranges_per_campaign = std::max(run.ranges_per_campaign, o.ranges);
  run.reassignments += o.reassignments;
  run.workers_lost += o.workers_lost;
  add_report(run, o.key, o.report);
}

std::string stats_members(const vscrub::Frame& f) {
  const vscrub::FlatJson stats = vscrub::FlatJson::parse(f.payload);
  JsonLine out;
  for (const auto& [k, v] : stats.fields()) {
    if (!v.empty() && (std::isdigit(static_cast<unsigned char>(v[0])) ||
                       v[0] == '-')) {
      out.raw(k, v);
    }
  }
  return out.str();
}

/// served_mixed: an open-loop schedule of sampled campaigns over the six
/// served designs plus interleaved pings, one ServiceSession.
Run run_served(const std::string& dir, u64 seed, double seconds, bool trace) {
  Run run;
  const auto setup_rep = [&](u64 parent) {
    setup_designs(run, kServedDesigns, "campaign", parent);
    const auto t0 = Clock::now();
    {
      ScopedSpan span("svc.daemon_start", parent, 0);
      auto d = start_served(dir + "/setup");
      auto session = connect(dir + "/setup/d.sock");
      session.ping();
    }
    run.daemon_ms.push_back(1e3 * secs(t0, Clock::now()));
  };
  repeat_setup(run, trace, setup_rep);
  {
    auto d = start_served(dir + "/setup");
    auto session = connect(dir + "/setup/d.sock");
    const auto t0 = Clock::now();
    ScopedSpan span("svc.memo_warm", 0, 0);
    warm_compile_memo(session, kServedDesigns);
    run.memo_warm_ms = 1e3 * secs(t0, Clock::now());
  }

  // The schedule. A fixed count of campaigns (rate x seconds), one due at a
  // uniform point of each of n equal slots of the window (jittered
  // arrivals), so the offered load is identical in every run. Exactly 30% of
  // the campaigns repeat an earlier one that was due at least 3 s before
  // (a store read); the rest are distinct pool entries (gang work plus
  // store writes).
  vscrub::Rng rng(seed);
  const std::size_t n = std::max<std::size_t>(
      10, static_cast<std::size_t>(kServedRate * seconds + 0.5));
  std::vector<double> due(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = (static_cast<double>(i) + rng.uniform01()) * seconds /
             static_cast<double>(n);
  }
  // Fresh campaigns cycle through every (design, sample) pair in a shuffled
  // order, each pair taking its seeds from its own shuffled pool, so every
  // run offers the same mix of designs and sizes.
  std::vector<std::pair<std::string, std::size_t>> pairs;
  for (const auto& d : kServedDesigns) {
    for (std::size_t i = 0; i < kServedSamples.size(); ++i) {
      pairs.emplace_back(d, i);
    }
  }
  shuffle(pairs, rng);
  std::vector<std::vector<u64>> pair_seeds(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    for (u64 k = 1; k <= kServedSeedPool; ++k) {
      pair_seeds[p].push_back(served_seed(pairs[p].second, k));
    }
    shuffle(pair_seeds[p], rng);
  }
  std::vector<CampaignKey> fresh;
  for (u64 round = 0; round < kServedSeedPool; ++round) {
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      fresh.push_back({pairs[p].first, "campaign",
                       kServedSamples[pairs[p].second], pair_seeds[p][round]});
    }
  }
  std::vector<CampaignKey> plan(n);
  std::vector<bool> repeat(n, false);
  const std::size_t repeats = n * 3 / 10;
  {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    shuffle(order, rng);
    std::size_t marked = 0;
    for (std::size_t i : order) {
      if (marked == repeats) break;
      if (due[i] >= 3.0 && due[0] <= due[i] - 3.0) {
        repeat[i] = true;
        ++marked;
      }
    }
  }
  // Repeats alternate between the two sample sizes, so the verdict count of
  // a run does not depend on which originals the seed picks.
  std::size_t next_fresh = 0, repeats_done = 0;
  std::vector<std::size_t> originals;
  for (std::size_t i = 0; i < n; ++i) {
    if (repeat[i]) {
      const u64 size = kServedSamples[repeats_done % kServedSamples.size()];
      std::vector<std::size_t> eligible, sized;
      for (std::size_t j : originals) {
        if (due[j] > due[i] - 3.0) continue;
        eligible.push_back(j);
        if (plan[j].sample == size) sized.push_back(j);
      }
      const auto& pick = sized.empty() ? eligible : sized;
      if (!pick.empty()) {
        plan[i] = plan[pick[rng.uniform(pick.size())]];
        ++repeats_done;
        continue;
      }
      repeat[i] = false;
    }
    plan[i] = fresh[next_fresh++ % fresh.size()];
    originals.push_back(i);
  }
  const std::size_t pings =
      static_cast<std::size_t>(kServedPingRate * seconds + 0.5);
  std::vector<double> ping_due(pings);
  for (double& t : ping_due) t = rng.uniform01() * seconds;
  std::sort(ping_due.begin(), ping_due.end());

  auto daemon = start_served(dir + "/timed");
  auto session = connect(dir + "/timed/d.sock");

  // Campaign replies are collected by a fixed set of waiter threads, each
  // blocking on the oldest unclaimed handle, so every completion is timed as
  // it happens while fewer than kWaiters campaigns are in flight (and the
  // harness adds no thread per request to the measured process). Pings are
  // answered inline by the event loop and are timed on the generator thread.
  struct Pending {
    vscrub::JobHandle handle;
    CampaignKey key;
    Clock::time_point due;
    std::shared_ptr<ScopedSpan> span;
    u64 req = 0;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool closed = false;
  std::vector<Outcome> outcomes;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      for (;;) {
        Pending p;
        {
          std::unique_lock lock(mu);
          cv.wait(lock, [&] { return closed || !pending.empty(); });
          if (pending.empty()) return;
          p = std::move(pending.front());
          pending.pop_front();
        }
        Outcome o = finish(p.handle, p.key, p.due, p.span->id(), p.req,
                           "seu.campaign");
        p.span.reset();
        std::lock_guard lock(mu);
        outcomes.push_back(std::move(o));
      }
    });
  }
  u64 ping_failed = 0;
  const auto start = Clock::now();
  std::size_t ci = 0, pi = 0;
  while (ci < n || pi < pings) {
    const bool campaign =
        pi >= pings || (ci < n && due[ci] <= ping_due[pi]);
    const double at = campaign ? due[ci] : ping_due[pi];
    const auto when =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(at));
    std::this_thread::sleep_until(when);
    run.gen_lag_ms.push_back(1e3 * secs(when, Clock::now()));
    if (campaign) {
      Pending p;
      p.key = plan[ci];
      p.req = ++ci;
      p.due = when;
      p.span = std::make_shared<ScopedSpan>("svc.request", 0, p.req);
      p.handle = session.submit(vscrub::FrameKind::kCampaign,
                                campaign_payload(p.key));
      {
        std::lock_guard lock(mu);
        pending.push_back(std::move(p));
      }
      cv.notify_one();
    } else {
      ++pi;
      const auto sent = Clock::now();
      bool ok = false;
      try {
        ok = session.ping().kind == vscrub::FrameKind::kResult;
      } catch (const std::exception&) {
      }
      if (ok) {
        run.ping_us.push_back(1e6 * secs(sent, Clock::now()));
      } else {
        ++ping_failed;
      }
    }
  }
  {
    std::lock_guard lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : waiters) t.join();
  run.timed_s = secs(start, Clock::now());
  for (const Outcome& o : outcomes) fold(run, o);
  run.attempted += pings;
  run.failed += ping_failed;
  run.stats = stats_members(session.stats());
  repeat_setup(run, trace, setup_rep);
  if (trace) replay_engine(run, plan, served_pool_threads());
  return run;
}

/// fabric_3w: a closed loop over one ServiceSession to the coordinator: new
/// seeds (cold, published to the hub) in a --seed-shuffled order, each
/// followed by two repeats of it (remote-tier hits), for --seconds.
Run run_fabric(const std::string& dir, u64 seed, double seconds, bool trace) {
  Run run;
  const auto setup_rep = [&](u64 parent) {
    setup_designs(run, {kFabricDesign}, "campaign", parent);
    const auto t0 = Clock::now();
    {
      ScopedSpan span("coord.fleet_start", parent, 0);
      Fleet fleet = start_fleet(dir + "/setup");
      auto session = connect(fleet.socket);
      session.ping();
      stop_fleet(fleet);
    }
    run.daemon_ms.push_back(1e3 * secs(t0, Clock::now()));
  };
  repeat_setup(run, trace, setup_rep);
  {
    Fleet fleet = start_fleet(dir + "/setup");
    auto session = connect(fleet.socket);
    const auto t0 = Clock::now();
    {
      ScopedSpan span("coord.memo_warm", 0, 0);
      warm_compile_memo(session, {kFabricDesign});
    }
    run.memo_warm_ms = 1e3 * secs(t0, Clock::now());
    stop_fleet(fleet);
  }

  // Every pool seed's digest is deterministic, so how many seeds a run
  // reaches may follow the host's speed; their order follows --seed only.
  std::vector<u64> seeds;
  for (u64 s = 1; s <= kFabricSeedPool; ++s) seeds.push_back(s);
  vscrub::Rng rng(seed);
  shuffle(seeds, rng);
  std::vector<CampaignKey> cold;
  for (u64 s : seeds) cold.push_back({kFabricDesign, "campaign", kFabricSample, s});

  Fleet fleet = start_fleet(dir + "/timed");
  auto session = connect(fleet.socket);
  const auto start = Clock::now();
  u64 req = 0;
  for (const CampaignKey& key : cold) {
    const auto t0 = Clock::now();
    for (int i = 0; i < 3; ++i) {
      ++req;
      const auto sent = Clock::now();
      ScopedSpan span("coord.request", 0, req);
      auto handle =
          session.submit(vscrub::FrameKind::kCampaign, campaign_payload(key));
      fold(run, finish(handle, key, sent, span.id(), req, "coord.fabric"));
    }
    // Start another seed only if one as long as the last still fits.
    const auto now = Clock::now();
    if (secs(start, now) + secs(t0, now) > seconds) break;
  }
  run.timed_s = secs(start, Clock::now());
  run.stats = stats_members(session.stats());
  // Worker busy time from each worker's own kStats latency histogram.
  for (std::size_t i = 0; i < fleet.workers.size(); ++i) {
    auto w = connect(dir + "/timed/w" + std::to_string(i) + ".sock");
    const vscrub::FlatJson s = vscrub::FlatJson::parse(w.stats().payload);
    run.worker_busy_s += s.get_double("request_latency_ms_count") *
                         s.get_double("request_latency_ms_mean") / 1e3;
  }
  stop_fleet(fleet);
  repeat_setup(run, trace, setup_rep);
  if (trace) replay_engine(run, cold, 1);  // each worker has one pool thread
  return run;
}

// ---------------------------------------------------------------------------

/// The CPU's brand string from CPUID (no file read), "unknown" elsewhere.
std::string cpu_model() {
  std::string cpu;
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    cpu.assign(reinterpret_cast<const char*>(regs), sizeof regs);
    cpu.resize(cpu.find('\0') == std::string::npos ? cpu.size()
                                                    : cpu.find('\0'));
  }
#endif
  while (!cpu.empty() && cpu.back() == ' ') cpu.pop_back();
  for (char& c : cpu) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) c = ' ';
  }
  return cpu.empty() ? "unknown" : cpu;
}

std::string host_json() {
  const std::string cpu = cpu_model();
  return JsonLine()
      .n("nproc", nproc())
      .s("cpu", cpu)
      .s("gang_isa", vscrub::simd_isa_name(
                         vscrub::resolve_simd_isa(vscrub::SimdIsa::kAuto)))
      .n("served_gang_width", vscrub::served_gang_width_default())
      .str();
}

std::string run_json(const std::string& workload, const Run& r) {
  return JsonLine()
      .s("workload", workload)
      .raw("host", host_json())
      .list("setup_s", r.setup_s)
      .list("setup_traced", r.setup_traced)
      .list("compile_ms", r.compile_ms)
      .list("golden_ms", r.golden_ms)
      .list("keyplan_ms", r.keyplan_ms)
      .list("daemon_ms", r.daemon_ms)
      .n("memo_warm_ms", r.memo_warm_ms)
      .n("timed_s", r.timed_s)
      .n("verdicts", static_cast<double>(r.verdicts))
      .n("attempted", static_cast<double>(r.attempted))
      .n("failed", static_cast<double>(r.failed))
      .n("completed", static_cast<double>(r.completed))
      .list("latency_ms", r.latency_ms)
      .list("warm", r.warm)
      .list("hop_ms", r.hop_ms)
      .list("ping_us", r.ping_us)
      .list("gen_lag_ms", r.gen_lag_ms)
      .n("cache_hits", static_cast<double>(r.cache_hits))
      .n("remote_hits", static_cast<double>(r.remote_hits))
      .n("ranges_per_campaign", static_cast<double>(r.ranges_per_campaign))
      .n("reassignments", static_cast<double>(r.reassignments))
      .n("workers_lost", static_cast<double>(r.workers_lost))
      .n("worker_busy_s", r.worker_busy_s)
      .raw("engine", r.engine.campaigns ? r.engine.json() : "null")
      .raw("stats", r.stats.empty() ? "null" : r.stats)
      .raw("results", results_json(r.results))
      .n("spans", static_cast<double>(g_tracer.size()))
      .n("peak_rss_mb", peak_rss_mb())
      .str();
}

int make_reference(const std::string& path) {
  std::vector<ResultRow> rows;
  for (const CampaignKey& key : reference_pool()) {
    const auto design = compile_design(key.design, key.device);
    vscrub::CampaignOptions options;
    if (key.sample == 0) {
      options.with_exhaustive();
    } else {
      options.with_sample(key.sample, key.seed);
    }
    const vscrub::CampaignResult r = vscrub::run_campaign(*design, options);
    Run sink;
    add_result(sink, key, r, *design, key.sample == 0);
    rows.push_back(sink.results.back());
    std::fprintf(stderr, "reference %s: %llu injections\n", key.id().c_str(),
                 static_cast<unsigned long long>(r.injections));
  }
  std::ofstream out(path);
  out << "{\"generated_by\":\"perfbench_driver --make-reference\","
      << "\"rows\":" << results_json(rows) << "}\n";
  return 0;
}

/// Runs one sampled campaign twice, on one thread and on four, and prints
/// both digests. A verdict is meant to be a pure function of the flipped bit,
/// so they should agree; README.md, "Known defect", names a sample where they
/// do not.
int digest_probe(const std::string& design_name, u64 sample, u64 seed) {
  const auto design = compile_design(design_name, "campaign");
  for (const unsigned threads : {1u, 4u}) {
    vscrub::CampaignOptions options;
    options.with_sample(sample, seed).with_threads(threads);
    const vscrub::CampaignResult r = vscrub::run_campaign(*design, options);
    std::printf("%s sample %llu seed %llu, %u thread(s): failures %llu digest %llu\n",
                design_name.c_str(), static_cast<unsigned long long>(sample),
                static_cast<unsigned long long>(seed), threads,
                static_cast<unsigned long long>(r.failures),
                static_cast<unsigned long long>(r.sensitive_digest(*design)));
  }
  return 0;
}

int main_impl(int argc, char** argv) {
  std::string workload, workdir, trace_out, reference;
  u64 seed = 1;
  double seconds = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") workload = value();
    else if (a == "--seed") seed = std::stoull(value());
    else if (a == "--seconds") seconds = std::stod(value());
    else if (a == "--workdir") workdir = value();
    else if (a == "--trace-out") trace_out = value();
    else if (a == "--make-reference") reference = value();
    else if (a == "--digest-probe" && i + 3 < argc)
      return digest_probe(argv[i + 1], std::stoull(argv[i + 2]),
                          std::stoull(argv[i + 3]));
    else throw std::runtime_error("unknown argument " + a);
  }
  if (!reference.empty()) return make_reference(reference);

  using Workload = Run (*)(const std::string&, u64, double, bool);
  const std::map<std::string, Workload> workloads = {
      {"xcv1000_exhaustive",
       [](const std::string&, u64, double s, bool t) {
         return run_oneshot("lfsrmult", "xcv1000", s, t);
       }},
      {"served_mixed", run_served},
      {"fabric_3w", run_fabric},
  };
  const auto it = workloads.find(workload);
  if (it == workloads.end()) {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  // The work directory is created here and removed at exit, so it must not
  // exist yet: the driver never deletes a directory it did not make.
  if (workdir.empty()) throw std::runtime_error("--workdir is required");
  if (fs::exists(workdir)) {
    throw std::runtime_error("--workdir " + workdir + " already exists");
  }
  fs::create_directories(workdir);

  const bool trace = !trace_out.empty();
  g_tracer.set_on(trace);
  const Run run = it->second(workdir, seed, seconds, trace);
  fs::remove_all(workdir);
  if (trace) g_tracer.write(trace_out);
  std::printf("%s\n", run_json(workload, run).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
