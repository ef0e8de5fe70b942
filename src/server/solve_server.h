// SolveServer: sweep-as-a-service over the simulated Cell chip.
//
// PR 5's headline finding -- at paper cube sizes the sweep is
// dependency-chain-bound and leaves most of the chip slack -- turns
// deck_runner's one-shot workflow into a multi-tenant question: what
// throughput does one chip sustain when several solves share it? This
// server answers it end to end:
//
//   * a job queue accepting sweep decks and stencil specs (the two
//     workload grammars), each parsed, linted and solved by JobInput --
//     the same code a solo deck_runner run goes through;
//   * admission control that rejects malformed or over-budget inputs
//     with a typed AdmissionError *before* anything is scheduled,
//     reusing the static linters (analysis::lint_deck / lint_stencil)
//     so admission and runtime can never disagree about what is legal;
//   * N tenant workers solving concurrently, sharing one host
//     util::ThreadPool (the functional kernels) and one SpeAllocator
//     (the simulated chip: runs claim SPEs worst-fit and yield them
//     under pressure at batch boundaries);
//   * a PlanCache keyed by deck fingerprint, so resubmitted decks skip
//     the quadrature build and the trace-scheduled kernel calibration
//     (byte-identical reports either way, pinned by tests).
//
// Host concurrency only ever decides *which SPEs* a tenant holds and
// *when in host time* work runs -- each tenant's simulated clocks
// advance only with its own workload, and the physics is bitwise
// independent of tenancy (pinned by tests).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "analysis/diagnostics.h"
#include "core/config.h"
#include "core/flight_recorder.h"
#include "core/job_trace.h"
#include "core/metrics_registry.h"
#include "core/report.h"
#include "core/spe_allocator.h"
#include "server/plan_cache.h"
#include "sweep/deck.h"
#include "util/lock_ranks.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "workloads/stencil/spec.h"

namespace cellsweep::core {

enum class JobKind : std::uint8_t { kSweep, kStencil };
const char* job_kind_name(JobKind k);

/// Thrown by submit() when a job is rejected at admission; the typed
/// reason lets clients (and tests) react to the cause instead of
/// pattern-matching message text.
class AdmissionError : public std::runtime_error {
 public:
  enum class Reason : std::uint8_t {
    kParse,       ///< deck / spec text does not parse
    kLint,        ///< static linter found errors
    kLsBudget,    ///< simulated-LS footprint exceeds the server budget
    kGridBudget,  ///< grid cells exceed the server budget
    kQueueFull,   ///< queue_limit pending jobs already
    kShutdown,    ///< stop() was called; the server takes no new work
  };

  AdmissionError(Reason reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}
  Reason reason() const noexcept { return reason_; }

 private:
  Reason reason_;
};

const char* admission_reason_name(AdmissionError::Reason r);

struct ServerConfig {
  /// Concurrent tenant workers (clamped to >= 1). Each runs one solve
  /// at a time against the shared chip.
  int tenants = 2;
  /// Machine switches every job runs under (the Figure 5 ladder).
  OptimizationStage stage = OptimizationStage::kSpeLsPoke;
  /// Pending jobs admitted before submit() rejects with kQueueFull.
  std::size_t queue_limit = 64;
  /// Admission budget on the per-SPE simulated-LS footprint in bytes:
  /// the workload's LsPlacement::footprint (resident regions + buffers
  /// x staging buffer, the same placement the run allocates; code
  /// reserve excluded). 0 = no extra budget beyond the linter's 256 KB
  /// capacity check.
  std::size_t ls_budget_bytes = 0;
  /// Admission budget on grid cells; 0 = unlimited.
  long long grid_cell_budget = 0;
  /// Width of the shared host pool (functional kernels; clamped >= 1).
  /// Purely host-side: results are bitwise identical for any value.
  int host_threads = 1;
  /// Per-tenant QoS weights, indexed by tenant worker id; tenants past
  /// the end (or with entries < 1) run at the default weight 1. A
  /// weight-w tenant's SPE fair share under pressure scales with w
  /// (see SpeAllocator), and a running lower-weight job yields SPEs at
  /// chunk granularity when a higher-weight claim is blocked. Empty
  /// (the default) keeps every tenant equal -- byte-identical to the
  /// pre-QoS build.
  std::vector<int> tenant_weights;
  /// Per-tenant hard caps on SPEs held at once, same indexing; entries
  /// <= 0 (and tenants past the end) are uncapped.
  std::vector<int> tenant_quotas;
  /// Fault plan applied to every job's simulated machine (SPE deaths,
  /// DMA flakiness -- see sim::parse_fault_spec). Default: no faults.
  sim::FaultSpec faults;
  /// Plan-cache entry bound (FIFO eviction when full); 0 = unbounded.
  std::size_t plan_cache_capacity = 0;
  /// Flight-recorder ring size (events kept for post-mortem dumps).
  std::size_t flight_recorder_capacity = FlightRecorder::kDefaultCapacity;
  /// When non-empty, notable events (job failure, queue-full storm,
  /// fault failover) dump the flight-recorder window to
  /// "<path>-<wall_ms>-<seq>.json". Empty: no files are written (the
  /// ring still records and is readable in-process).
  std::string flight_recorder_path;
};

struct JobRequest {
  JobKind kind = JobKind::kSweep;
  /// Label in results; defaults to "job-<id>".
  std::string name;
  /// Deck (sweep) or spec (stencil) source text.
  std::string text;
  RunMode mode = RunMode::kTraceDriven;
  /// Queue deadline in host milliseconds from admission; 0 = none. A
  /// job still queued when its deadline passes is cancelled at dequeue
  /// (published with a partial trace, counted in Stats::cancelled)
  /// instead of running late. The deadline never interrupts a job that
  /// started in time -- use cancel() for that.
  std::int64_t deadline_ms = 0;
};

struct JobResult {
  int id = 0;
  std::string name;
  JobKind kind = JobKind::kSweep;
  /// False: the solve itself failed (admission failures never get
  /// here -- submit() throws instead); `error` has the story.
  bool ok = false;
  std::string error;
  /// The machine-side report, exactly what a solo deck_runner run of
  /// the same input produces (a stencil job's StencilReport::run).
  RunReport report;
  // Stencil functional results (kFunctional stencil jobs only).
  double checksum = 0;
  double residual = 0;
  /// This job reused a cached plan (quadrature + kernel calibration).
  bool plan_cache_hit = false;
  /// The job was cancelled (cancel(), deadline expiry, or stop())
  /// rather than failing on its own; ok is false and `error` starts
  /// with "cancelled:".
  bool cancelled = false;
  /// Host-time lifecycle stamps (admission -> queue -> plan -> claim
  /// wait -> run -> report); partial (complete == false) for cancelled
  /// jobs -- a mid-run cancellation still stamps run_end_s, so the
  /// spans it did reach stay well-ordered.
  JobTrace trace;
};

/// One parsed input of either grammar -- a Sweep3D deck or a stencil
/// spec -- owning every per-workload branch of the job path: parse,
/// lint, admission sizing, plan build and run. SolveServer admission
/// and workers and deck_runner's run, lint and serve all go through
/// it, so a solo run and a served run of one input execute the same
/// code.
class JobInput {
 public:
  /// Parses @p text in @p kind's grammar; @p source names the input in
  /// diagnostics. Throws AdmissionError(kParse) on malformed input.
  JobInput(JobKind kind, const std::string& text,
           const std::string& source = "<string>");
  /// The grammar a file name selects: ".stencil" is a stencil spec,
  /// anything else a Sweep3D deck.
  static JobKind kind_for(const std::string& path) {
    return path.ends_with(".stencil") ? JobKind::kStencil : JobKind::kSweep;
  }

  /// The parsed input: exactly one of the two is non-null.
  const sweep::Deck* deck() const noexcept {
    return std::get_if<sweep::Deck>(&input_);
  }
  const stencil::StencilSpec* spec() const noexcept {
    return std::get_if<stencil::StencilSpec>(&input_);
  }
  /// Where the input came from: a file path, or "<string>".
  const std::string& source() const noexcept;

  /// lint_deck (under the deck's own sweep settings) or lint_stencil.
  analysis::Diagnostics lint(CellSweepConfig cfg) const;
  /// Grid cells, and the per-SPE simulated-LS footprint under @p cfg
  /// (the placement the run allocates; code reserve excluded): what
  /// admission budgets.
  long long cells() const;
  std::size_t ls_footprint(const CellSweepConfig& cfg) const;
  /// The pure planning artifacts the plan cache keeps: a deck's LQn
  /// tables and a cost model warmed for every chunk shape it can
  /// produce (nlines 1..kBundleLines x fixup on/off); nothing for a
  /// stencil spec, whose block plans are cheap per-run arithmetic.
  std::shared_ptr<const CachedPlan> plan(const CellSweepConfig& cfg) const;
  /// One CellSweep3D::run (under the deck's sweep settings) or
  /// CellStencil::run under @p cfg; the functional physics runs on
  /// @p threads host threads, or on @p pool when one is given. Fills
  /// report, checksum and residual, and sets ok.
  JobResult run(CellSweepConfig cfg, RunMode mode, int threads = 1,
                util::ThreadPool* pool = nullptr) const;

 private:
  std::variant<sweep::Deck, stencil::StencilSpec> input_;
};

class SolveServer {
 public:
  struct Stats {
    std::uint64_t submitted = 0;  ///< admitted into the queue
    std::uint64_t completed = 0;  ///< finished ok
    std::uint64_t failed = 0;     ///< finished with an error (not cancelled)
    std::uint64_t rejected = 0;   ///< refused at admission
    /// Cancelled before completing: cancel(), deadline expiry or
    /// stop(). Disjoint from failed -- every admitted job lands in
    /// exactly one of completed / failed / cancelled, so
    /// submitted == completed + failed + cancelled once drained (the
    /// conservation law the soak test pins).
    std::uint64_t cancelled = 0;
  };

  explicit SolveServer(const ServerConfig& cfg = {});
  /// Drains the queue (pending jobs still run) and joins the workers.
  ~SolveServer();

  SolveServer(const SolveServer&) = delete;
  SolveServer& operator=(const SolveServer&) = delete;

  /// Admission-checks @p req (parse, lint, budgets, queue depth) and
  /// enqueues it. Returns the job id; throws AdmissionError on
  /// rejection -- nothing rejected ever reaches a worker.
  int submit(const JobRequest& req) EXCLUDES(mu_);

  /// Blocks until job @p id completes; throws std::invalid_argument
  /// for ids submit() never returned.
  JobResult wait(int id) EXCLUDES(mu_);

  /// Blocks until every submitted job has completed; returns all
  /// results in submission order.
  std::vector<JobResult> drain() EXCLUDES(mu_);

  /// Cancels job @p id. A still-queued job is removed and published
  /// immediately (cancelled result, partial trace, flight-recorder
  /// post-mortem dumped before the result is visible). A running job
  /// gets its cooperative flag set: the streaming pipeline aborts
  /// between waves (chunk granularity, never mid-wave), the partial
  /// result stamps run_end_s, and the same dump-before-publish order
  /// holds. Returns false when the job already finished (or the id was
  /// never issued) -- cancel() and completion racing is benign, the
  /// published result tells which won.
  bool cancel(int id) EXCLUDES(mu_);

  /// Early shutdown: stops accepting work (submit() then rejects with
  /// kShutdown), cancels every still-queued job -- each is published
  /// as a cancelled JobResult carrying its partial lifecycle trace
  /// (complete == false) and counted in Stats::cancelled only (not
  /// failed) -- lets in-flight jobs finish, and joins the workers.
  /// Idempotent; the destructor afterwards is a no-op. Without stop(),
  /// destruction keeps the original drain semantics (queued jobs still
  /// run).
  void stop() EXCLUDES(mu_);

  Stats stats() const EXCLUDES(mu_);
  PlanCache::Stats plan_cache_stats() const { return cache_.stats(); }
  SpeAllocator::Stats allocator_stats() const { return alloc_.stats(); }
  util::ThreadPool::Telemetry pool_telemetry() const {
    return pool_.telemetry();
  }
  double pool_utilization() const { return pool_.utilization(); }
  const ServerConfig& config() const noexcept { return cfg_; }

  /// The server's host clock (t=0 at construction): the time base of
  /// every JobTrace stamp, metrics series sample and flight-recorder
  /// event.
  const HostClock& clock() const noexcept { return clock_; }

  /// Deterministic combined metrics snapshot: the live registry
  /// (lifecycle counters, per-tenant latency histograms, queue-depth
  /// series) plus families derived from the allocator, plan-cache and
  /// host-pool stats at call time. Families sorted by name.
  MetricsRegistry::Snapshot metrics_snapshot() const EXCLUDES(mu_);

  /// Every finished (or cancelled) job with its lifecycle trace, in
  /// submission order -- the input to write_job_trace_events().
  std::vector<TracedJob> traced_jobs() const EXCLUDES(mu_);

  const FlightRecorder& flight_recorder() const noexcept { return recorder_; }

 private:
  struct Job {
    int id = 0;
    JobRequest req;
    std::optional<JobInput> input;  ///< parsed at admission
    JobTrace trace;
    /// Cooperative cancellation flag, created at submit() and shared
    /// with the cancel_flags_ registry so cancel() can reach a job the
    /// worker already dequeued. The pipeline polls it between waves.
    std::shared_ptr<std::atomic<bool>> cancel_flag;
  };

  /// Parse + lint + budget checks; fills job.input. Throws
  /// AdmissionError. Runs entirely outside mu_: admission work never
  /// blocks the queue.
  void admit(Job& job) const EXCLUDES(mu_);
  void worker_loop(int tenant) EXCLUDES(mu_);
  /// Joins the tenant workers exactly once (stop() and the destructor
  /// both funnel here).
  void join_workers() EXCLUDES(mu_);
  /// Writes the flight-recorder window to the configured dump path
  /// (no-op when flight_recorder_path is empty) and counts the dump.
  void dump_flight(const char* trigger) EXCLUDES(mu_);
  /// Publishes @p job as a cancelled result (reason-labelled counter,
  /// "cancel" lifecycle event, optional flight dump -- always *before*
  /// the result becomes visible) and counts it in Stats::cancelled.
  void publish_cancelled(Job&& job, const std::string& why,
                         const char* reason, bool dump) EXCLUDES(mu_);
  /// Configured QoS weight (>= 1) / SPE quota (0 = uncapped) of a
  /// tenant worker.
  int tenant_weight(int tenant) const noexcept;
  int tenant_quota(int tenant) const noexcept;
  /// Drops job @p id's entry from the cancel-flag registry (after its
  /// result is published; cancel() then reports "already finished").
  void unregister_cancel_flag(int id) EXCLUDES(cancel_mu_);
  /// Runs one job to completion: plan-cache lookup (building and
  /// inserting on a miss), then JobInput::run on the shared pool. mu_
  /// is never held here: a solve may take seconds and claims SPEs /
  /// the host pool on its own locks.
  JobResult run_job(Job& job) EXCLUDES(mu_);
  /// base_ plus the job's SPE claim: the shared allocator, its
  /// tenant's QoS weight and quota, and its cancel flag.
  CellSweepConfig job_config(const Job& job);

  ServerConfig cfg_;
  CellSweepConfig base_;  ///< from_stage(cfg_.stage), + cfg_.faults
  util::ThreadPool pool_;
  SpeAllocator alloc_;
  PlanCache cache_;

  // Telemetry: all observation-only (nothing below feeds a scheduling
  // or admission decision), all on internal locks ranked above mu_, so
  // recording is legal from any server code path.
  HostClock clock_;
  MetricsRegistry metrics_;
  FlightRecorder recorder_;
  std::atomic<int> dump_seq_{0};  ///< flight-dump file suffix

  /// Guards the job queue, the result map and the server stats -- the
  /// only state tenant workers and clients share directly. Jobs run
  /// outside it; the only lock ever acquired while it is held is
  /// cancel_mu_ (rank-increasing, declared in lock_ranks.h), so it
  /// cannot participate in a deadlock cycle.
  mutable util::Mutex mu_{util::lockrank::kSolveServer, "SolveServer::mu_"};
  util::CondVar cv_queue_;  ///< workers wait on mu_ for jobs
  util::CondVar cv_done_;   ///< clients wait on mu_ for results
  std::deque<Job> queue_ GUARDED_BY(mu_);
  std::map<int, JobResult> done_ GUARDED_BY(mu_);
  int next_id_ GUARDED_BY(mu_) = 1;
  bool stopping_ GUARDED_BY(mu_) = false;
  bool joined_ GUARDED_BY(mu_) = false;  ///< workers already joined
  Stats stats_ GUARDED_BY(mu_);

  /// Guards the job-id -> cancel-flag registry, so cancel() can find a
  /// running job's flag without touching the queue lock. Ranked after
  /// mu_: submit() registers the flag while holding mu_ (the one
  /// declared nesting); every other path takes the two one at a time.
  mutable util::Mutex cancel_mu_{util::lockrank::kSolveServerCancel,
                                 "SolveServer::cancel_mu_"};
  std::map<int, std::shared_ptr<std::atomic<bool>>> cancel_flags_
      GUARDED_BY(cancel_mu_);

  std::vector<std::thread> workers_;
};

/// Writes the serve-mode metrics document: {"schema":
/// "cellsweep-metrics-v4", "server": {"stats": ..., "plan_cache": ...,
/// "spe_allocator": ..., "host_pool": ..., "flight_recorder": ...,
/// "families": [...]}} -- the server-side sibling of
/// write_metrics_json's solo-run object (whose "server" key is null).
void write_server_metrics_json(std::ostream& os, const SolveServer& server);

}  // namespace cellsweep::core
