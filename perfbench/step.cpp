// Training-step program of the perfbench benchmark.
//
// Runs one workload (see README.md beside this file) on the functional
// substrate — real rank threads, real floats — as a closed loop: each step
// starts when the previous one returns, the way core::Trainer::run drives it
// with its defaults. It times only calls into public functions of the
// modules (DataReader::next, DistributedSolver::train_iteration,
// SgdSolver::{step,apply_update}, Net::{forward_layer,backward_layer} and the
// Comm collectives) and reads the Runtime flow and MemoryRegistry counters.
//
// Output is raw: per-step samples, counter deltas, the root solver's state at
// both ends of the timed window, exact counts (the collective ones from the
// live solver's plan) and provenance go to --out as JSON, and with --trace 1 the recorded spans go to
// --spans as Chrome trace-event JSON. run.py turns both into metrics.
//
//   perfbench_step --workload cifar10_dp4 --seed 1 --seconds 10 --trace 0
//                  --out raw.json [--spans spans.json]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cpuid.h>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <latch>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/coll_select.h"
#include "core/distributed_solver.h"
#include "core/hr_factory.h"
#include "data/backend.h"
#include "data/reader.h"
#include "dl/solver.h"
#include "models/zoo.h"
#include "mpi/comm.h"
#include "util/memory_registry.h"
#include "util/thread_pool.h"

extern char** environ;

using namespace scaffe;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kGlobalBatch = 32;
constexpr std::size_t kPrefetchDepth = 4;  // Trainer's default reader queue depth
constexpr std::uint64_t kDatasetSize = 50'000;
constexpr int kSetupRepeats = 3;  // trace 0: sessions whose setup time is kept
// run.py reports the fastest 100 consecutive timed steps of its processes
// (100: the fewest whose p90 has ten samples beyond it), so each process
// times at least that many.
constexpr int kMinTimedSteps = 100;
constexpr int kMinTracedSteps = 50;   // each trace-1 session
constexpr int kCommReplaySteps = 30;
constexpr int kMinComputeReplaySteps = 5;
constexpr int kMaxComputeReplaySteps = 40;

constexpr int kWarmupSteps = 3;
constexpr int kClasses = 10;
// Caffe's cifar10_quick solver rate. Under the default 0.01 some seeds blow
// up: seed 50's loss spikes to 4.1 near step 80 and then stays at ln(10).
constexpr float kBaseLr = 0.001f;

struct Workload {
  const char* name;
  int ranks;         // 1: a plain dl::SgdSolver, no mpi at all
  int math_threads;  // ThreadPool::set_global_threads
};

// Both train cifar10_quick under the default ScaffeConfig; why each exists
// is recorded in README.md.
const Workload kWorkloads[] = {
    {"cifar10_single", 1, 4},
    {"cifar10_dp4", 4, 1},
};

data::SyntheticImageDataset dataset(std::uint64_t seed) {
  return {kDatasetSize, 3, 32, 32, kClasses, seed};
}

// --- spans ----------------------------------------------------------------------

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// In-memory span recorder: one buffer per rank, each written only by its
/// rank's thread, flushed to disk once at exit.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::int32_t layer;  // -1 when the call is not per layer
    std::int64_t bytes;  // collective payload, 0 otherwise
  };

  explicit Tracer(int ranks) : spans_(static_cast<std::size_t>(ranks)),
                               current_(static_cast<std::size_t>(ranks), -1) {
    for (auto& buffer : spans_) buffer.reserve(std::size_t{1} << 16);
  }

  std::int32_t open(int rank, const char* name, std::int32_t layer, std::int64_t bytes) {
    auto& buffer = spans_[static_cast<std::size_t>(rank)];
    auto& current = current_[static_cast<std::size_t>(rank)];
    const auto index = static_cast<std::int32_t>(buffer.size());
    buffer.push_back({name, now_ns(), 0, current, layer, bytes});
    current = index;
    return index;
  }

  void close(int rank, std::int32_t index) {
    Span& span = spans_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(index)];
    span.end_ns = now_ns();
    current_[static_cast<std::size_t>(rank)] = span.parent;
  }

  bool write(const std::string& path) const;

 private:
  std::vector<std::vector<Span>> spans_;
  std::vector<std::int32_t> current_;
};

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (std::size_t rank = 0; rank < spans_.size(); ++rank) {
    const auto& buffer = spans_[rank];
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      const Span& s = buffer[i];
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": %zu, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, "
                   "\"layer\": %d, \"bytes\": %lld}}",
                   first ? "" : ",\n", s.name, rank, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.layer,
                   static_cast<long long>(s.bytes));
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

/// Records one span when tracing is on; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int rank, const char* name, std::int32_t layer = -1,
             std::int64_t bytes = 0)
      : tracer_(tracer), rank_(rank) {
    if (tracer_ != nullptr) index_ = tracer_->open(rank, name, layer, bytes);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(rank_, index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int rank_;
  std::int32_t index_ = -1;
};

// --- process counters ---------------------------------------------------------

struct ProcUsage {
  double cpu_s = 0;
  long ctx_switches = 0;
};

ProcUsage proc_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {seconds(usage.ru_utime) + seconds(usage.ru_stime),
          usage.ru_nvcsw + usage.ru_nivcsw};
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// --- training state and collective plan --------------------------------------

/// What the root solver holds, read through public accessors: a digest of its
/// parameters and the norm of the gradient its last update applied.
struct TrainState {
  std::uint64_t params_digest = 0;  // FNV-1a over the parameters' 32-bit words
  double grad_norm = 0;
};

TrainState train_state(dl::SgdSolver& solver) {
  std::vector<float> params(solver.net().param_count());
  solver.net().flatten_params(params);
  std::uint64_t digest = 14695981039346656037ull;
  for (float value : params) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    digest = (digest ^ bits) * 1099511628211ull;
  }
  return {digest, solver.diff_l2_norm()};
}

struct Segment {
  std::size_t offset = 0;
  std::size_t count = 0;
};

/// The collectives one train_iteration issues, in issue order.
struct CollPlan {
  std::vector<Segment> bcasts;
  bool bcast_async = false;  // ibcast all, then wait each in order
  std::vector<Segment> reduces;
  bool reduce_async = false;
};

/// Reads the plan off the live solver: its variant and, when fusion is on,
/// its BucketPlanner's buckets, the way train_iteration walks them.
CollPlan coll_plan(core::DistributedSolver& solver) {
  const dl::Net& net = solver.solver().net();
  const auto& ranges = net.layer_param_ranges();
  const core::ScaffeConfig& config = solver.config();
  if (config.aggregation != core::Aggregation::RootUpdate) {
    throw std::runtime_error("perfbench: no collective plan for this aggregation");
  }
  CollPlan plan;
  const Segment packed{0, net.param_count()};
  if (config.variant == core::Variant::SCB) {
    plan.bcasts = {packed};
    plan.reduces = {packed};
    return plan;
  }
  plan.bcast_async = true;
  for (const auto& [offset, count] : ranges) {
    if (count > 0) plan.bcasts.push_back({offset, count});
  }
  if (const core::BucketPlanner* planner = solver.planner()) {
    plan.reduce_async = true;
    for (const core::FusionBucket& bucket : planner->buckets()) {
      if (bucket.elems > 0) plan.reduces.push_back({ranges[bucket.first_layer].first, bucket.elems});
    }
    // SC-OBR issues a bucket once backward reaches it: the highest first.
    if (config.variant == core::Variant::SCOBR) {
      std::reverse(plan.reduces.begin(), plan.reduces.end());
    }
  } else if (config.variant == core::Variant::SCOBR) {
    for (std::size_t li = ranges.size(); li-- > 0;) {
      if (ranges[li].second > 0) plan.reduces.push_back({ranges[li].first, ranges[li].second});
    }
  } else {
    plan.reduces = {packed};
  }
  return plan;
}

struct CollCounts {
  std::uint64_t collectives = 0;
  std::uint64_t bytes = 0;
  std::uint64_t msgs = 0;  // sends of the schedules the segments instantiate
};

std::uint64_t sends_in(const coll::Schedule& schedule) {
  std::uint64_t sends = 0;
  for (const auto& program : schedule.programs) {
    for (const auto& op : program.ops) sends += op.kind == coll::OpKind::Send ? 1 : 0;
  }
  return sends;
}

CollCounts plan_counts(const CollPlan& plan, int ranks, const core::ScaffeConfig& config) {
  const mpi::ScheduleFactory reduce = core::make_reduce_factory(config.reduce);
  const mpi::ScheduleFactory bcast = core::make_bcast_factory();
  CollCounts counts;
  const auto add = [&](const std::vector<Segment>& segments, const mpi::ScheduleFactory& make) {
    for (const Segment& s : segments) {
      counts.collectives += 1;
      counts.bytes += s.count * sizeof(float);
      counts.msgs += sends_in(make(ranks, 0, s.count));
    }
  };
  add(plan.bcasts, bcast);
  add(plan.reduces, reduce);
  return counts;
}

// --- one session: set up anew, train, optionally replay ----------------

struct Plan {
  bool setup_only = false;  // stop after the first step
  double window_s = 0;      // timed window, after warm-up
  int min_steps = 0;        // timed steps, at least
  bool replay = false;      // compute-only and comm-only replays after the window
  double replay_s = 0;      // time budget of the compute-only replay
};

struct Window {
  std::vector<double> step_ms;  // rank 0: next() call to train_iteration return
  std::vector<double> cpu_s_at;  // process CPU from the window's start to each step's end
  std::vector<std::vector<double>> compute_ms;  // [rank][timed step]
  double wall_s = 0;
  ProcUsage usage;
  mpi::Mailbox::FlowStats flow;
  util::RegistryStats registry;
  TrainState opened;  // the root solver as the window opens
  TrainState closed;  // and after its last step
};

struct Provenance {
  std::string variant = "none";
  std::string coll_family = "none";
  std::string bucket_plan = "none";
  long long eager_limit = -1;
};

struct SessionResult {
  double setup_s = 0;
  long attempted = 0;          // steps started on rank 0
  std::vector<float> losses;   // root loss of every step, from step 0
  Window window;
  Provenance provenance;
  CollCounts counts;  // of the live solver's collective plan
  std::string error;
};

/// State the rank threads of one session share. Each vector slot is written
/// by one rank only; the rest are the cross-rank flags.
struct Shared {
  explicit Shared(int ranks) : compute_ms(static_cast<std::size_t>(ranks)) {}
  std::atomic<long> stop_at{LONG_MAX};
  std::latch window_closed{1};  // rank 0 has read the window's counters
  std::atomic<int> compute_replay_steps{0};
  std::vector<std::vector<double>> compute_ms;
};

struct StepOut {
  float loss = 0;
  double compute_ms = 0;
};

class Session {
 public:
  Session(const Workload& w, std::uint64_t seed, const Plan& plan, Tracer* tracer)
      : w_(w), seed_(seed), plan_(plan), tracer_(tracer), shared_(w.ranks) {
    if (plan_.setup_only) shared_.stop_at.store(1);
  }

  SessionResult run();

 private:
  void rank_body(int rank, mpi::Comm* comm, mpi::Runtime* runtime);

  template <typename StepFn>
  void train_loop(int rank, data::DataReader& reader, mpi::Runtime* runtime,
                  dl::SgdSolver& root_solver, StepFn&& step);

  void compute_replay(int rank, mpi::Comm* comm, dl::SgdSolver& sgd, bool root);
  void comm_replay(int rank, mpi::Comm& comm, const CollPlan& plan, std::size_t param_count);

  const Workload& w_;
  std::uint64_t seed_;
  Plan plan_;
  Tracer* tracer_;
  Shared shared_;
  SessionResult result_;
  Clock::time_point start_;
  std::optional<data::LmdbBackend> backend_;
};

SessionResult Session::run() {
  util::ThreadPool::set_global_threads(w_.math_threads);
  start_ = Clock::now();
  try {
    backend_.emplace(dataset(seed_));
    if (w_.ranks == 1) {
      rank_body(0, nullptr, nullptr);
    } else {
      mpi::Runtime runtime(w_.ranks);
      runtime.run([&](mpi::Comm& comm) { rank_body(comm.rank(), &comm, &runtime); });
    }
  } catch (const std::exception& error) {
    result_.error = error.what();
  }
  for (auto& per_rank : shared_.compute_ms) result_.window.compute_ms.push_back(per_rank);
  return std::move(result_);
}

void Session::rank_body(int rank, mpi::Comm* comm, mpi::Runtime* runtime) {
  const int shard = kGlobalBatch / w_.ranks;
  data::DataReader reader(*backend_, rank, w_.ranks, shard,
                          dataset(seed_).sample_floats(), kPrefetchDepth);
  dl::SolverConfig solver_config;
  solver_config.seed = seed_;
  solver_config.base_lr = kBaseLr;

  if (comm == nullptr) {
    dl::SgdSolver solver(models::cifar10_quick_netspec(shard), solver_config);
    train_loop(rank, reader, runtime, solver, [&](const data::Batch& batch) {
      const auto begin = Clock::now();
      StepOut out;
      {
        ScopedSpan span(tracer_, rank, "dl.step");
        out.loss = solver.step(batch.data, batch.labels);
      }
      {
        ScopedSpan span(tracer_, rank, "dl.apply_update");
        solver.apply_update();
      }
      out.compute_ms = ms_between(begin, Clock::now());
      return out;
    });
    reader.stop();
    if (plan_.replay) compute_replay(rank, nullptr, solver, true);
    return;
  }

  core::DistributedSolver solver(*comm, models::cifar10_quick_netspec(shard), solver_config,
                                 core::ScaffeConfig{});
  const CollPlan plan = coll_plan(solver);
  if (rank == 0) {
    result_.counts = plan_counts(plan, w_.ranks, solver.config());
    Provenance& p = result_.provenance;
    p.variant = core::variant_name(solver.config().variant);
    const core::CollAlgoChoice choice = core::resolve_coll_algo(solver.config());
    p.coll_family = std::string(core::coll_algo_name(choice.algo)) + "/" +
                    solver.config().reduce.label();
    p.eager_limit = static_cast<long long>(comm->eager_limit());
    p.bucket_plan = solver.planner() == nullptr
                        ? "per-layer"
                        : std::to_string(solver.planner()->buckets().size()) + " buckets";
  }
  train_loop(rank, reader, runtime, solver.solver(), [&](const data::Batch& batch) {
    ScopedSpan span(tracer_, rank, "core.train_iteration");
    const core::IterationResult r = solver.train_iteration(batch.data, batch.labels);
    return StepOut{r.local_loss, r.compute_ms};
  });
  reader.stop();
  if (!plan_.replay) return;
  compute_replay(rank, comm, solver.solver(), solver.is_root());
  comm_replay(rank, *comm, plan, solver.solver().net().param_count());
}

template <typename StepFn>
void Session::train_loop(int rank, data::DataReader& reader, mpi::Runtime* runtime,
                         dl::SgdSolver& root_solver, StepFn&& step) {
  const long warmup = plan_.setup_only ? 1 : kWarmupSteps;
  Window& window = result_.window;
  auto& compute = shared_.compute_ms[static_cast<std::size_t>(rank)];
  Clock::time_point window_start{};
  Clock::time_point last_end{};
  // Rank 0 releases the peers waiting below even when a step throws.
  struct CloseWindow {
    std::latch* latch;
    ~CloseWindow() {
      if (latch != nullptr) latch->count_down();
    }
  } close_window{rank == 0 ? &shared_.window_closed : nullptr};
  for (long i = 0; i < shared_.stop_at.load(); ++i) {
    if (rank == 0) {
      ++result_.attempted;
      if (i == warmup) {
        // The window opens here. Every message of earlier steps has landed:
        // rank 0's previous step only returned after all ranks contributed.
        window.opened = train_state(root_solver);
        window_start = Clock::now();
        window.usage = proc_usage();
        if (runtime != nullptr) runtime->reset_flow_stats();
        util::MemoryRegistry::instance().reset_stats();
      }
    }
    ScopedSpan outer(tracer_, rank, "bench.step", static_cast<std::int32_t>(i));
    const auto begin = Clock::now();
    data::Batch batch;
    {
      ScopedSpan span(tracer_, rank, "data.next");
      batch = reader.next();
    }
    const StepOut out = step(batch);
    const auto end = Clock::now();
    if (i >= warmup) compute.push_back(out.compute_ms);
    if (rank != 0) continue;
    result_.losses.push_back(out.loss);
    if (i == 0) result_.setup_s = std::chrono::duration<double>(end - start_).count();
    if (i < warmup) continue;
    window.step_ms.push_back(ms_between(begin, end));
    window.cpu_s_at.push_back(proc_usage().cpu_s - window.usage.cpu_s);
    last_end = end;
    const double elapsed = std::chrono::duration<double>(end - window_start).count();
    const auto timed = static_cast<int>(window.step_ms.size());
    if (elapsed >= plan_.window_s && timed >= plan_.min_steps &&
        shared_.stop_at.load() == LONG_MAX) {
      // Every rank runs step i+1 as well: a peer checks the flag for step
      // i+2 only after finishing i+1, which needed rank 0 to start i+1, so it
      // always sees the new bound and no rank waits on a step rank 0 skips.
      shared_.stop_at.store(i + 2);
    }
  }
  if (rank != 0) {
    // A peer that finished first must not send anything (the replays start
    // with a barrier) before rank 0 has read the window's flow counters.
    shared_.window_closed.wait();
    return;
  }
  if (window.step_ms.empty()) return;
  window.wall_s = std::chrono::duration<double>(last_end - window_start).count();
  const ProcUsage end_usage = proc_usage();
  window.usage = {end_usage.cpu_s - window.usage.cpu_s,
                  end_usage.ctx_switches - window.usage.ctx_switches};
  if (runtime != nullptr) window.flow = runtime->flow_stats();
  window.registry = util::MemoryRegistry::instance().stats();
  window.closed = train_state(root_solver);
}

/// Per layer forward_layer / backward_layer, then apply_update (root only, as
/// in the RootUpdate scheme), with no communication. All ranks at once, each
/// step aligned by an untimed barrier.
void Session::compute_replay(int rank, mpi::Comm* comm, dl::SgdSolver& sgd, bool root) {
  if (rank == 0) {
    std::vector<double> steps = result_.window.step_ms;
    std::sort(steps.begin(), steps.end());
    const double step_ms = steps.empty() ? 1.0 : std::max(steps[steps.size() / 2], 0.001);
    const int n = static_cast<int>(plan_.replay_s * 1000.0 / step_ms);
    shared_.compute_replay_steps.store(
        std::clamp(n, kMinComputeReplaySteps, kMaxComputeReplaySteps));
  }
  if (comm != nullptr) comm->barrier();
  const int steps = shared_.compute_replay_steps.load();
  dl::Net& net = sgd.net();
  for (int s = 0; s < steps; ++s) {
    if (comm != nullptr) comm->barrier();
    ScopedSpan step(tracer_, rank, "replay.compute_step", s);
    net.zero_param_diffs();
    for (std::size_t li = 0; li < net.num_layers(); ++li) {
      ScopedSpan span(tracer_, rank, "dl.forward_layer", static_cast<std::int32_t>(li));
      net.forward_layer(li);
    }
    for (std::size_t li = net.num_layers(); li-- > 0;) {
      ScopedSpan span(tracer_, rank, "dl.backward_layer", static_cast<std::int32_t>(li));
      net.backward_layer(li);
    }
    if (root) {
      ScopedSpan span(tracer_, rank, "dl.apply_update");
      sgd.apply_update();
    }
  }
}

/// The live solver's per-step collective plan over its segments, with no
/// compute: the bcast phase, then the reduce phase, each either blocking
/// calls in plan order or non-blocking ones posted in plan order and then
/// waited in that order.
void Session::comm_replay(int rank, mpi::Comm& comm, const CollPlan& plan,
                          std::size_t param_count) {
  std::vector<float> packed(param_count, 0.0f);
  const auto run_phase = [&](const char* phase_name, const std::vector<Segment>& segments,
                             bool async, bool bcast) {
    ScopedSpan phase(tracer_, rank, phase_name);
    const char* call = async ? (bcast ? "mpi.ibcast" : "mpi.ireduce")
                             : (bcast ? "mpi.bcast" : "mpi.reduce");
    std::vector<mpi::Request> requests;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const std::span<float> data =
          std::span<float>(packed).subspan(segments[i].offset, segments[i].count);
      ScopedSpan span(tracer_, rank, call, static_cast<std::int32_t>(i),
                      static_cast<std::int64_t>(data.size_bytes()));
      if (async) {
        requests.push_back(bcast ? comm.ibcast(data, 0) : comm.ireduce(data, 0));
      } else if (bcast) {
        comm.bcast(data, 0);
      } else {
        comm.reduce(data, 0);
      }
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ScopedSpan span(tracer_, rank, "mpi.wait", static_cast<std::int32_t>(i));
      requests[i].wait();
    }
  };
  for (int s = 0; s < kCommReplaySteps; ++s) {
    comm.barrier();
    ScopedSpan step(tracer_, rank, "replay.comm_step", s);
    run_phase("replay.bcast_phase", plan.bcasts, plan.bcast_async, true);
    run_phase("replay.reduce_phase", plan.reduces, plan.reduce_async, false);
  }
}

// --- exact counts ----------------------------------------------------------------

struct LayerInfo {
  std::string name;
  std::string type;
  std::size_t params = 0;
  std::uint64_t flops = 0;  // forward + backward GEMM flops at the shard batch
};

struct ExactCounts {
  std::vector<LayerInfo> layers;
  std::uint64_t flops_per_step = 0;
};

/// Flops derived from the net's shapes, never from a run. Conv and
/// inner-product layers are im2col/GEMM lowered: forward is one GEMM of
/// 2*M*N*K flops, backward two of the same size (dW and dX).
ExactCounts exact_counts(const Workload& w) {
  ExactCounts counts;
  const int shard = kGlobalBatch / w.ranks;
  dl::Net net(models::cifar10_quick_netspec(shard));
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    dl::Layer& layer = net.layer(li);
    const dl::LayerSpec& spec = layer.spec();
    LayerInfo info;
    info.name = spec.name;
    info.type = dl::layer_type_name(spec.type);
    info.params = net.layer_param_ranges()[li].second;
    if (spec.type == dl::LayerType::Convolution || spec.type == dl::LayerType::InnerProduct) {
      const std::vector<int>& weight = layer.params().front()->shape();
      std::uint64_t weight_elems = 1;
      for (int dim : weight) weight_elems *= static_cast<std::uint64_t>(dim);
      const std::vector<int>& top = net.blob(spec.tops.front()).shape();
      std::uint64_t spatial = 1;
      for (std::size_t d = 2; d < top.size(); ++d) spatial *= static_cast<std::uint64_t>(top[d]);
      const std::uint64_t forward =
          2 * static_cast<std::uint64_t>(top.front()) * weight_elems * spatial;
      info.flops = 3 * forward;
    }
    counts.flops_per_step += info.flops;
    counts.layers.push_back(info);
  }
  return counts;
}

// --- provenance ---------------------------------------------------------------------

std::string cpu_model() {
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::vector<std::string> isa_flags() {
  std::vector<std::string> flags;
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) flags.emplace_back("sse4.2");
  if (__builtin_cpu_supports("avx")) flags.emplace_back("avx");
  if (__builtin_cpu_supports("avx2")) flags.emplace_back("avx2");
  if (__builtin_cpu_supports("fma")) flags.emplace_back("fma");
  if (__builtin_cpu_supports("avx512f")) flags.emplace_back("avx512f");
  if (__builtin_cpu_supports("avx512bw")) flags.emplace_back("avx512bw");
  if (__builtin_cpu_supports("avx512vl")) flags.emplace_back("avx512vl");
  return flags;
}

// --- output -----------------------------------------------------------------------

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string loss_bits(float loss) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &loss, sizeof(bits));
  char text[9];
  std::snprintf(text, sizeof(text), "%08x", bits);
  return text;
}

void write_doubles(std::FILE* out, const std::vector<double>& values) {
  std::fputc('[', out);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(out, "%s%.17g", i == 0 ? "" : ", ", values[i]);
  }
  std::fputc(']', out);
}

void write_session(std::FILE* out, const char* role, const SessionResult& s) {
  const Window& w = s.window;
  std::fprintf(out,
               "    {\"role\": \"%s\", \"setup_s\": %.17g, \"attempted\": %ld,\n", role,
               s.setup_s, s.attempted);
  std::fprintf(out, "     \"error\": %s,\n", s.error.empty() ? "null" : quoted(s.error).c_str());
  std::fprintf(out, "     \"provenance\": {\"variant\": %s, \"coll_family\": %s, "
               "\"bucket_plan\": %s, \"eager_limit\": %lld},\n",
               quoted(s.provenance.variant).c_str(), quoted(s.provenance.coll_family).c_str(),
               quoted(s.provenance.bucket_plan).c_str(), s.provenance.eager_limit);
  std::fprintf(out, "     \"losses\": [");
  for (std::size_t i = 0; i < s.losses.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ", ", loss_bits(s.losses[i]).c_str());
  }
  std::fprintf(out, "],\n     \"step_ms\": ");
  write_doubles(out, w.step_ms);
  std::fprintf(out, ",\n     \"cpu_s_at\": ");
  write_doubles(out, w.cpu_s_at);
  std::fprintf(out, ",\n     \"compute_ms\": [");
  for (std::size_t r = 0; r < w.compute_ms.size(); ++r) {
    if (r > 0) std::fprintf(out, ", ");
    write_doubles(out, w.compute_ms[r]);
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "     \"wall_s\": %.17g, \"cpu_s\": %.17g, \"ctx_switches\": %ld,\n",
               w.wall_s, w.usage.cpu_s, w.usage.ctx_switches);
  std::fprintf(out,
               "     \"flow\": {\"enqueued\": %llu, \"claimed\": %llu, \"credit_wait_us\": %llu, "
               "\"peak_occupancy_bytes\": %zu},\n",
               static_cast<unsigned long long>(w.flow.enqueued_messages),
               static_cast<unsigned long long>(w.flow.claimed_messages),
               static_cast<unsigned long long>(w.flow.credit_wait_us),
               w.flow.peak_occupancy_bytes);
  std::fprintf(out,
               "     \"registry\": {\"hits\": %llu, \"misses\": %llu, "
               "\"peak_live_bytes\": %zu},\n",
               static_cast<unsigned long long>(w.registry.recycled()),
               static_cast<unsigned long long>(w.registry.misses), w.registry.peak_live_bytes);
  // A non-finite norm is written as -1, which fails the gradient check.
  const double grad_norm = std::isfinite(w.closed.grad_norm) ? w.closed.grad_norm : -1.0;
  std::fprintf(out,
               "     \"params_digest_opened\": \"%016llx\", \"params_digest_closed\": "
               "\"%016llx\", \"grad_norm_closed\": %.17g}",
               static_cast<unsigned long long>(w.opened.params_digest),
               static_cast<unsigned long long>(w.closed.params_digest), grad_norm);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.out.empty() && args.seconds > 0 &&
         (args.trace == 0 || (args.trace == 1 && !args.spans.empty()));
}

}  // namespace

int main(int argc, char** argv) {
  // The runtime reads 16 SCAFFE_* knobs; any of them would silently change
  // the program being measured.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "SCAFFE_", 7) == 0) {
      std::fprintf(stderr, "perfbench_step: refusing to run with %s set\n", *env);
      return 2;
    }
  }
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_step --workload NAME --seed N --seconds S --trace 0|1 "
                 "--out RAW.json [--spans SPANS.json]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench_step: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  const ExactCounts counts = exact_counts(w);

  std::vector<std::pair<const char*, SessionResult>> sessions;
  std::unique_ptr<Tracer> tracer;
  if (args.trace == 0) {
    Plan setup;
    setup.setup_only = true;
    for (int i = 0; i + 1 < kSetupRepeats; ++i) {
      sessions.emplace_back("setup", Session(w, args.seed, setup, nullptr).run());
    }
    Plan timed;
    timed.window_s = args.seconds;
    timed.min_steps = kMinTimedSteps;
    sessions.emplace_back("timed", Session(w, args.seed, timed, nullptr).run());
  } else {
    // Untraced and traced sessions from the same seed: their losses must
    // agree bitwise, and their step times give the tracing overhead.
    Plan plan;
    plan.window_s = 0.3 * args.seconds;
    plan.min_steps = kMinTracedSteps;
    sessions.emplace_back("untraced", Session(w, args.seed, plan, nullptr).run());
    tracer = std::make_unique<Tracer>(w.ranks);
    plan.replay = true;
    plan.replay_s = 0.15 * args.seconds;
    sessions.emplace_back("traced", Session(w, args.seed, plan, tracer.get()).run());
  }

  std::FILE* out = std::fopen(args.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench_step: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(out, "{\"workload\": %s, \"seed\": %llu, \"trace\": %d,\n",
               quoted(w.name).c_str(), static_cast<unsigned long long>(args.seed), args.trace);
  std::fprintf(out, " \"config\": {\"ranks\": %d, \"global_batch\": %d, \"classes\": %d, "
               "\"math_threads\": %d, \"warmup_steps\": %d, \"build_type\": %s, "
               "\"cpu_model\": %s, \"hardware_concurrency\": %u, \"isa\": [",
               w.ranks, kGlobalBatch, kClasses, w.math_threads, kWarmupSteps,
               quoted(PERFBENCH_BUILD_TYPE).c_str(), quoted(cpu_model()).c_str(),
               std::thread::hardware_concurrency());
  const std::vector<std::string> isa = isa_flags();
  for (std::size_t i = 0; i < isa.size(); ++i) {
    std::fprintf(out, "%s%s", i == 0 ? "" : ", ", quoted(isa[i]).c_str());
  }
  std::fprintf(out, "]},\n");
  // Every session builds the same solvers; the last one's plan stands for all.
  const CollCounts& coll = sessions.back().second.counts;
  std::fprintf(out,
               " \"counts\": {\"flops_per_step\": %llu, \"collectives_per_step\": %llu, "
               "\"bytes_per_step\": %llu, \"msgs_per_step\": %llu},\n",
               static_cast<unsigned long long>(counts.flops_per_step),
               static_cast<unsigned long long>(coll.collectives),
               static_cast<unsigned long long>(coll.bytes),
               static_cast<unsigned long long>(coll.msgs));
  std::fprintf(out, " \"layers\": [");
  for (std::size_t i = 0; i < counts.layers.size(); ++i) {
    const LayerInfo& layer = counts.layers[i];
    std::fprintf(out, "%s\n  {\"name\": %s, \"type\": %s, \"params\": %zu, \"flops\": %llu}",
                 i == 0 ? "" : ",", quoted(layer.name).c_str(), quoted(layer.type).c_str(),
                 layer.params, static_cast<unsigned long long>(layer.flops));
  }
  std::fprintf(out, "],\n \"sessions\": [\n");
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    write_session(out, sessions[i].first, sessions[i].second);
    std::fprintf(out, "%s\n", i + 1 < sessions.size() ? "," : "");
  }
  std::fprintf(out, " ],\n \"peak_rss_kb\": %ld}\n", peak_rss_kb());
  if (std::fclose(out) != 0) return 1;
  if (tracer && !tracer->write(args.spans)) {
    std::fprintf(stderr, "perfbench_step: cannot write %s\n", args.spans.c_str());
    return 1;
  }
  return 0;
}
