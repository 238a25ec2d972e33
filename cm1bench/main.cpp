// cm1bench — the repository's end-to-end benchmark.
//
// One invocation measures one workload:
//
//   cm1bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --workdir <dir>
//
// It drives the CM1 proxy (sim::Cm1Proxy, seeded from --seed) through the
// real core::Runtime: Client::write / end_iteration into the shared segment
// or over the MPI transport, the dedicated core's store plugin, EmitStage,
// storage::WriteBehind and real posix or sharded roots under --workdir.
// Load comes from one process: minimpi::run_world threads, one per rank,
// with at most 4 busy at once (3 clients + 1 dedicated core, or 2 clients
// + 2 I/O workers), sized for a 4-core machine.  Every
// client runs a closed loop: it starts its next iteration only after
// end_iteration() returned.  The run lasts --seconds (and at least
// kMinIterations iterations); afterwards every published image is read back
// and checked against hashes the clients recorded (verify.hpp).
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, records spans around every call into a layer
// (trace.hpp), checks that the spans account for each client's time, writes
// the spans and a snapshot of every stats struct to <workdir>/traces/, and
// prints the per-layer metrics.  The last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}; lines before it start with
// '#' and are for people.
#include <fcntl.h>
#include <pmmintrin.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "compress/codec.hpp"
#include "core/builtin_plugins.hpp"
#include "core/plugin.hpp"
#include "core/runtime.hpp"
#include "fsim/filesystem.hpp"
#include "minimpi/minimpi.hpp"
#include "sim/cm1_proxy.hpp"
#include "storage/crc32c.hpp"
#include "storage/sharded_backend.hpp"
#include "trace.hpp"
#include "verify.hpp"

namespace {

namespace fs = std::filesystem;
namespace core = dedicore::core;
namespace sim = dedicore::sim;
namespace storage = dedicore::storage;
namespace minimpi = dedicore::minimpi;
using namespace cm1bench;

/// Per-client block edge: 64^3 float32 = 1 MiB per field, 5 fields, so
/// 5.2 MB per client per iteration.
constexpr std::uint64_t kGrid = 64;
/// Shared segment (cores mode) / credit pool (nodes mode); the write-behind
/// budget defaults to the same size.
constexpr std::uint64_t kBuffer = 64ull << 20;
/// Set-ups measured before the run; setup_s is the median of these and the
/// run's own set-up.
constexpr int kSetupRepeats = 31;
/// Enough iterations that the stall p90 has at least 10 samples beyond it
/// (clients x iterations >= 100 with 2 clients).
constexpr std::int64_t kMinIterations = 50;
/// The traced run fails when a client's exchange, step, write and
/// end_iteration spans cover less than this share of its time from its
/// first step to the end of finalize().
constexpr double kClosureFloor = 0.90;
constexpr const char* kBasename = "cm1";
/// Stripe size of the sharded workload: 4 chunks per 15.7 MB image.  With
/// the 1 MiB default (16 fsync'd chunk files per image) retired_mb_s spread
/// 13% between runs on a 4-core VM with a shared ext4 disk, with 4 MiB 6%.
constexpr std::uint64_t kChunkSize = 4ull << 20;

struct Workload {
  const char* name;
  int clients;
  core::DedicatedMode mode;
  int server_workers;    ///< 0: the runtime's default (1 per dedicated core)
  int steps_per_output;  ///< real stencil steps between two outputs
  const char* codec;
  int sharded_roots;     ///< 0: one plain posix root
};

// Each workload loads a different layer; see BENCHMARK.json for why.
constexpr Workload kWorkloads[] = {
    // The paper's regime: 24 steps (~90 ms) outlast the dedicated core's
    // ~20 ms per output, so the stall is the segment copy and storage runs
    // hidden in the dedicated core's idle time.
    {"cm1_hidden", 3, core::DedicatedMode::kCores, 0, 24, "none", 0},
    // I/O-bound: sharded storage, CRC32C chunks and write-behind
    // backpressure set the pace.
    {"cm1_sharded_flood", 3, core::DedicatedMode::kCores, 0, 1, "none", 2},
    // Dedicated I/O node with a 2-worker pool: MPI framing and credit,
    // stealing, idle drains, and the xor+lzs codec on the plugin pipeline.
    {"cm1_xorlzs_nodes", 2, core::DedicatedMode::kNodes, 2, 1, "xor+lzs", 0},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  fs::path workdir;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// The delegating store plugin: the real "store" plugin, timed.
// ---------------------------------------------------------------------------

/// Tracer and parent span of the run in progress; set before the world's
/// threads start and cleared after they joined.
Tracer* g_tracer = nullptr;
std::atomic<int> g_server_span{-1};

class TimedStore final : public core::Plugin {
 public:
  explicit TimedStore(std::unique_ptr<core::Plugin> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

  void run(core::PluginContext& context) override {
    const auto start = Clock::now();
    inner_->run(context);
    if (g_tracer != nullptr)
      g_tracer->record("core.store_plugin", start, Clock::now(),
                     g_server_span.load(), -1,
                     static_cast<std::int64_t>(context.iteration));
  }

 private:
  std::unique_ptr<core::Plugin> inner_;
};

/// Binds "timed_store" to a TimedStore around the built-in store plugin.
/// The factory builds StorePlugin itself, as the "store" factory does:
/// make_plugin() runs factories under the registry lock, so a factory that
/// called make_plugin("store") would deadlock.
void register_timed_store() {
  static std::once_flag once;
  std::call_once(once, [] {
    core::register_plugin("timed_store", [](const auto& params) {
      return std::make_unique<TimedStore>(
          std::make_unique<core::StorePlugin>(params));
    });
  });
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

std::vector<fs::path> make_roots(const Workload& w, const fs::path& dir) {
  if (w.sharded_roots == 0) return {dir / "root"};
  std::vector<fs::path> roots;
  for (int r = 0; r < w.sharded_roots; ++r)
    roots.push_back(dir / ("root" + std::to_string(r)));
  return roots;
}

int world_size(const Workload& w) { return w.clients + 1; }

core::Configuration make_config(const Workload& w,
                                const std::vector<fs::path>& roots) {
  core::Configuration cfg;
  cfg.set_simulation_name("cm1");
  cfg.set_architecture(world_size(w), 1);
  cfg.set_dedicated_mode(w.mode, 1);
  cfg.set_server_workers(w.server_workers);
  cfg.set_buffer(kBuffer, 4096, core::BackpressurePolicy::kBlock);

  core::LayoutSpec grid;
  grid.name = "grid3d";
  grid.dtype = dedicore::h5lite::DType::kFloat32;
  grid.extents = {kGrid, kGrid, kGrid};
  cfg.add_layout(grid);
  for (const char* name : {"theta", "qv", "u", "v", "w"}) {
    core::VariableSpec v;
    v.name = name;
    v.layout = "grid3d";
    v.group = "fields";
    cfg.add_variable(v);
  }

  core::StorageSpec spec;
  spec.basename = kBasename;
  spec.codec = w.codec;
  spec.backend = "posix";
  if (w.sharded_roots == 0) {
    spec.path = roots.front().string();
  } else {
    for (const fs::path& root : roots) spec.roots.push_back(root.string());
    spec.chunk_size = kChunkSize;
  }
  cfg.set_storage(spec);

  core::ActionSpec store;
  store.event = "end_iteration";
  store.plugin = "timed_store";
  cfg.add_action(store);
  cfg.validate();
  return cfg;
}

/// The runtime needs a simulator instance even when every byte goes to
/// posix roots; this one is never touched.
dedicore::fsim::FileSystem& unused_simulator() {
  static dedicore::fsim::FileSystem fs(dedicore::fsim::StorageConfig{},
                                       dedicore::fsim::TimeScale{});
  return fs;
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

/// Decides, once, how many iterations every client runs: the run stops at
/// the first iteration no client has begun once the deadline passed (and at
/// least kMinIterations ran), so all clients close the same iterations.
class IterationGate {
 public:
  explicit IterationGate(double seconds) : seconds_(seconds) {}

  bool begin(std::int64_t iteration) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto now = Clock::now();
    if (started_ < 0)
      deadline_ = now + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds_));
    if (stop_at_ < 0 && iteration >= kMinIterations && now >= deadline_)
      stop_at_ = started_ + 1;
    if (stop_at_ >= 0 && iteration >= stop_at_) return false;
    started_ = std::max(started_, iteration);
    return true;
  }

  [[nodiscard]] std::int64_t iterations() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stop_at_;
  }

 private:
  const double seconds_;
  mutable std::mutex mutex_;
  Clock::time_point deadline_;
  std::int64_t started_ = -1;
  std::int64_t stop_at_ = -1;
};

struct ClientLog {
  std::vector<double> stalls;         ///< seconds per iteration
  std::vector<std::uint64_t> hashes;  ///< per (iteration, variable)
  Clock::time_point first_write = Clock::time_point::max();
  std::uint64_t attempted = 0;        ///< write + end_iteration calls
  std::uint64_t failed = 0;           ///< of which returned non-OK
  core::ClientStats stats;
  dedicore::transport::TransportStats transport;
};

struct ServerLog {
  Clock::time_point end;
  core::ServerStats stats;
  std::shared_ptr<core::NodeRuntime> node;
};

struct RankLog {
  bool server = false;
  int client_rank = -1;
  double init_seconds = 0.0;
  ClientLog client;
  ServerLog server_log;
};

/// Field names in the order Cm1Proxy::field_bytes() yields them.
std::vector<std::string> field_names() {
  sim::Cm1Proxy probe(sim::Cm1Config{});
  std::vector<std::string> names;
  for (const auto& entry : probe.field_bytes()) names.push_back(entry.first);
  return names;
}

sim::Cm1Config proxy_config(std::uint64_t seed, int rank, int size) {
  sim::Cm1Config pc;
  pc.nx = pc.ny = pc.nz = kGrid;
  pc.rank = rank;
  pc.world_size = size;
  pc.seed = seed;
  // Still air.  With the default wind the bubble is advected out through
  // the x boundary at an iteration set by its seeded position, so the
  // output's compressibility (and disk_bytes_per_raw_byte under xor+lzs)
  // varied by +-10% with the seed; in still air it varies by about 2%.
  pc.wind_u = pc.wind_v = 0.0;
  return pc;
}

void run_client(core::Runtime& rt, const Workload& w, std::uint64_t seed,
                IterationGate& gate, Tracer& tracer, int run_span,
                ClientLog& log) {
  // Flush denormals to zero, as CM1 builds do: the diffusing tails of qv
  // and w reach the denormal range after a few hundred steps, and without
  // FTZ/DAZ the step time then depended on the seed and the run length.
  _MM_SET_FLUSH_ZERO_MODE(_MM_FLUSH_ZERO_ON);
  _MM_SET_DENORMALS_ZERO_MODE(_MM_DENORMALS_ZERO_ON);
  const int rank = rt.client_comm().rank();
  sim::Cm1Proxy proxy(proxy_config(seed, rank, rt.client_comm().size()));
  core::Client& client = rt.client();
  for (std::int64_t it = 0; gate.begin(it); ++it) {
    const int it_span = tracer.next_id();
    const auto it_start = Clock::now();
    for (int s = 0; s < w.steps_per_output; ++s) {
      // CM1 exchanges halos every step, which keeps ranks in lockstep.  The
      // barrier stands in for that exchange: without it, clients drift
      // apart by whole iterations, and the leaders' blocks of iterations
      // the laggard has not closed fill the shared segment until the
      // laggard's write() blocks forever.
      const auto t0 = Clock::now();
      rt.client_comm().barrier();
      const auto t1 = Clock::now();
      proxy.step();
      const auto t2 = Clock::now();
      tracer.record("sim.exchange", t0, t1, it_span, rank, it);
      tracer.record("sim.step", t1, t2, it_span, rank, it);
    }
    double stall = 0.0;
    for (const auto& [name, bytes] : proxy.field_bytes()) {
      log.hashes.push_back(payload_hash(bytes));
      const auto t0 = Clock::now();
      const dedicore::Status st = client.write(name, bytes);
      const auto t1 = Clock::now();
      log.first_write = std::min(log.first_write, t0);
      stall += seconds_between(t0, t1);
      tracer.record("client.write", t0, t1, it_span, rank, it);
      ++log.attempted;
      if (!st.is_ok()) ++log.failed;
    }
    const auto t0 = Clock::now();
    const dedicore::Status st = client.end_iteration();
    const auto t1 = Clock::now();
    stall += seconds_between(t0, t1);
    tracer.record("client.end_iteration", t0, t1, it_span, rank, it);
    ++log.attempted;
    if (!st.is_ok()) ++log.failed;
    log.stalls.push_back(stall);
    tracer.record(it_span, "client.iteration", it_start, t1, run_span, rank, it);
  }
  const auto t0 = Clock::now();
  rt.finalize();
  tracer.record("client.finalize", t0, Clock::now(), run_span, rank);
  log.stats = client.stats();
  log.transport = client.transport_stats();
}

struct World {
  std::vector<RankLog> ranks;
  double config_seconds = 0.0;

  /// Configuration plus the slowest rank's Runtime::initialize.
  [[nodiscard]] double setup_seconds() const {
    double slowest = 0.0;
    for (const RankLog& r : ranks) slowest = std::max(slowest, r.init_seconds);
    return config_seconds + slowest;
  }
};

using ClientBody = std::function<void(core::Runtime&, ClientLog&)>;

/// One collective Runtime::initialize over a fresh world; returns each
/// rank's log.  With `body` unset the ranks tear down immediately (a
/// set-up measurement), otherwise clients run `body` and servers serve.

World launch_world(const Workload& w, const std::vector<fs::path>& roots,
                   Tracer& tracer, int parent_span, const ClientBody& body) {
  World world;
  const auto c0 = Clock::now();
  const core::Configuration config = make_config(w, roots);
  world.config_seconds = seconds_between(c0, Clock::now());
  world.ranks.resize(static_cast<std::size_t>(world_size(w)));
  minimpi::run_world(world_size(w), [&](minimpi::Comm& comm) {
    RankLog& log = world.ranks[static_cast<std::size_t>(comm.rank())];
    // Start every rank's clock together, so thread start-up skew is not
    // counted as set-up.
    comm.barrier();
    const auto t0 = Clock::now();
    core::Runtime rt = core::Runtime::initialize(config, comm, unused_simulator());
    const auto t1 = Clock::now();
    log.init_seconds = seconds_between(t0, t1);
    tracer.record("core.initialize", t0, t1, parent_span, -1);
    if (rt.is_server()) {
      log.server = true;
      const int span = tracer.next_id();
      g_server_span.store(span);
      const auto s0 = Clock::now();
      rt.run_server();
      log.server_log.end = Clock::now();
      tracer.record(span, "core.run_server", s0, log.server_log.end, parent_span);
      log.server_log.stats = rt.server_stats();
      log.server_log.node = rt.node_ptr();
      return;
    }
    log.client_rank = rt.client_comm().rank();
    if (body) {
      body(rt, log.client);
    } else {
      rt.finalize();
    }
  });
  return world;
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Writes back what earlier runs left dirty (their images, and the blocks
/// their deletion freed), so that it does not compete with this run's
/// writes and fsyncs.
void flush_filesystem(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

double median_of(std::vector<double> xs) {
  dedicore::SampleSet set;
  set.add_all(xs);
  return set.percentile(0.5);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct RunResult {
  bool correct = false;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::int64_t iterations = 0;
  std::size_t stall_samples = 0;
  double stall_p50_ms = 0.0;
  double stall_p90_ms = 0.0;
  double retired_mb_s = 0.0;
  double setup_s = 0.0;
  std::vector<Metric> end_to_end;
  World world;
  VerifyReport verify;
};

const ClientLog* client_of(const World& world, int rank) {
  for (const RankLog& r : world.ranks)
    if (!r.server && r.client_rank == rank) return &r.client;
  return nullptr;
}

const ServerLog& server_of(const World& world) {
  for (const RankLog& r : world.ranks)
    if (r.server) return r.server_log;
  std::fprintf(stderr, "cm1bench: the world has no server rank\n");
  std::exit(2);
}

/// Measures one workload: kSetupRepeats set-ups, then the closed-loop run,
/// then the read-back verification and its self-check.
RunResult measure(const Options& opt, const fs::path& dir, Tracer& tracer) {
  const Workload& w = *opt.workload;
  RunResult result;
  flush_filesystem(opt.workdir);
  std::vector<double> setups;
  const int setup_span = tracer.next_id();
  const auto setup_start = Clock::now();
  for (int k = 0; k < kSetupRepeats; ++k) {
    const fs::path setup_dir = dir / ("setup" + std::to_string(k));
    setups.push_back(
        launch_world(w, make_roots(w, setup_dir), tracer, setup_span, nullptr)
            .setup_seconds());
    fs::remove_all(setup_dir);
  }
  tracer.record(setup_span, "bench.setup_repeats", setup_start, Clock::now(), -1);

  const std::vector<fs::path> roots = make_roots(w, dir / "run");
  IterationGate gate(opt.seconds);
  const int run_span = tracer.next_id();
  const auto run_start = Clock::now();
  g_tracer = &tracer;
  result.world = launch_world(
      w, roots, tracer, run_span, [&](core::Runtime& rt, ClientLog& log) {
        run_client(rt, w, opt.seed, gate, tracer, run_span, log);
      });
  g_tracer = nullptr;
  tracer.record(run_span, "bench.run", run_start, Clock::now(), -1);
  setups.push_back(result.world.setup_seconds());
  std::printf("# setup samples (ms):");
  for (double x : setups) std::printf(" %.3f", x * 1e3);
  std::printf("\n");
  result.setup_s = median_of(setups);
  result.iterations = gate.iterations();

  // Stall distribution, throughput and failures.
  const World& world = result.world;
  const ServerLog& server = server_of(world);
  dedicore::SampleSet stalls;
  Clock::time_point first_write = Clock::time_point::max();
  std::uint64_t raw_bytes = 0;
  std::uint64_t iterations_closed = 0;
  for (const RankLog& r : world.ranks) {
    if (r.server) continue;
    stalls.add_all(r.client.stalls);
    first_write = std::min(first_write, r.client.first_write);
    raw_bytes += r.client.stats.bytes_written;
    iterations_closed += r.client.stats.iterations;
    result.attempted += r.client.attempted;
    result.failed += r.client.failed + r.client.stats.skipped_iterations +
                     r.client.stats.dropped_blocks;
  }
  const dedicore::Summary stall = stalls.summary();
  result.stall_samples = stall.count;
  result.stall_p50_ms = stall.median * 1e3;
  result.stall_p90_ms = stall.p90 * 1e3;
  result.retired_mb_s = static_cast<double>(raw_bytes) / 1e6 /
                        seconds_between(first_write, server.end);
  const core::NodeRuntime& node = *server.node;
  const std::uint64_t images = static_cast<std::uint64_t>(result.iterations);
  result.attempted += images;
  result.failed += server.stats.storage_failures + node.write_behind->stats().jobs_failed;

  // Verification: every image, every dataset, against the clients' hashes.
  Expected expected;
  expected.variables = field_names();
  for (int c = 0; c < w.clients; ++c) {
    const ClientLog* log = client_of(world, c);
    expected.hashes.push_back(log != nullptr ? log->hashes
                                             : std::vector<std::uint64_t>{});
  }
  std::vector<std::string> image_paths;
  for (std::int64_t i = 0; i < result.iterations; ++i)
    image_paths.push_back(std::string(kBasename) + "/node" +
                          std::to_string(node.node_id) + "_s0_it" +
                          std::to_string(i) + ".h5l");
  const int readback_span = tracer.next_id();
  const auto readback_start = Clock::now();
  result.verify = verify_run(*node.storage, roots, image_paths, expected);
  tracer.record(readback_span, "bench.readback", readback_start, Clock::now(), -1);
  if (!result.verify.ok) {
    result.error = "verification failed: " + result.verify.error;
    return result;
  }
  if (result.verify.raw_bytes != raw_bytes) {
    result.error = "read-back recovered " + std::to_string(result.verify.raw_bytes) +
                   " bytes of " + std::to_string(raw_bytes) + " written";
    return result;
  }
  if (iterations_closed != images * static_cast<std::uint64_t>(w.clients)) {
    result.error = "clients closed " + std::to_string(iterations_closed) +
                   " iterations, expected " +
                   std::to_string(images * static_cast<std::uint64_t>(w.clients));
    return result;
  }
  if (!verifier_rejects_corruption(*node.storage, roots, image_paths.front(), 0,
                                   expected, dir / "selfcheck")) {
    result.error = "verifier self-check: a corrupted image was accepted";
    return result;
  }

  const double raw = static_cast<double>(raw_bytes);
  result.end_to_end = {
      {"stall_p50_ms", result.stall_p50_ms, "ms"},
      {"stall_p90_ms", result.stall_p90_ms, "ms"},
      {"retired_mb_s", result.retired_mb_s, "MB/s"},
      {"readback_mb_s", result.verify.readback_mb_s, "MB/s"},
      {"disk_bytes_per_raw_byte",
       static_cast<double>(result.verify.disk_bytes) / raw, "ratio"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"setup_s", result.setup_s, "s"},
      {"completed_frac",
       1.0 - static_cast<double>(result.failed) /
                 static_cast<double>(result.attempted),
       "ratio"},
  };
  result.correct = result.failed == 0;
  if (!result.correct)
    result.error = std::to_string(result.failed) + " failed operations";
  return result;
}

// ---------------------------------------------------------------------------
// Kernel calibration (same process, same host, one generated CM1 block)
// ---------------------------------------------------------------------------

struct Kernels {
  double memcpy_mb_s = 0.0;
  double crc32c_mb_s = 0.0;
  double codec_mb_s = 0.0;
};

template <typename Fn>
double throughput_mb_s(std::size_t bytes, Fn&& fn) {
  // At least 0.2 s and 8 passes, so one scheduler hiccup does not decide it.
  const auto start = Clock::now();
  std::size_t passes = 0;
  double elapsed = 0.0;
  while (passes < 8 || elapsed < 0.2) {
    fn();
    ++passes;
    elapsed = seconds_between(start, Clock::now());
  }
  return static_cast<double>(bytes * passes) / 1e6 / elapsed;
}

Kernels calibrate_kernels(std::uint64_t seed) {
  sim::Cm1Proxy proxy(proxy_config(seed, 0, 1));
  proxy.step();  // one real step, so the block is not the initial state
  const std::span<const std::byte> block = proxy.field_bytes().at("theta");
  std::vector<std::byte> copy(block.size());
  volatile std::uint64_t sink = 0;
  Kernels k;
  k.memcpy_mb_s = throughput_mb_s(block.size(), [&] {
    std::memcpy(copy.data(), block.data(), block.size());
    sink = sink + std::to_integer<std::uint64_t>(copy[sink % copy.size()]);
  });
  const std::size_t chunk = std::min<std::size_t>(block.size(), kChunkSize);
  k.crc32c_mb_s = throughput_mb_s(chunk, [&] {
    sink = sink + storage::crc32c(block.subspan(0, chunk));
  });
  const auto codec = dedicore::compress::codec_id("xor+lzs");
  k.codec_mb_s = throughput_mb_s(block.size(), [&] {
    sink = sink + dedicore::compress::compress_frame(codec, block).size();
  });
  return k;
}

// ---------------------------------------------------------------------------
// The traced run: closure check, per-layer metrics, trace file
// ---------------------------------------------------------------------------

double span_median(const Tracer& tracer, const char* name, double scale) {
  const std::vector<double> d = tracer.durations(name);
  return d.empty() ? 0.0 : median_of(d) * scale;
}

/// Smallest share of a client's time (first exchange to the end of
/// finalize) covered by its exchange, step, write and end_iteration spans.
double closure_min(const std::vector<Span>& spans, int clients) {
  double worst = 1.0;
  for (int c = 0; c < clients; ++c) {
    Clock::time_point first = Clock::time_point::max(), last = Clock::time_point::min();
    double covered = 0.0;
    for (const Span& s : spans) {
      if (s.client != c) continue;
      const std::string name = s.name;
      if (name == "sim.exchange") first = std::min(first, s.start);
      if (name == "client.finalize") last = std::max(last, s.end);
      if (name == "sim.exchange" || name == "sim.step" ||
          name == "client.write" || name == "client.end_iteration")
        covered += s.seconds();
    }
    if (first >= last) return 0.0;
    worst = std::min(worst, covered / seconds_between(first, last));
  }
  return worst;
}

/// What reached the disk: the backend's own stats on a posix root, the sum
/// over roots on sharded roots (whose logical stats count only images
/// written through create/close, not the write-behind chunk path).
storage::StorageStats physical_stats(const storage::StorageBackend& backend) {
  const auto* sharded = dynamic_cast<const storage::ShardedBackend*>(&backend);
  if (sharded == nullptr) return backend.stats();
  storage::StorageStats sum;
  for (const storage::StorageStats& root : sharded->root_stats()) {
    sum.files_created += root.files_created;
    sum.writes += root.writes;
    sum.bytes_written += root.bytes_written;
    sum.write_seconds += root.write_seconds;
    sum.files_quarantined += root.files_quarantined;
  }
  return sum;
}

std::vector<Metric> per_layer(const RunResult& run, const Tracer& tracer,
                              const Kernels& k, const RunResult& untraced,
                              double closure) {
  const World& world = run.world;
  const ServerLog& server = server_of(world);
  const core::NodeRuntime& node = *server.node;
  const core::ServerStats& ss = server.stats;

  std::uint64_t write_bytes = 0, events_sent = 0, wire_messages = 0;
  std::uint64_t credit_waits = 0, acquire_failures = 0;
  for (const RankLog& r : world.ranks) {
    if (r.server) continue;
    write_bytes += r.client.stats.bytes_written;
    events_sent += r.client.transport.events_sent;
    wire_messages += r.client.transport.wire_messages;
    credit_waits += r.client.transport.credit_waits;
    acquire_failures += r.client.transport.acquire_failures;
  }
  double write_seconds = 0.0;
  for (double d : tracer.durations("client.write")) write_seconds += d;
  const double write_mb_s = static_cast<double>(write_bytes) / 1e6 / write_seconds;

  const auto seg = server.node->segment().stats();
  const core::EmitStats emit = node.emit->stats();
  const storage::WriteBehindStats wb = node.write_behind->stats();
  const storage::StorageStats st = physical_stats(*node.storage);
  storage::ShardedCounters sharded;
  if (const auto* b = dynamic_cast<const storage::ShardedBackend*>(node.storage.get()))
    sharded = b->counters();
  constexpr double kMiB = 1024.0 * 1024.0;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  return {
      {"sim.step_ms_p50", span_median(tracer, "sim.step", 1e3), "ms"},
      {"sim.exchange_ms_p50", span_median(tracer, "sim.exchange", 1e3), "ms"},
      {"client.write_us_p50", span_median(tracer, "client.write", 1e6), "us"},
      {"client.write_us_p90",
       [&] {
         dedicore::SampleSet set;
         set.add_all(tracer.durations("client.write"));
         return set.percentile(0.9) * 1e6;
       }(),
       "us"},
      {"client.end_iteration_us_p50",
       span_median(tracer, "client.end_iteration", 1e6), "us"},
      {"client.copy_efficiency", ratio(write_mb_s, k.memcpy_mb_s), "ratio"},
      {"kernel.memcpy_mb_s", k.memcpy_mb_s, "MB/s"},
      {"shm.peak_used_mb", static_cast<double>(seg.peak_used) / kMiB, "MiB"},
      {"shm.allocations", static_cast<double>(seg.allocations), "count"},
      {"shm.failed_allocations", static_cast<double>(seg.failed_allocations), "count"},
      {"transport.credit_waits", static_cast<double>(credit_waits), "count"},
      {"transport.acquire_failures", static_cast<double>(acquire_failures), "count"},
      {"transport.events_per_wire_message",
       ratio(static_cast<double>(events_sent), static_cast<double>(wire_messages)),
       "ratio"},
      {"transport.steals", static_cast<double>(ss.steals), "count"},
      {"transport.idle_drains", static_cast<double>(ss.idle_drain_jobs), "count"},
      {"server.idle_frac", ss.idle_fraction(), "ratio"},
      {"server.busy_s", ss.busy_seconds, "s"},
      {"server.pipeline_ms_p50", ss.pipeline_time.median * 1e3, "ms"},
      {"server.store_plugin_ms_p50", span_median(tracer, "core.store_plugin", 1e3), "ms"},
      {"emit.compress_s", emit.compress_seconds, "s"},
      {"emit.codec_mb_s",
       ratio(static_cast<double>(emit.raw_bytes) / 1e6, emit.compress_seconds), "MB/s"},
      {"emit.achieved_ratio", emit.achieved_ratio(), "ratio"},
      {"emit.probes", static_cast<double>(emit.probes), "count"},
      {"emit.adaptive_skips", static_cast<double>(emit.adaptive_skips), "count"},
      {"kernel.codec_mb_s", k.codec_mb_s, "MB/s"},
      {"wb.enqueue_block_s", wb.enqueue_block_seconds, "s"},
      {"wb.drain_s", wb.drain_seconds, "s"},
      {"wb.max_pending_mb", static_cast<double>(wb.max_pending_bytes) / kMiB, "MiB"},
      {"wb.jobs_written", static_cast<double>(wb.jobs_written), "count"},
      {"wb.retries", static_cast<double>(wb.retries), "count"},
      {"wb.jobs_quarantined", static_cast<double>(wb.jobs_quarantined), "count"},
      {"storage.write_s", st.write_seconds, "s"},
      {"storage.write_mb_s",
       ratio(static_cast<double>(st.bytes_written) / 1e6, st.write_seconds), "MB/s"},
      {"storage.files_created", static_cast<double>(st.files_created), "count"},
      {"sharded.chunks_written", static_cast<double>(sharded.chunks_written), "count"},
      {"sharded.manifests_published", static_cast<double>(sharded.manifests_published),
       "count"},
      {"sharded.corrupt_chunks_detected",
       static_cast<double>(sharded.corrupt_chunks_detected), "count"},
      {"kernel.crc32c_mb_s", k.crc32c_mb_s, "MB/s"},
      {"trace.overhead_retired_mb_s", run.retired_mb_s - untraced.retired_mb_s, "MB/s"},
      {"trace.overhead_stall_p50_ms", run.stall_p50_ms - untraced.stall_p50_ms, "ms"},
      {"trace.closure_min", closure, "ratio"},
  };
}

// ---------------------------------------------------------------------------
// Host fingerprint and output
// ---------------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string fs_type(const fs::path& path) {
  struct statfs info{};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlay";
    case 0x6969: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(": ");
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string host_json(const Options& opt) {
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":" << json_string(cpu_model())
      << ",\"compiler\":" << json_string(CM1BENCH_COMPILER)
      << ",\"build_type\":" << json_string(CM1BENCH_BUILD_TYPE)
      << ",\"roots_fs\":" << json_string(fs_type(opt.workdir))
      << ",\"workload\":" << json_string(opt.workload->name)
      << ",\"seed\":" << opt.seed << "}";
  return out.str();
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_trace_file(const Options& opt, const Tracer& tracer,
                      const RunResult& run, const std::vector<Metric>& layers) {
  const fs::path dir = opt.workdir / "traces";
  fs::create_directories(dir);
  const fs::path path = dir / (std::string(opt.workload->name) + "-seed" +
                               std::to_string(opt.seed) + ".json");
  std::ofstream out(path);
  const std::vector<Span> spans = tracer.spans();
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans) origin = std::min(origin, s.start);

  const ServerLog& server = server_of(run.world);
  const core::NodeRuntime& node = *server.node;
  const core::ServerStats& ss = server.stats;
  const core::EmitStats emit = node.emit->stats();
  const storage::WriteBehindStats wb = node.write_behind->stats();
  const storage::StorageStats st = physical_stats(*node.storage);
  const auto seg = server.node->segment().stats();

  out << "{\"host\":" << host_json(opt) << ",\n\"counters\":{";
  out << "\"server\":{\"workers\":" << ss.workers << ",\"idle_seconds\":"
      << number(ss.idle_seconds) << ",\"busy_seconds\":" << number(ss.busy_seconds)
      << ",\"events_processed\":" << ss.events_processed
      << ",\"blocks_received\":" << ss.blocks_received
      << ",\"bytes_received\":" << ss.bytes_received
      << ",\"blocks_received_remote\":" << ss.blocks_received_remote
      << ",\"iterations_completed\":" << ss.iterations_completed
      << ",\"steals\":" << ss.steals << ",\"idle_drain_jobs\":" << ss.idle_drain_jobs
      << ",\"bytes_written\":" << ss.bytes_written
      << ",\"files_written\":" << ss.files_written
      << ",\"storage_failures\":" << ss.storage_failures
      << ",\"emit_raw_bytes\":" << ss.emit_raw_bytes
      << ",\"emit_stored_bytes\":" << ss.emit_stored_bytes
      << ",\"compress_seconds\":" << number(ss.compress_seconds)
      << ",\"pipeline_p50_s\":" << number(ss.pipeline_time.median) << "},\n";
  out << "\"clients\":[";
  bool first = true;
  for (const RankLog& r : run.world.ranks) {
    if (r.server) continue;
    const auto& c = r.client;
    out << (first ? "" : ",") << "\n {\"rank\":" << r.client_rank
        << ",\"writes\":" << c.stats.writes
        << ",\"bytes_written\":" << c.stats.bytes_written
        << ",\"iterations\":" << c.stats.iterations
        << ",\"skipped_iterations\":" << c.stats.skipped_iterations
        << ",\"dropped_blocks\":" << c.stats.dropped_blocks
        << ",\"transport\":{\"events_sent\":" << c.transport.events_sent
        << ",\"blocks_shipped\":" << c.transport.blocks_shipped
        << ",\"bytes_shipped\":" << c.transport.bytes_shipped
        << ",\"acquire_failures\":" << c.transport.acquire_failures
        << ",\"credit_waits\":" << c.transport.credit_waits
        << ",\"wire_messages\":" << c.transport.wire_messages << "}}";
    first = false;
  }
  out << "],\n\"segment\":{\"capacity\":" << seg.capacity
      << ",\"peak_used\":" << seg.peak_used << ",\"allocations\":" << seg.allocations
      << ",\"frees\":" << seg.frees
      << ",\"failed_allocations\":" << seg.failed_allocations << "},\n";
  out << "\"emit\":{\"datasets_compressed\":" << emit.datasets_compressed
      << ",\"datasets_stored_raw\":" << emit.datasets_stored_raw
      << ",\"adaptive_skips\":" << emit.adaptive_skips << ",\"probes\":" << emit.probes
      << ",\"raw_bytes\":" << emit.raw_bytes << ",\"stored_bytes\":" << emit.stored_bytes
      << ",\"compress_seconds\":" << number(emit.compress_seconds)
      << ",\"probe_seconds\":" << number(emit.probe_seconds) << "},\n";
  out << "\"write_behind\":{\"jobs_enqueued\":" << wb.jobs_enqueued
      << ",\"jobs_written\":" << wb.jobs_written << ",\"jobs_failed\":" << wb.jobs_failed
      << ",\"jobs_quarantined\":" << wb.jobs_quarantined << ",\"retries\":" << wb.retries
      << ",\"bytes_enqueued\":" << wb.bytes_enqueued
      << ",\"bytes_written\":" << wb.bytes_written
      << ",\"enqueue_block_seconds\":" << number(wb.enqueue_block_seconds)
      << ",\"drain_seconds\":" << number(wb.drain_seconds)
      << ",\"max_pending_bytes\":" << wb.max_pending_bytes << "},\n";
  out << "\"storage\":{\"files_created\":" << st.files_created << ",\"writes\":" << st.writes
      << ",\"bytes_written\":" << st.bytes_written
      << ",\"write_seconds\":" << number(st.write_seconds)
      << ",\"files_quarantined\":" << st.files_quarantined << "}";
  if (const auto* b = dynamic_cast<const storage::ShardedBackend*>(node.storage.get()))
    out << ",\n\"sharded\":" << b->stats_json();
  out << "},\n\"per_layer\":{";
  for (std::size_t i = 0; i < layers.size(); ++i)
    out << (i ? "," : "") << "\n " << json_string(layers[i].name) << ":"
        << number(layers[i].value);
  out << "},\n\"spans\":";
  tracer.write_json(out, origin);
  out << "}\n";
  std::printf("# trace: %zu spans written to %s\n", spans.size(), path.c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("# %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": " + json_string(metrics[i].unit) + "}";
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Every per-iteration stall of the run, for run.py to pool the sub-runs'
/// samples before taking stall_p50_ms and stall_p90_ms.
void print_stall_samples(const RunResult& run) {
  std::string line = "# stalls_ms";
  char buf[32];
  for (const RankLog& r : run.world.ranks)
    for (double s : r.client.stalls) {
      std::snprintf(buf, sizeof buf, " %.9g", s * 1e3);
      line += buf;
    }
  std::printf("%s\n", line.c_str());
}

void report_run(const char* label, const RunResult& run) {
  std::printf("# %s run: %lld iterations, %zu stall samples (clients x iterations), "
              "%llu images verified, %llu bytes recovered, verifier self-check "
              "rejected the corrupted copy\n",
              label, static_cast<long long>(run.iterations), run.stall_samples,
              static_cast<unsigned long long>(run.verify.images),
              static_cast<unsigned long long>(run.verify.raw_bytes));
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cm1bench: %s\nusage: cm1bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads)
        if (value == w.name) opt.workload = &w;
      if (opt.workload == nullptr) usage(("unknown workload " + value).c_str());
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (opt.workload == nullptr || !have_seed || !(opt.seconds > 0.0) ||
      opt.workdir.empty())
    usage("--workload, --seed, --seconds and --workdir are required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  register_timed_store();
  fs::create_directories(opt.workdir);
  const fs::path dir = opt.workdir / ("run-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  std::printf("# host %s\n", host_json(opt).c_str());

  bool correct = false;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  std::string error;
  try {
    Tracer untraced_tracer(false);
    RunResult untraced = measure(opt, dir / "untraced", untraced_tracer);
    fs::remove_all(dir / "untraced");
    if (!untraced.error.empty()) {
      error = untraced.error;
    } else if (!opt.trace) {
      report_run("untraced", untraced);
      print_stall_samples(untraced);
      correct = untraced.correct;
      attempted = untraced.attempted;
      failed = untraced.failed;
      metrics = untraced.end_to_end;
    } else {
      const Kernels kernels = calibrate_kernels(opt.seed);
      Tracer tracer(true);
      RunResult traced = measure(opt, dir / "traced", tracer);
      if (!traced.error.empty()) {
        error = traced.error;
      } else {
        report_run("traced", traced);
        const double closure = closure_min(tracer.spans(), opt.workload->clients);
        metrics = per_layer(traced, tracer, kernels, untraced, closure);
        write_trace_file(opt, tracer, traced, metrics);
        attempted = traced.attempted;
        failed = traced.failed;
        correct = traced.correct;
        if (closure < kClosureFloor) {
          correct = false;
          error = "client-timeline closure " + number(closure) + " below " +
                  number(kClosureFloor);
        }
      }
    }
  } catch (const std::exception& e) {
    error = std::string("exception: ") + e.what();
  }
  fs::remove_all(dir);
  if (!error.empty()) std::printf("# FAILED: %s\n", error.c_str());
  print_result(correct && error.empty(), attempted, failed, metrics);
  return correct && error.empty() ? 0 : 1;
}
