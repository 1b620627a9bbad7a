#include "common.h"

#include <signal.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "serve/worker_process.h"
#include "workloads.h"
#include "util/simd.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail TailOf(const std::vector<double>& values) {
  Tail tail;
  tail.samples = static_cast<int64_t>(values.size());
  if (tail.samples > 0) {
    const double highest =
        100.0 * (1.0 - 10.0 / static_cast<double>(tail.samples));
    tail.percentile = std::clamp(highest, 50.0, 99.0);
  }
  tail.value = Percentile(values, tail.percentile);
  return tail;
}

double SelfPeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double LargestChildPeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

dcs::StatusOr<ScratchDir> ScratchDir::Create(const std::string& root) {
  std::error_code error;
  std::filesystem::create_directories(root, error);
  if (error) {
    return dcs::UnavailableError("cannot create " + root + ": " +
                                 error.message());
  }
  std::string pattern = root + "/run-XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    return dcs::UnavailableError("mkdtemp under " + root + ": " +
                                 std::strerror(errno));
  }
  ScratchDir dir;
  dir.path_ = pattern;
  return dir;
}

ScratchDir::ScratchDir(ScratchDir&& other) noexcept
    : path_(std::move(other.path_)) {
  other.path_.clear();
}

ScratchDir& ScratchDir::operator=(ScratchDir&& other) noexcept {
  if (this != &other) {
    this->~ScratchDir();
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

ScratchDir::~ScratchDir() {
  if (path_.empty()) return;
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
  path_.clear();
}

Worker::Worker(Worker&& other) noexcept : pid_(other.pid_) {
  other.pid_ = -1;
}

Worker& Worker::operator=(Worker&& other) noexcept {
  if (this != &other) {
    Kill();
    pid_ = other.pid_;
    other.pid_ = -1;
  }
  return *this;
}

Worker::~Worker() { Kill(); }

dcs::StatusOr<Worker> Worker::Spawn(const std::string& binary,
                                    const dcs::Endpoint& endpoint,
                                    const dcs::ClusterWorkerOptions& options,
                                    int ready_timeout_ms) {
  options.Check();
  if (::access(binary.c_str(), X_OK) != 0) {
    return dcs::NotFoundError("server binary " + binary +
                              " is not executable: " + std::strerror(errno));
  }
  std::vector<std::string> args = {
      binary,
      "--listen", endpoint.ToSpec(),
      "--shards", std::to_string(options.num_shards),
      "--queue-capacity", std::to_string(options.queue_capacity),
      "--io-timeout-ms", std::to_string(options.io_timeout_ms),
      "--accept-timeout-ms", std::to_string(options.accept_timeout_ms)};
  if (!options.store_dir.empty()) {
    args.insert(args.end(), {"--store-dir", options.store_dir, "--warm-cache",
                             std::to_string(options.warm_cache_entries)});
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    return dcs::UnavailableError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Die with the benchmark, whatever kills it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(126);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  Worker worker;
  worker.pid_ = pid;
  const dcs::Status ready =
      dcs::WaitForWorkerReady(endpoint, ready_timeout_ms);
  if (!ready.ok()) {
    worker.Kill();
    return ready;
  }
  return worker;
}

dcs::Status Worker::Drain() {
  if (pid_ <= 0) return dcs::NotFoundError("worker is not running");
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  int status = 0;
  while (true) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (done < 0 && errno != EINTR) {
      pid_ = -1;
      return dcs::InternalError(std::string("waitpid: ") +
                                std::strerror(errno));
    }
    if (Clock::now() > deadline) {
      Kill();
      return dcs::DeadlineExceededError("worker did not drain within 20 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return dcs::InternalError("worker drain ended with status " +
                              std::to_string(status));
  }
  return dcs::OkStatus();
}

void Worker::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();  // drop trailing NULs
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

std::string MachineFingerprint() {
  return "cpu=\"" + CpuModel() + "\" cores=" +
         std::to_string(std::thread::hardware_concurrency()) +
         " simd=" + dcs::simd::DispatchPathName(dcs::simd::ActivePath()) +
         " compiler=\"" PERFBENCH_COMPILER "\" build=" PERFBENCH_BUILD_TYPE;
}

dcs::VertexSet RandomSide(int n, dcs::Rng& rng) {
  dcs::VertexSet side(static_cast<size_t>(n), 0);
  for (int v = 0; v < n; ++v) side[static_cast<size_t>(v)] = rng.Bernoulli(0.5);
  side[0] = 1;
  side[1] = 0;
  return side;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

int64_t CounterDelta(const dcs::metrics::MetricsSnapshot& before,
                     const dcs::metrics::MetricsSnapshot& after,
                     const std::string& name) {
  const auto read = [&name](const dcs::metrics::MetricsSnapshot& s) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? int64_t{0} : it->second;
  };
  return read(after) - read(before);
}

double DistributionMeanDelta(const dcs::metrics::MetricsSnapshot& before,
                             const dcs::metrics::MetricsSnapshot& after,
                             const std::string& name) {
  const dcs::metrics::MetricsSnapshot diff = after.DiffSince(before);
  const auto it = diff.distributions.find(name);
  return it == diff.distributions.end() ? 0.0 : it->second.mean();
}

uint64_t MixDigest(uint64_t digest, uint64_t value) {
  uint64_t z = digest ^ (value + 0x9E3779B97F4A7C15ULL + (digest << 6) +
                         (digest >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

dcs::Status WriteTextFile(const std::string& path, const std::string& text) {
  std::error_code error;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), error);
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.close();
  if (!out) return dcs::UnavailableError("cannot write " + path);
  return dcs::OkStatus();
}

std::vector<double> LatenciesUs(const std::vector<OpSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const OpSample& sample : samples) out.push_back(sample.latency_us);
  return out;
}

void AddEndToEnd(EndToEnd e2e, const Aliases& aliases, Result& result) {
  constexpr size_t kMinWindowSamples = 20;
  constexpr size_t kMaxWindows = 10;
  std::vector<OpSample>& samples = e2e.samples;
  std::sort(samples.begin(), samples.end(),
            [](const OpSample& a, const OpSample& b) {
              return a.clock_s < b.clock_s;
            });
  const size_t n = samples.size();
  const size_t windows =
      std::clamp<size_t>(n / kMinWindowSamples, 1, kMaxWindows);
  std::vector<double> rates, p50s;
  double window_start = 0;
  for (size_t w = 0; w < windows && n > 0; ++w) {
    const size_t lo = n * w / windows;
    const size_t hi = n * (w + 1) / windows;
    double ops = 0;
    std::vector<double> window;
    for (size_t i = lo; i < hi; ++i) {
      ops += samples[i].ops;
      window.push_back(samples[i].latency_us);
    }
    const double window_end = samples[hi - 1].clock_s;
    rates.push_back(ops / std::max(window_end - window_start, 1e-9));
    window_start = window_end;
    p50s.push_back(Median(window));
  }
  const double ops_per_s = Median(rates);
  const double p50 = Median(p50s);
  const Tail tail = TailOf(LatenciesUs(samples));
  result.end_to_end = {{"setup_s", e2e.setup_s, "s"},
                       {"ops_per_s", ops_per_s, "1/s"},
                       {"op_p50_us", p50, "us"},
                       {"peak_rss_mb", e2e.peak_rss_mb, "MB"}};
  // The tail is reported but not gated (README.md, "Why the tail is not
  // gated").
  result.per_layer.push_back({"op_tail_us", tail.value, "us"});
  const double scale = aliases.latency_unit == "ms" ? 1e-3 : 1.0;
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "%s=%.6g 1/s, %s=%.6g %s (medians of %zu windows), "
                "%s=%.6g %s (p%.4g of %zu samples)",
                aliases.ops_per_s.c_str(), ops_per_s, aliases.op_p50.c_str(),
                p50 * scale, aliases.latency_unit.c_str(), windows,
                aliases.op_tail.c_str(), tail.value * scale,
                aliases.latency_unit.c_str(), tail.percentile, n);
  result.notes.push_back(buffer);
}

double TraceOverheadPct(double untraced_median, double traced_median) {
  if (untraced_median <= 0) return 0;
  return (traced_median - untraced_median) / untraced_median * 100.0;
}

}  // namespace perfbench
