// Shared pieces of the benchmark driver: workload sizing, the metric and
// operation tally every phase reports into, and small measurement helpers.
#ifndef VQIBENCH_COMMON_H_
#define VQIBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vqibench {

/// Sizes and traffic of one workload. Every workload runs the same
/// lifecycle (set-up, VQI build, maintenance stream, HTTP serving); the
/// spec decides which data, which fleet and which traffic it sees.
struct Spec {
  std::string name;
  bool network = false;        // one labelled BA network instead of molecules
  size_t graphs = 0;           // molecules in the collection
  size_t vertices = 0;         // network vertices
  size_t setup_reps = 9;       // least set-ups per run (setup_s: median)
  double setup_budget_s = 3;   // ...and set up again until this long spent
  size_t build_reps = 1;       // VQI builds per run (build_s is their median)
  std::vector<char> batches;   // offline stream: 'm' minor, 'M' major
  bool router = false;         // 2 shards x 2 replicas instead of one service
  bool zipf = true;            // popular patterns; false = all distinct
  size_t pool = 64;            // distinct items per request kind (zipf)
  double zipf_exponent = 1.1;  // popularity of pool items; 0 = uniform
  size_t closed_rounds = 16;   // closed-loop chunks, each as long as the open loop
  size_t live_batches = 0;     // minor batches during the open loop
  bool warm = false;           // send every Zipf pool item once beforehand
  size_t oracle_sample = 40;   // match responses per kind checked by oracle
  size_t replay = 60;          // traced replay requests per kind
};

Spec SpecFor(const std::string& workload, bool fast);

/// How fast the machine runs right now, read from a fixed reference kernel
/// (sorting a fixed array) in the benchmark's own code. The machine this
/// benchmark was tuned on changes speed by up to 1.7x within seconds, and a
/// timed phase sped up or slowed down with it; a phase's time divided by the
/// kernel's time around it does not. Timings are reported at the reference
/// speed: raw seconds x kReferenceMs / the kernel's milliseconds measured
/// just before and just after the phase.
class Speed {
 public:
  static constexpr double kReferenceMs = 1.0;

  Speed();
  /// Runs the kernel a few times; returns the median milliseconds and keeps
  /// it for KernelMs().
  double Sample();
  /// `raw` (any time unit) at the reference speed, given the kernel
  /// milliseconds sampled before and after the phase.
  static double Scale(double raw, double before_ms, double after_ms) {
    return raw * kReferenceMs * 2 / (before_ms + after_ms);
  }
  /// Median kernel milliseconds over every sample of the run.
  double KernelMs() const;

 private:
  std::vector<uint32_t> input_;
  std::vector<double> samples_;
  uint64_t sink_ = 0;
};

/// Runs `phase` between two kernel samples and times it.
struct PhaseTime {
  double raw_s = 0;     // wall seconds
  double scaled_s = 0;  // seconds at the reference speed
};
template <typename F>
PhaseTime TimePhase(Speed* speed, F&& phase) {
  double before = speed->Sample();
  auto start = std::chrono::steady_clock::now();
  phase();
  double raw = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start).count();
  return {raw, Speed::Scale(raw, before, speed->Sample())};
}

/// Operation tally and metrics of one run.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failures other than those of a known fault of the program (stale
  /// suggestions, the router's suggestion merge, unrealised patterns); any
  /// makes the run incorrect.
  uint64_t unexpected = 0;
  std::vector<std::string> problems;
  /// Scales every timed phase to the reference speed.
  Speed speed;
  std::map<std::string, std::pair<double, std::string>> e2e;
  /// End-to-end timings as measured, before scaling (printed to stderr).
  std::map<std::string, double> raw;
  std::map<std::string, std::pair<double, std::string>> layer;

  /// Counts one operation; `known_fault` marks a failure of one of the
  /// documented known faults.
  void Op(bool ok, const std::string& what = "", bool known_fault = false);
  void E2E(const std::string& name, double value, const std::string& unit) {
    e2e[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer[name] = {value, unit};
  }
};

double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
/// Peak and current resident set size of this process, MiB.
double PeakRssMb();
double CurrentRssMb();
/// User plus system CPU seconds consumed by this process so far.
double CpuSeconds();

/// Confines every thread of this process, and the threads they start, to
/// one CPU (the last one the process may use), or lets them use all its
/// CPUs again. On a virtual machine a wake-up that crosses CPUs can cost a
/// tenth of a millisecond: how often that happens depends on where the
/// scheduler puts the threads, so latency medians of whole processes split
/// into modes 40% apart. On one CPU they do not. Returns false when the
/// affinity could not be set.
bool UseOneCpu(bool one);

}  // namespace vqibench

#endif  // VQIBENCH_COMMON_H_
