#include "common.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace vqibench {

void Report::Op(bool ok, const std::string& what, bool known_fault) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (known_fault) return;
  ++unexpected;
  if (problems.size() < 20) problems.push_back(what);
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[rank == 0 ? 0 : rank - 1];
}

namespace {

double StatusFieldMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return StatusFieldMb("VmHWM"); }
double CurrentRssMb() { return StatusFieldMb("VmRSS"); }

Speed::Speed() : input_(12000) {
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint32_t& v : input_) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<uint32_t>(x >> 33);
  }
}

double Speed::Sample() {
  constexpr int kRuns = 5;
  std::vector<double> ms;
  for (int r = 0; r < kRuns; ++r) {
    auto start = std::chrono::steady_clock::now();
    std::vector<uint32_t> work = input_;
    std::sort(work.begin(), work.end());
    sink_ += work[work.size() / 2];
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  double median = Median(ms);
  samples_.push_back(median);
  return median;
}

double Speed::KernelMs() const { return Median(samples_); }

bool UseOneCpu(bool one) {
  static cpu_set_t all;
  static bool saved = false;
  if (!saved) {
    if (sched_getaffinity(0, sizeof(all), &all) != 0) return false;
    saved = true;
  }
  cpu_set_t mask = all;
  if (one) {
    CPU_ZERO(&mask);
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &all)) {
        CPU_SET(cpu, &mask);
        break;
      }
    }
  }
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) return false;
  bool ok = true;
  while (dirent* task = readdir(tasks)) {
    if (task->d_name[0] == '.') continue;
    ok &= sched_setaffinity(std::atoi(task->d_name), sizeof(mask), &mask) == 0;
  }
  closedir(tasks);
  return ok;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace vqibench
