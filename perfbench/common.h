//===- perfbench/common.h - Shared pieces of the repo benchmark -----------===//
//
// Run configuration, timing, percentiles, the operation ledger
// (attempted / failed / mismatched), the span tracer, and the host probe.
// Every workload (serve_mixed.cpp, ingest_durable.cpp,
// snapshot_analytics.cpp) fills one RunResult; main.cpp prints it.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_PERFBENCH_COMMON_H
#define ASPEN_PERFBENCH_COMMON_H

#include "util/types.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  int Seconds = 10;   ///< sizes the fixed work; never read as a deadline
  bool Trace = false;
  bool Smoke = false; ///< tiny inputs, every check, a few seconds in all
  std::string OutDir; ///< scratch for durable stores and trace files
};

/// Rank-based quantile of a sample (sorts a copy). \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

/// p99 when at least ten samples lie beyond it, else the median (the
/// sample is too small to have a p99 tail).
double p99OrMedian(const std::vector<double> &V);

/// Operation ledger. Every operation a run attempts is counted once; an
/// operation fails when the program refused or threw, and mismatches when
/// an independent check disagrees with its output (a mismatch is a
/// failure too).
class Ledger {
public:
  void attempt(uint64_t N = 1) { Attempted.fetch_add(N); }
  void fail(const std::string &Why);
  void mismatch(const std::string &Why);
  /// One checked operation: attempted, and a mismatch unless \p Ok.
  void check(bool Ok, const std::string &What) {
    attempt();
    if (!Ok)
      mismatch(What);
  }
  uint64_t attempted() const { return Attempted.load(); }
  uint64_t failed() const { return Failed.load(); }
  bool correct() const { return Mismatched.load() == 0; }

private:
  std::atomic<uint64_t> Attempted{0}, Failed{0}, Mismatched{0};
  std::mutex M;
  unsigned Reported = 0;
};

//===----------------------------------------------------------------------===
// Tracing: spans (name, start, end, parent, request id) around the calls
// the benchmark makes into each layer, kept in memory and written out when
// the run ends.
//===----------------------------------------------------------------------===

struct Span {
  const char *Name;
  int64_t StartNs, EndNs; ///< relative to the tracer's origin
  int64_t Parent;         ///< global span index of the parent, -1 = root
  uint64_t Request;       ///< spans of one request share this id
};

class Tracer {
public:
  explicit Tracer(bool On) : On(On), Origin(Clock::now()) {}
  bool on() const { return On; }

  /// Record a finished span; returns its id (usable as a parent), or -1
  /// when tracing is off. Thread-safe.
  int64_t record(const char *Name, Clock::time_point S, Clock::time_point E,
                 int64_t Parent = -1, uint64_t Request = 0);

  /// Durations (seconds) of every span named \p Name.
  std::vector<double> durations(const char *Name) const;

  /// Per-name count, total and self time (duration minus the part of its
  /// interval covered by child spans).
  struct NameStats {
    uint64_t Count = 0;
    double Total = 0, Self = 0;
  };
  std::map<std::string, NameStats> selfTimes() const;

  /// Write every span as JSON lines, then a summary line per name.
  void write(const std::string &Path) const;

private:
  int64_t ns(Clock::time_point T) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Origin)
        .count();
  }
  bool On;
  Clock::time_point Origin;
  mutable std::mutex M;
  std::vector<Span> Spans;
};

/// Everything one run reports.
struct RunResult {
  std::map<std::string, double> EndToEnd; ///< printed with --trace 0
  std::map<std::string, double> Layers;    ///< printed with --trace 1
  /// What each role-based end-to-end metric is in this workload (stderr).
  std::map<std::string, std::string> EndToEndName;
  std::vector<std::string> Notes;          ///< one-line facts (stderr)
};

/// A fixed single-thread memory kernel that touches no program code:
/// a dependent random walk over a 32 MiB table. Its time tells drift on
/// the host apart from a change in the program.
double hostProbeSeconds();

/// Share of the machine's CPU time the hypervisor gave to others (steal)
/// between two readings of /proc/stat; 0 where it cannot be read. Runs of
/// every workload slow down with it, while host.probe_s does not see it.
struct CpuTimes {
  uint64_t Steal = 0, Total = 0;
};
CpuTimes readCpuTimes();
inline double stealShare(const CpuTimes &A, const CpuTimes &B) {
  if (B.Total <= A.Total)
    return 0.0;
  return double(B.Steal - A.Steal) / double(B.Total - A.Total);
}

/// Workers the program's scheduler runs with ("machine/workers").
int machineWorkers();

/// Fresh empty directory under Config::OutDir (removed by the caller).
std::string freshDir(const Config &C, const std::string &Tag);
void removeTree(const std::string &Path);
uint64_t treeBytes(const std::string &Path);

/// Median of \p Reps timings of \p Fn (each timed separately).
template <class F> double medianTime(int Reps, const F &Fn) {
  std::vector<double> T;
  for (int I = 0; I < Reps; ++I) {
    auto T0 = Clock::now();
    Fn();
    T.push_back(secondsSince(T0));
  }
  return median(T);
}

void runServeMixed(const Config &C, Ledger &L, Tracer &Tr, RunResult &R);
void runIngestDurable(const Config &C, Ledger &L, Tracer &Tr, RunResult &R);
void runSnapshotAnalytics(const Config &C, Ledger &L, Tracer &Tr,
                          RunResult &R);

/// The per-layer metric names, in print order. Layers a workload does
/// not exercise read 0 there.
const std::vector<std::pair<std::string, std::string>> &layerMetrics();
/// The end-to-end metric names and units.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

} // namespace perfbench

#endif // ASPEN_PERFBENCH_COMMON_H
