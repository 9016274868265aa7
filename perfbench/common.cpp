//===- perfbench/common.cpp - Ledger, tracer, probe, metric names ---------===//

#include "common.h"

#include "parallel/scheduler.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <unistd.h>

namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t I = size_t(Q * double(V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

double p99OrMedian(const std::vector<double> &V) {
  return V.size() >= 1000 ? quantile(V, 0.99) : median(V);
}

void Ledger::fail(const std::string &Why) {
  Failed.fetch_add(1);
  std::lock_guard<std::mutex> G(M);
  if (Reported++ < 8)
    std::fprintf(stderr, "perfbench: operation failed: %s\n", Why.c_str());
}

void Ledger::mismatch(const std::string &Why) {
  Mismatched.fetch_add(1);
  fail("check mismatch: " + Why);
}

int64_t Tracer::record(const char *Name, Clock::time_point S,
                       Clock::time_point E, int64_t Parent,
                       uint64_t Request) {
  if (!On)
    return -1;
  std::lock_guard<std::mutex> G(M);
  Spans.push_back(Span{Name, ns(S), ns(E), Parent, Request});
  return int64_t(Spans.size() - 1);
}

std::vector<double> Tracer::durations(const char *Name) const {
  std::lock_guard<std::mutex> G(M);
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (std::string(S.Name) == Name)
      Out.push_back(double(S.EndNs - S.StartNs) * 1e-9);
  return Out;
}

std::map<std::string, Tracer::NameStats> Tracer::selfTimes() const {
  std::lock_guard<std::mutex> G(M);
  // Children of each span, then self = duration - union of the children's
  // intervals clipped to the parent's.
  std::vector<std::vector<size_t>> Kids(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Kids[size_t(Spans[I].Parent)].push_back(I);
  std::map<std::string, NameStats> Out;
  std::vector<std::pair<int64_t, int64_t>> Iv;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Iv.clear();
    for (size_t K : Kids[I])
      Iv.emplace_back(std::max(S.StartNs, Spans[K].StartNs),
                      std::min(S.EndNs, Spans[K].EndNs));
    std::sort(Iv.begin(), Iv.end());
    int64_t Covered = 0, Reach = S.StartNs;
    for (auto [A, B] : Iv) {
      A = std::max(A, Reach);
      if (B > A) {
        Covered += B - A;
        Reach = B;
      }
    }
    NameStats &N = Out[S.Name];
    ++N.Count;
    N.Total += double(S.EndNs - S.StartNs) * 1e-9;
    N.Self += double(S.EndNs - S.StartNs - Covered) * 1e-9;
  }
  return Out;
}

void Tracer::write(const std::string &Path) const {
  std::ofstream F(Path);
  {
    std::lock_guard<std::mutex> G(M);
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      F << "{\"id\":" << I << ",\"name\":\"" << S.Name
        << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
        << ",\"parent\":" << S.Parent << ",\"request\":" << S.Request
        << "}\n";
    }
  }
  for (const auto &[Name, N] : selfTimes())
    F << "{\"summary\":\"" << Name << "\",\"count\":" << N.Count
      << ",\"total_s\":" << N.Total << ",\"self_s\":" << N.Self << "}\n";
}

double hostProbeSeconds() {
  const size_t N = size_t(1) << 22; // 4M x 8 B = 32 MiB
  std::vector<uint64_t> Next(N);
  for (size_t I = 0; I < N; ++I)
    Next[I] = I;
  // A single random cycle (Sattolo), fixed seed: every run walks the same
  // dependent chain of cache misses.
  std::mt19937_64 Rng(12345);
  for (size_t I = N - 1; I > 0; --I)
    std::swap(Next[I], Next[Rng() % I]);
  auto T0 = Clock::now();
  uint64_t X = 0;
  for (size_t I = 0; I < (size_t(1) << 20); ++I)
    X = Next[X];
  double T = secondsSince(T0);
  if (X == N) // never true; keeps the walk observable
    std::fprintf(stderr, "probe\n");
  return T;
}

CpuTimes readCpuTimes() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  CpuTimes T;
  std::ifstream F("/proc/stat");
  std::string Cpu;
  F >> Cpu;
  if (Cpu != "cpu")
    return T;
  uint64_t V;
  for (int I = 0; I < 8 && F >> V; ++I) {
    T.Total += V;
    if (I == 7)
      T.Steal = V;
  }
  return T;
}

int machineWorkers() { return aspen::numWorkers(); }

std::string freshDir(const Config &C, const std::string &Tag) {
  static std::atomic<unsigned> Counter{0};
  std::string P = C.OutDir + "/" + Tag + "-" + std::to_string(::getpid()) +
                  "-" + std::to_string(Counter.fetch_add(1));
  std::filesystem::remove_all(P);
  std::filesystem::create_directories(P);
  return P;
}

void removeTree(const std::string &Path) {
  std::error_code Ec;
  std::filesystem::remove_all(Path, Ec);
}

uint64_t treeBytes(const std::string &Path) {
  uint64_t B = 0;
  for (const auto &E : std::filesystem::directory_iterator(Path))
    if (E.is_regular_file())
      B += E.file_size();
  return B;
}

const std::vector<std::pair<std::string, std::string>> &endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"setup_s", "s"},     {"bytes_per_edge", "B/edge"},
      {"op_p50_s", "s"},    {"op_p90_s", "s"},
      {"heavy_p50_s", "s"}, {"work_s", "s"},
  };
  return M;
}

const std::vector<std::pair<std::string, std::string>> &layerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"serve.query_p99_s", "s"},
      {"serve.queries_after_writes", "count"},
      {"serve.admit_wait_p50_s", "s"},
      {"serve.admit_wait_p99_s", "s"},
      {"serve.visible_p50_s", "s"},
      {"serve.visible_p90_s", "s"},
      {"serve.epoch_lag_mean", "batches"},
      {"serve.session_waits", "count"},
      {"store.flat_pin_p50_s", "s"},
      {"store.flat_pin_p99_s", "s"},
      {"store.flat_refreshes", "count"},
      {"store.flat_rebuilds", "count"},
      {"store.flat_hits", "count"},
      {"store.flat_build_s", "s"},
      {"store.ingest_eps", "edges/s"},
      {"store.ack_p99_s", "s"},
      {"store.ckpt_load_s", "s"},
      {"store.replay_eps", "edges/s"},
      {"store.disk_bytes_per_edge", "B/edge"},
      {"algorithms.twohop_served_p50_s", "s"},
      {"algorithms.bfs_served_p50_s", "s"},
      {"algorithms.bfs_s", "s"},
      {"algorithms.pagerank_s", "s"},
      {"algorithms.cc_s", "s"},
      {"algorithms.twohop_s", "s"},
      {"algorithms.twohop_p99_s", "s"},
      {"gen.late_max_s", "s"},
      {"wal.group_commits", "count"},
      {"wal.records_per_commit", "records"},
      {"wal.bytes_per_edge", "B/edge"},
      {"checkpoint.s", "s"},
      {"checkpoint.bytes", "B"},
      {"ctree.scan_eps", "edges/s"},
      {"ctree.bfs_tree_s", "s"},
      {"ctree.pagerank_tree_s", "s"},
      {"parallel.pagerank_seq_s", "s"},
      {"memory.alloc_events", "count"},
      {"host.probe_s", "s"},
      {"host.steal_share", "share"},
  };
  return M;
}

} // namespace perfbench
