// Measuring program of the repository benchmark. perfbench/run.py builds
// it, runs it and checks what it prints; see perfbench/README.md.
//
//   qb_perfbench timed  --workload W --sim-seed S --seconds N --workers T --dir D
//   qb_perfbench traced --workload W --sim-seed S --workers T --dir D
//   qb_perfbench sweep  --workload W --sim-seed S --workers T --dir D
//   qb_perfbench attrib --sim-seed S --dir D      (-DQB_ATTRIB=ON build only)
//
// Workloads: fig06_cold, fig06_warm (the Figure 6 matrix from an empty /
// a filled private cache under --dir; `sweep --workload fig06_cold` fills
// it) and contention_cold (bench_ext_contention's cell set). Every knob is
// set here through SweepOptions/RunOptions; the QB_* environment is
// cleared first so it cannot change what is measured.
//
// `timed` repeats set-up + Sweep::run() (at least twice) until --seconds
// of measuring have passed and prints, per repetition, the set-up time,
// the wall and CPU time and peak RSS of run(), the sweep counters and a
// digest of every ConformanceReport. `traced` runs the sweep once
// untraced and once with SweepOptions::profile, then replays a fixed
// subset of cells single threaded, timing each public call of the
// harness, cache and conformance modules. `sweep` runs one cold sweep and
// writes its manifest. `attrib` replays trial 0 of the replayed tasks and
// a few evaluations under the obs/attrib.h scopes. All output is one JSON
// document on stdout; all files go under --dir.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "conformance/conformance.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/scenario.h"
#include "obs/attrib.h"
#include "obs/run_options.h"
#include "runner/cache.h"
#include "runner/env.h"
#include "runner/fingerprint.h"
#include "runner/sweep.h"
#include "stacks/registry.h"
#include "util/csv.h"
#include "util/hash.h"
#include "util/json.h"

extern char** environ;

namespace quicbench::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Arguments and environment

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t sim_seed = 42;
  double seconds = 0;
  int workers = 4;
  std::string dir;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--sim-seed") {
      a.sim_seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--workers") {
      a.workers = std::stoi(v);
    } else if (k == "--dir") {
      a.dir = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.dir.empty()) throw std::invalid_argument("--dir is required");
  if (a.workers < 1) throw std::invalid_argument("--workers must be >= 1");
  return a;
}

// Drop every QB_* variable (QB_FAST, QB_NO_CACHE, QB_THREADS, QB_PROFILE,
// QB_CACHE_DIR, ...) before any library code reads one, then install the
// observer switches explicitly.
void isolate_from_environment(bool attrib) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("QB_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  obs::RunOptions opts;
  opts.invariants = true;
  opts.attrib = attrib;
  obs::RunOptions::set_current(opts);
}

// ---------------------------------------------------------------------
// Workloads

enum class Family { kFig06, kContention };

struct WorkloadSpec {
  Family family;
  bool warm;
};

WorkloadSpec workload_spec(const std::string& name) {
  if (name == "fig06_cold") return {Family::kFig06, false};
  if (name == "fig06_warm") return {Family::kFig06, true};
  if (name == "contention_cold") return {Family::kContention, false};
  throw std::invalid_argument("unknown workload " + name);
}

// The paper network at paper fidelity (120 s x 5 trials), seeded.
harness::ExperimentConfig paper_config(double buffer_bdp,
                                       std::uint64_t seed) {
  harness::ExperimentConfig cfg = runner::default_config(buffer_bdp);
  if (cfg.duration != time::sec(120) || cfg.trials != 5) {
    throw std::logic_error("default_config is not at paper fidelity");
  }
  cfg.seed = seed;
  return cfg;
}

std::string fig06_key(const stacks::Implementation& impl, double buf) {
  return impl.stack + "/" + stacks::to_string(impl.cca) + "/" +
         harness::format_double(buf, 1);
}

// 1 probe flow + K kernel-CUBIC competitors, as in
// bench/bench_ext_contention.cpp: one anchor starting with the probe and
// K-1 churned flows arriving as a Poisson process with bounded-Pareto
// sizes.
harness::ScenarioConfig contention_scenario(
    const stacks::Implementation& probe, const stacks::Implementation& ref,
    int k, const harness::ExperimentConfig& base) {
  harness::ScenarioConfig sc;
  sc.net = base.net;
  sc.duration = base.duration;
  sc.trials = base.trials;
  sc.seed = base.seed;
  sc.sampling = base.sampling;
  sc.fairness_window = time::sec(5);

  harness::FlowSpec test;
  test.impl = probe;
  test.role = harness::FlowRole::kTest;
  sc.flows.push_back(test);

  harness::FlowSpec anchor;
  anchor.impl = ref;
  anchor.role = harness::FlowRole::kReference;
  anchor.start_spread = base.start_spread;
  sc.flows.push_back(anchor);

  const double dur_sec = time::to_sec(sc.duration);
  for (int i = 1; i < k; ++i) {
    harness::FlowSpec churned;
    churned.impl = ref;
    churned.role = harness::FlowRole::kBackground;
    churned.arrival_rate = static_cast<double>(k - 1) / (0.6 * dur_sec);
    churned.sample_size = true;
    sc.flows.push_back(churned);
  }
  if (k > 1) {
    sc.size_dist.shape = 1.2;
    sc.size_dist.min_bytes = Bytes{2} << 20;
    sc.size_dist.max_bytes = Bytes{64} << 20;
  }
  return sc;
}

constexpr std::array<int, 5> kContentionKs{1, 4, 16, 64, 256};

std::string contention_key(const stacks::Implementation& test, int k) {
  return test.stack + "/" + stacks::to_string(test.cca) + "/k" +
         std::to_string(k);
}

// A conformance cell of either family, named by a stable key.
struct CellDef {
  std::string key;
  // kFig06: test vs ref pair conformance under cfg.
  const stacks::Implementation* test = nullptr;
  const stacks::Implementation* ref = nullptr;
  harness::ExperimentConfig cfg;
  // kContention: scenario conformance.
  harness::ScenarioConfig test_scen, ref_scen;
  bool scenario = false;
};

std::vector<CellDef> workload_cells(Family family, std::uint64_t seed) {
  const auto& reg = stacks::Registry::instance();
  std::vector<CellDef> cells;
  if (family == Family::kFig06) {
    for (const double buf : {5.0, 1.0}) {
      for (const auto cca : {stacks::CcaType::kCubic, stacks::CcaType::kBbr,
                             stacks::CcaType::kReno}) {
        for (const auto* impl : reg.with_cca(cca, false)) {
          CellDef c;
          c.key = fig06_key(*impl, buf);
          c.test = impl;
          c.ref = &reg.reference(cca);
          c.cfg = paper_config(buf, seed);
          cells.push_back(std::move(c));
        }
      }
    }
  } else {
    const auto& ref = reg.reference(stacks::CcaType::kCubic);
    const harness::ExperimentConfig base = paper_config(1.0, seed);
    // The most deviant BBRv2 profile is xquic's (no cruise headroom, 5%
    // loss threshold).
    for (const auto* t : {reg.find("quiche", stacks::CcaType::kCubic),
                          reg.find("mvfst", stacks::CcaType::kBbr),
                          reg.find("xquic", stacks::CcaType::kBbr2)}) {
      for (const int k : kContentionKs) {
        CellDef c;
        c.key = contention_key(*t, k);
        c.test_scen = contention_scenario(*t, ref, k, base);
        c.ref_scen = contention_scenario(ref, ref, k, base);
        c.scenario = true;
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

std::vector<runner::CellId> add_cells(runner::Sweep& sweep,
                                      const std::vector<CellDef>& cells) {
  std::vector<runner::CellId> ids;
  ids.reserve(cells.size());
  for (const CellDef& c : cells) {
    ids.push_back(c.scenario
                      ? sweep.add_scenario_conformance(c.test_scen,
                                                       c.ref_scen)
                      : sweep.add_conformance(*c.test, *c.ref, c.cfg));
  }
  return ids;
}

runner::SweepOptions sweep_options(const Args& a, bool profile) {
  runner::SweepOptions o;
  o.threads = a.workers;
  o.use_cache = true;
  o.cache_dir = a.dir + "/cache";
  o.manifest_dir = a.dir + "/manifests";
  o.progress = false;
  o.qlog_dir = "";
  o.profile = profile;
  o.profile_dir = a.dir + "/profile";
  return o;
}

// ---------------------------------------------------------------------
// Digests

void hash_points(StableHasher& h, const std::vector<geom::Point>& pts) {
  h.u64(pts.size());
  for (const geom::Point& p : pts) h.f64(p.x).f64(p.y);
}

void hash_pe(StableHasher& h, const conformance::PerformanceEnvelope& pe) {
  h.i64(pe.k).f64(pe.iou);
  h.u64(pe.hulls.size());
  for (const geom::Polygon& hull : pe.hulls) hash_points(h, hull);
  hash_points(h, pe.cluster_centroids);
  hash_points(h, pe.all_points);
}

// Every field of a ConformanceReport, bit for bit.
std::string report_digest(const conformance::ConformanceReport& r) {
  StableHasher h;
  h.f64(r.conformance)
      .f64(r.conformance_old)
      .f64(r.conformance_t)
      .f64(r.delta_tput_mbps)
      .f64(r.delta_delay_ms);
  hash_pe(h, r.ref_pe);
  hash_pe(h, r.test_pe);
  return h.hex();
}

// The clouds and summary numbers a PairResult carries through the cache.
std::string pair_digest(const harness::PairResult& r) {
  StableHasher h;
  for (const auto* side : {&r.points_a, &r.points_b}) {
    h.u64(side->size());
    for (const auto& trial : *side) hash_points(h, trial);
  }
  h.f64(r.tput_a_mbps).f64(r.tput_b_mbps).f64(r.share_a).f64(r.share_b);
  h.i64(r.diagnostics.queue_hwm_bytes)
      .i64(r.diagnostics.bottleneck_drops)
      .f64(r.diagnostics.utilization);
  return h.hex();
}

std::string trial_digest(const harness::TrialResult& t) {
  StableHasher h;
  h.u64(t.sim_events);
  for (const auto& f : t.flow) {
    h.u64(f.points.size());
    for (const auto& p : f.points) h.f64(p.delay_ms).f64(p.tput_mbps);
    h.i64(f.sender_stats.packets_sent).i64(f.sender_stats.retransmissions);
  }
  h.i64(t.bottleneck.drops).i64(t.bottleneck.queue_hwm_bytes);
  return h.hex();
}

// fig06.csv exactly as bench_fig06_conformance_heatmap writes it.
std::string fig06_table(const std::vector<CellDef>& cells,
                        const std::vector<const conformance::ConformanceReport*>&
                            reports) {
  std::string out = "stack,cca,buffer_bdp,conformance\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellDef& c = cells[i];
    const std::vector<std::string> fields{
        c.test->stack, stacks::to_string(c.test->cca),
        harness::format_double(c.cfg.net.buffer_bdp, 1),
        harness::format_double(reports[i]->conformance, 4)};
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (f) out += ',';
      out += csv_escape(fields[f]);
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------
// Process resources

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// Return freed heap to the OS and restart the kernel's peak-RSS mark
// (VmHWM) at the current RSS, so the next read covers one span only.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------
// JSON helpers

void write_build(JsonWriter& j) {
  j.key("build").begin_object();
  j.kv("build_type", QB_PERFBENCH_BUILD_TYPE);
  j.kv("qb_attrib", obs::attrib::compiled_in());
  j.kv("qb_no_simd", QB_PERFBENCH_NO_SIMD != 0);
  j.kv("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.end_object();
}

void write_stats(JsonWriter& j, const runner::SweepStats& s) {
  j.key("stats").begin_object();
  j.kv("cells", s.cells);
  j.kv("unique_pairs", s.unique_pairs);
  j.kv("unique_scenarios", s.unique_scenarios);
  j.kv("cache_hits", s.cache_hits);
  j.kv("cache_misses", s.cache_misses);
  j.kv("trials", static_cast<std::int64_t>(s.simulations_executed));
  j.kv("events", s.events_executed);
  j.kv("threads", s.threads);
  j.kv("wall_sec", s.wall_sec);
  j.kv("busy_sec", s.busy_sec);
  j.kv("thread_utilization", s.thread_utilization);
  j.end_object();
}

// Cell digests (and the fig06 verdict table) of a finished sweep.
void write_results(JsonWriter& j, const runner::Sweep& sweep, Family family,
                   const std::vector<CellDef>& cells,
                   const std::vector<runner::CellId>& ids) {
  write_stats(j, sweep.stats());
  std::vector<const conformance::ConformanceReport*> reports;
  j.key("cells").begin_object();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    reports.push_back(&sweep.conformance_result(ids[i]));
    j.kv(cells[i].key, report_digest(*reports.back()));
  }
  j.end_object();
  if (family == Family::kFig06) j.kv("table", fig06_table(cells, reports));
}

// One sweep of the workload's cells. setup_s is everything before run():
// emptying the private cache (cold workloads), constructing the Sweep and
// adding every cell.
struct SweepRun {
  std::unique_ptr<runner::Sweep> sweep;
  std::vector<runner::CellId> ids;
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
};

SweepRun set_up_sweep(const Args& a, const std::vector<CellDef>& cells,
                      bool profile, bool empty_cache) {
  SweepRun r;
  const auto t0 = Clock::now();
  if (empty_cache) fs::remove_all(a.dir + "/cache");
  r.sweep = std::make_unique<runner::Sweep>(a.workload,
                                            sweep_options(a, profile));
  r.ids = add_cells(*r.sweep, cells);
  r.setup_s = seconds_since(t0);
  return r;
}

SweepRun run_sweep(const Args& a, const std::vector<CellDef>& cells,
                   bool profile, bool empty_cache) {
  SweepRun r = set_up_sweep(a, cells, profile, empty_cache);
  reset_peak_rss();
  const double cpu0 = cpu_seconds();
  const auto w0 = Clock::now();
  r.sweep->run();
  r.wall_s = seconds_since(w0);
  r.cpu_s = cpu_seconds() - cpu0;
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

// ---------------------------------------------------------------------
// timed

constexpr int kSetupSamples = 7;
constexpr int kMinReps = 2;

int run_timed(const Args& a) {
  if (obs::attrib::compiled_in()) {
    std::fprintf(stderr,
                 "qb_perfbench: refusing a timed run from a QB_ATTRIB=ON "
                 "build (its scopes perturb the timings)\n");
    return 2;
  }
  const WorkloadSpec w = workload_spec(a.workload);
  const std::vector<CellDef> cells = workload_cells(w.family, a.sim_seed);

  JsonWriter j;
  j.begin_object();
  write_build(j);

  // Set-up alone, several times, so its median is steady; each
  // repetition below adds one more sample.
  j.key("setup_samples_s").begin_array();
  for (int i = 0; i < kSetupSamples; ++i) {
    j.value(set_up_sweep(a, cells, /*profile=*/false, !w.warm).setup_s);
  }
  j.end_array();

  j.key("reps").begin_array();
  const auto loop0 = Clock::now();
  for (int rep = 0;; ++rep) {
    const auto r0 = Clock::now();
    SweepRun r = run_sweep(a, cells, /*profile=*/false,
                           /*empty_cache=*/!w.warm);
    j.begin_object();
    j.kv("setup_s", r.setup_s);
    j.kv("wall_s", r.wall_s);
    j.kv("cpu_s", r.cpu_s);
    j.kv("peak_rss_mb", r.peak_rss_mb);
    write_results(j, *r.sweep, w.family, cells, r.ids);
    j.end_object();
    r.sweep.reset();
    // At least kMinReps, then stop before a repetition that would overrun
    // the budget.
    const double rep_s = seconds_since(r0);
    if (rep + 1 >= kMinReps && seconds_since(loop0) + rep_s > a.seconds) {
      break;
    }
  }
  j.end_array();
  j.end_object();
  std::cout << j.str() << std::endl;
  return 0;
}

// ---------------------------------------------------------------------
// Replay: a fixed subset of cells, one public call at a time.

// The replayed cells: one Figure 6 cell and the contention cells of one
// probe at every K. Both families are replayed on every workload so that
// every per-layer metric is measured on every traced run.
std::vector<CellDef> replay_cells(std::uint64_t seed) {
  std::vector<CellDef> out;
  for (CellDef& c : workload_cells(Family::kFig06, seed)) {
    if (c.key == "quiche/cubic/1.0") out.push_back(std::move(c));
  }
  for (CellDef& c : workload_cells(Family::kContention, seed)) {
    if (c.key.rfind("quiche/cubic/k", 0) == 0) out.push_back(std::move(c));
  }
  if (out.size() != 1 + kContentionKs.size()) {
    throw std::logic_error("replay subset not found in the workload cells");
  }
  return out;
}

template <typename Fn>
auto timed_ms(std::vector<double>* sink, Fn&& fn) {
  const auto t0 = Clock::now();
  auto result = fn();
  sink->push_back(seconds_since(t0) * 1e3);
  return result;
}

void write_array(JsonWriter& j, const std::string& key,
                 const std::vector<double>& xs) {
  j.key(key).begin_array();
  for (const double x : xs) j.value(x);
  j.end_array();
}

// Simulator- and transport-side telemetry summed over replayed trials.
struct TrialTotals {
  std::uint64_t trials = 0;
  std::uint64_t events = 0;
  std::size_t heap_peak = 0;
  std::size_t wheel_peak = 0;
  std::int64_t queue_hwm_bytes = 0;
  std::int64_t drops = 0;
  double utilization_sum = 0;
  std::int64_t packets_sent = 0;
  std::int64_t retransmissions = 0;
  int peak_concurrent = 0;

  void add(std::uint64_t ev, const netsim::Simulator::Stats& eng,
           const harness::BottleneckTelemetry& b) {
    ++trials;
    events += ev;
    heap_peak = std::max(heap_peak, eng.heap_peak);
    wheel_peak = std::max(wheel_peak, eng.wheel_peak);
    queue_hwm_bytes = std::max<std::int64_t>(queue_hwm_bytes,
                                             b.queue_hwm_bytes);
    drops += b.drops;
    utilization_sum += b.utilization;
  }
  void add_sender(const transport::SenderStats& s) {
    packets_sent += s.packets_sent;
    retransmissions += s.retransmissions;
  }
};

struct EvalTimings {
  std::vector<double> iou_curve, build_pe_fixed_k, build_pe_old,
      conformance, best_translation;
  std::vector<double> points_per_pe;
};

// conformance::evaluate, one step at a time, with each step timed.
conformance::ConformanceReport evaluate_steps(
    std::span<const conformance::TrialPoints> ref,
    std::span<const conformance::TrialPoints> test, EvalTimings& t) {
  const conformance::PeConfig cfg;
  const auto build = [&](std::span<const conformance::TrialPoints> trials) {
    const std::vector<double> curve = timed_ms(
        &t.iou_curve, [&] { return conformance::iou_curve(trials, cfg); });
    const int k = conformance::select_k(curve, cfg.min_iou_drop);
    auto pe = timed_ms(&t.build_pe_fixed_k, [&] {
      return conformance::build_pe_fixed_k(trials, k, cfg);
    });
    t.points_per_pe.push_back(static_cast<double>(pe.all_points.size()));
    return pe;
  };
  conformance::ConformanceReport rep;
  rep.ref_pe = build(ref);
  rep.test_pe = build(test);
  rep.conformance = timed_ms(&t.conformance, [&] {
    return conformance::conformance(rep.ref_pe, rep.test_pe);
  });
  const auto ref_old = timed_ms(&t.build_pe_old,
                                [&] { return conformance::build_pe_old(ref); });
  const auto test_old = timed_ms(
      &t.build_pe_old, [&] { return conformance::build_pe_old(test); });
  rep.conformance_old = timed_ms(&t.conformance, [&] {
    return conformance::conformance(ref_old, test_old);
  });
  const auto tr = timed_ms(&t.best_translation, [&] {
    return conformance::best_translation(rep.ref_pe, rep.test_pe);
  });
  rep.conformance_t = std::max(tr.conformance_t, rep.conformance);
  rep.delta_tput_mbps = tr.delta_tput_mbps();
  rep.delta_delay_ms = tr.delta_delay_ms();
  return rep;
}

void set_invariants(bool on) {
  obs::RunOptions opts = obs::RunOptions::current();
  opts.invariants = on;
  obs::RunOptions::set_current(opts);
}

// Single-threaded replay of replay_cells(): every trial of every task
// (invariants on; pair trials again with invariants off), the
// aggregation, a cache store/load round trip of each pair, and the
// stepwise evaluation of each cell.
void write_replay(JsonWriter& j, const Args& a) {
  const std::vector<CellDef> cells = replay_cells(a.sim_seed);
  const std::string cache_dir = a.dir + "/replay_cache";
  fs::remove_all(cache_dir);
  runner::ResultCache cache(cache_dir);

  std::vector<double> run_trial_on, run_trial_off, aggregate, store, load;
  std::map<int, std::vector<double>> run_scenario;  // by K
  double trial_ms_sum = 0;
  TrialTotals totals;
  EvalTimings ev;

  j.key("replay").begin_object();
  j.key("tasks").begin_object();
  // Runs every trial of a pair once per invariant setting, checks that the
  // checker is passive, aggregates and round-trips the result through the
  // cache.
  const auto replay_pair = [&](const stacks::Implementation& x,
                               const stacks::Implementation& y,
                               const harness::ExperimentConfig& cfg) {
    std::vector<harness::TrialResult> trials;
    std::uint64_t events = 0;
    for (int t = 0; t < cfg.trials; ++t) {
      auto tr = timed_ms(&run_trial_on, [&] {
        return harness::run_trial(x, y, cfg, static_cast<std::uint64_t>(t));
      });
      trial_ms_sum += run_trial_on.back();
      events += tr.sim_events;
      totals.add(tr.sim_events, tr.engine, tr.bottleneck);
      for (const auto& f : tr.flow) totals.add_sender(f.sender_stats);
      set_invariants(false);
      const auto off = timed_ms(&run_trial_off, [&] {
        return harness::run_trial(x, y, cfg, static_cast<std::uint64_t>(t));
      });
      set_invariants(true);
      if (trial_digest(off) != trial_digest(tr)) {
        throw std::runtime_error("replay: invariant checker changed a trial");
      }
      trials.push_back(std::move(tr));
    }
    harness::PairResult pr = timed_ms(&aggregate, [&] {
      return harness::aggregate_trials(std::move(trials), cfg);
    });
    const std::string fp = runner::pair_fingerprint(x, y, cfg);
    const bool stored =
        timed_ms(&store, [&] { return cache.store(fp, pr); });
    const auto loaded = timed_ms(&load, [&] { return cache.load(fp); });
    if (!stored || !loaded || pair_digest(*loaded) != pair_digest(pr)) {
      throw std::runtime_error("replay: cache round trip changed a pair");
    }
    j.kv(fp, events);
    return pr;
  };
  const auto replay_scenario = [&](const harness::ScenarioConfig& cfg) {
    std::vector<harness::ScenarioTrialResult> trials;
    std::uint64_t events = 0;
    const int k = static_cast<int>(cfg.flows.size()) - 1;
    for (int t = 0; t < cfg.trials; ++t) {
      auto tr = timed_ms(&run_scenario[k], [&] {
        return harness::run_scenario_trial(cfg,
                                           static_cast<std::uint64_t>(t));
      });
      trial_ms_sum += run_scenario[k].back();
      events += tr.sim_events;
      totals.add(tr.sim_events, tr.engine, tr.bottleneck);
      totals.peak_concurrent =
          std::max(totals.peak_concurrent, tr.churn.peak_concurrent);
      for (const auto& f : tr.flows) totals.add_sender(f.result.sender_stats);
      trials.push_back(std::move(tr));
    }
    harness::ScenarioResult sr =
        harness::aggregate_scenario_trials(std::move(trials), cfg);
    j.kv(runner::scenario_fingerprint(cfg), events);
    return sr;
  };

  std::vector<std::pair<std::string, std::string>> digests;
  for (const CellDef& c : cells) {
    conformance::ConformanceReport rep;
    if (!c.scenario) {
      const harness::PairResult test = replay_pair(*c.test, *c.ref, c.cfg);
      const harness::PairResult ref = replay_pair(*c.ref, *c.ref, c.cfg);
      rep = evaluate_steps(ref.points_a, test.points_a, ev);
    } else {
      const harness::ScenarioResult test = replay_scenario(c.test_scen);
      const harness::ScenarioResult ref = replay_scenario(c.ref_scen);
      rep = evaluate_steps(
          ref.flows[harness::test_flow_index(c.ref_scen)].points,
          test.flows[harness::test_flow_index(c.test_scen)].points, ev);
    }
    digests.emplace_back(c.key, report_digest(rep));
  }
  j.end_object();

  j.key("cells").begin_object();
  for (const auto& [key, digest] : digests) j.kv(key, digest);
  j.end_object();

  write_array(j, "run_trial_ms", run_trial_on);
  write_array(j, "run_trial_noinv_ms", run_trial_off);
  j.key("run_scenario_ms").begin_object();
  for (const auto& [k, xs] : run_scenario) write_array(j, std::to_string(k), xs);
  j.end_object();
  write_array(j, "aggregate_ms", aggregate);
  write_array(j, "store_ms", store);
  write_array(j, "load_ms", load);
  std::uintmax_t entry_bytes = 0;
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(cache_dir)) {
    entry_bytes += e.file_size();
    ++entries;
  }
  j.kv("cache_entry_kb", entries > 0 ? static_cast<double>(entry_bytes) /
                                           1024.0 /
                                           static_cast<double>(entries)
                                     : 0.0);
  j.kv("trial_ms_sum", trial_ms_sum);
  j.key("totals").begin_object();
  j.kv("trials", totals.trials);
  j.kv("events", totals.events);
  j.kv("heap_peak", static_cast<std::uint64_t>(totals.heap_peak));
  j.kv("wheel_peak", static_cast<std::uint64_t>(totals.wheel_peak));
  j.kv("queue_hwm_bytes", totals.queue_hwm_bytes);
  j.kv("drops", totals.drops);
  j.kv("utilization_sum", totals.utilization_sum);
  j.kv("packets_sent", totals.packets_sent);
  j.kv("retransmissions", totals.retransmissions);
  j.kv("peak_concurrent", totals.peak_concurrent);
  j.end_object();
  j.key("eval").begin_object();
  write_array(j, "iou_curve_ms", ev.iou_curve);
  write_array(j, "build_pe_fixed_k_ms", ev.build_pe_fixed_k);
  write_array(j, "build_pe_old_ms", ev.build_pe_old);
  write_array(j, "conformance_ms", ev.conformance);
  write_array(j, "best_translation_ms", ev.best_translation);
  write_array(j, "points_per_pe", ev.points_per_pe);
  j.end_object();
  j.end_object();
}

// ---------------------------------------------------------------------
// traced

int run_traced(const Args& a) {
  const WorkloadSpec w = workload_spec(a.workload);
  const std::vector<CellDef> cells = workload_cells(w.family, a.sim_seed);

  JsonWriter j;
  j.begin_object();
  write_build(j);

  SweepRun plain = run_sweep(a, cells, /*profile=*/false, !w.warm);
  j.kv("untraced_wall_s", plain.wall_s);
  plain.sweep.reset();

  SweepRun traced = run_sweep(a, cells, /*profile=*/true, !w.warm);
  j.key("traced").begin_object();
  j.kv("wall_s", traced.wall_s);
  write_results(j, *traced.sweep, w.family, cells, traced.ids);
  j.kv("profile", traced.sweep->profile_path());
  j.kv("manifest", traced.sweep->write_manifest());
  j.end_object();

  traced.sweep.reset();

  write_replay(j, a);
  j.end_object();
  std::cout << j.str() << std::endl;
  return 0;
}

// ---------------------------------------------------------------------
// sweep: one cold sweep with its manifest. run.py uses it to fill the
// cache of a warm workload (in its own process, so the timed process's
// heap and peak RSS are the re-analysis loop's alone) and to record
// perfbench/expected.json.

int run_cold_sweep(const Args& a) {
  const WorkloadSpec w = workload_spec(a.workload);
  if (w.warm) throw std::invalid_argument("sweep mode needs a cold workload");
  const std::vector<CellDef> cells = workload_cells(w.family, a.sim_seed);
  SweepRun r = run_sweep(a, cells, /*profile=*/false, /*empty_cache=*/true);
  JsonWriter j;
  j.begin_object();
  write_build(j);
  write_results(j, *r.sweep, w.family, cells, r.ids);
  j.kv("manifest", r.sweep->write_manifest());
  j.end_object();
  std::cout << j.str() << std::endl;
  return 0;
}

// ---------------------------------------------------------------------
// attrib

int run_attrib(const Args& a) {
  if (!obs::attrib::compiled_in()) {
    std::fprintf(stderr,
                 "qb_perfbench: attrib mode needs a -DQB_ATTRIB=ON build\n");
    return 2;
  }
  namespace at = obs::attrib;
  // Attribute the datapath, not the invariant checker (obs.invariants_share
  // reports that separately).
  set_invariants(false);
  at::reset_thread();

  const std::vector<CellDef> cells = replay_cells(a.sim_seed);
  at::Report trials;
  double trial_wall = 0;
  std::uint64_t events = 0;
  const auto attributed = [&](auto&& fn) {
    const at::Report before = at::thread_report();
    const auto t0 = Clock::now();
    {
      at::ScopeTimer root(at::Scope::kTrial);
      events += fn();
    }
    trial_wall += seconds_since(t0);
    trials += at::thread_report() - before;
  };
  for (const CellDef& c : cells) {
    if (!c.scenario) {
      for (const auto* x : {c.test, c.ref}) {
        attributed([&] {
          return harness::run_trial(*x, *c.ref, c.cfg, 0).sim_events;
        });
      }
    } else {
      for (const auto* cfg : {&c.test_scen, &c.ref_scen}) {
        attributed(
            [&] { return harness::run_scenario_trial(*cfg, 0).sim_events; });
      }
    }
  }

  // Evaluation kernels: evaluate the Figure 6 replay cell from the pairs
  // the traced run stored in its replay cache.
  const CellDef& pair_cell = cells.front();
  runner::ResultCache cache(a.dir + "/replay_cache");
  const auto test = cache.load(
      runner::pair_fingerprint(*pair_cell.test, *pair_cell.ref, pair_cell.cfg));
  const auto ref = cache.load(
      runner::pair_fingerprint(*pair_cell.ref, *pair_cell.ref, pair_cell.cfg));
  if (!test || !ref) {
    throw std::runtime_error("attrib: replay cache missing; run traced first");
  }
  constexpr int kEvalReps = 3;
  const at::Report before_eval = at::thread_report();
  for (int i = 0; i < kEvalReps; ++i) {
    conformance::evaluate(ref->points_a, test->points_a);
  }
  const at::Report eval = at::thread_report() - before_eval;

  JsonWriter j;
  j.begin_object();
  write_build(j);
  j.kv("timer", std::string(at::timer_kind()));
  j.kv("trial_wall_s", trial_wall);
  j.kv("events", events);
  j.kv("eval_calls", kEvalReps);
  j.kv("coverage", trials.coverage());
  const auto write_report = [&](const std::string& key, const at::Report& r) {
    j.key(key).begin_object();
    for (std::size_t s = 0; s < at::kScopeCount; ++s) {
      const at::Report::Row& row = r.rows[s];
      j.key(std::string(at::scope_name(static_cast<at::Scope>(s))))
          .begin_object();
      j.kv("calls", row.calls);
      j.kv("cycles", row.cycles);
      j.kv("excl_cycles", row.exclusive_cycles());
      j.end_object();
    }
    j.end_object();
  };
  write_report("trials", trials);
  write_report("eval", eval);
  j.end_object();
  std::cout << j.str() << std::endl;
  return 0;
}

} // namespace
} // namespace quicbench::perfbench

int main(int argc, char** argv) {
  using namespace quicbench::perfbench;
  try {
    const Args a = parse_args(argc, argv);
    isolate_from_environment(a.mode == "attrib");
    fs::create_directories(a.dir);
    if (a.mode == "timed") return run_timed(a);
    if (a.mode == "traced") return run_traced(a);
    if (a.mode == "sweep") return run_cold_sweep(a);
    if (a.mode == "attrib") return run_attrib(a);
    throw std::invalid_argument("unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qb_perfbench: %s\n", e.what());
    return 1;
  }
}
