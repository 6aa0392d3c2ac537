// paperbench — time to a verified solution per durability mode and through a
// crash, on one workload per process.
//
//   paperbench --workload cg-npb|mm-abft|mc-xsbench --seed N --seconds S
//              --trace 0|1 --scratch DIR [--trace-out FILE]
//
// One run: set the workload up five times (set-up time is their median),
// then repeat rounds of every configuration — the seven modes crash-free, a
// second native configuration (the noise floor), one mid-unit crash under
// ckpt-nvm / pmem-tx / alg-nvm, ckpt-nvm over four shards with one victim
// shard, and the memsim twin through one crash — round-robin until the next
// round would overrun S seconds. A round runs every configuration once. Every
// repetition's output is checked; a wrong answer counts as a failed operation
// and makes the exit code 1.
//
// --trace 0 prints the end-to-end metrics (medians over the rounds). --trace 1
// alternates traced and untraced rounds, prints the per-layer metrics from the
// median traced repetition of each configuration, the tracing overhead, the
// program's own telemetry stage totals, and a STREAM triad; it writes the
// spans as a Chrome trace to FILE.
//
// Human-readable lines start with "# "; one "REF {...}" line carries the
// reference figures; the last line is the result object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/modes.hpp"
#include "core/scenario.hpp"
#include "core/telemetry.hpp"
#include "spans.hpp"
#include "suites.hpp"
#include "timed_workload.hpp"

namespace paperbench {
namespace {

namespace fs = std::filesystem;
using adcc::core::Mode;

constexpr int kSetups = 5;

enum class Target { kMain, kSharded, kEmulated };

/// One timed repetition of one configuration.
struct Rep {
  double solution_s = 0.0;
  bool traced = false;
  SpanSums spans;
  adcc::nvm::PerfStats perf;                 ///< Change over the repetition.
  adcc::checkpoint::BackendStats backend;    ///< Change over the repetition.
  std::uint64_t persisted_bytes = 0;         ///< Bytes made durable in the NVM arena.
  adcc::core::WorkloadRecovery recovery;
  std::vector<adcc::core::Telemetry::Sample> stages;
};

/// One configuration: a mode, a crash plan and the instance it runs on.
struct Op {
  std::string label;
  std::string metric;  ///< End-to-end metric; empty for the native twin.
  Mode mode = Mode::kNative;
  std::string crash;
  Target target = Target::kMain;
  int track = 0;
  adcc::core::ModeEnvConfig env;
  std::unique_ptr<TimedWorkload> timed;
  std::unique_ptr<adcc::core::Telemetry> telemetry;
  std::unique_ptr<adcc::core::ScenarioRunner> runner;
  std::vector<Rep> reps;
  double dram_bw = 0.0;  ///< Calibrated DRAM bandwidth of its substrate.
};

struct Setup {
  double total_s = 0.0, instance_s = 0.0, env_s = 0.0, prepare_s = 0.0;
};

struct Metric {
  std::string name, unit;
  double value = 0.0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path scratch;
  fs::path trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "paperbench: " << why
            << "\nusage: paperbench --workload cg-npb|mm-abft|mc-xsbench --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--trace-out FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_scratch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (key == "--scratch") {
        a.scratch = val;
        have_scratch = true;
      } else if (key == "--trace-out") {
        a.trace_out = val;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_scratch) usage("--scratch is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.trace && a.trace_out.empty()) usage("--trace 1 needs --trace-out");
  return a;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// ---------------------------------------------------------------------------
// STREAM triad (a = b + s*c) over arrays that together span four times the
// last-level cache, as the kernel reference for the computed rates.

struct Triad {
  double gbps = 0.0;
  std::size_t array_bytes = 0;
  std::size_t llc_bytes = 0;
};

void triad_kernel(double* __restrict a, const double* __restrict b, const double* __restrict c,
                  double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
}

Triad stream_triad() {
  Triad t;
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  t.llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : std::size_t{32} << 20;
  const std::size_t n = 4 * t.llc_bytes / 3 / sizeof(double);
  t.array_bytes = n * sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    triad_kernel(a.data(), b.data(), c.data(), 3.0, n);
    const double dt = now_s() - t0;
    if (dt > 0) best = std::max(best, 3.0 * static_cast<double>(t.array_bytes) / dt * 1e-9);
  }
  if (a[n / 2] != 7.0) best = 0.0;  // Keeps the stores observable.
  t.gbps = best;
  return t;
}

// ---------------------------------------------------------------------------

class Bench {
 public:
  Bench(Args args, std::unique_ptr<Suite> suite)
      : args_(std::move(args)), suite_(std::move(suite)) {}

  int run();

 private:
  void make_ops();
  Setup set_up();
  void make_runners();
  void run_op(Op& op, bool traced_round);
  std::string check(Op& op);
  adcc::core::Workload& instance(Target t) {
    return t == Target::kMain ? suite_->main()
           : t == Target::kSharded ? suite_->sharded()
                                   : suite_->emulated();
  }

  std::vector<Metric> end_to_end(const Setup& setup) const;
  std::vector<Metric> per_layer(const Setup& setup) const;
  void print_trace_report() const;
  std::string reference_json(const Setup& setup) const;

  Args args_;
  std::unique_ptr<Suite> suite_;
  CrashPlans plans_;
  std::vector<Op> ops_;
  std::vector<Setup> setups_;
  SpanLog spans_;
  int next_run_ = 0;
  int rounds_ = 0;
  std::size_t attempted_ = 0, failed_ = 0;
  std::map<std::string, std::size_t> failures_;
  Triad triad_;
};

void Bench::make_ops() {
  const std::string none = "none";
  struct Spec {
    const char* label;
    const char* metric;
    Mode mode;
    std::string crash;
    Target target;
  };
  const std::vector<Spec> specs = {
      {"native", "native_s", Mode::kNative, none, Target::kMain},
      {"ckpt-disk", "ckpt_disk_s", Mode::kCkptDisk, none, Target::kMain},
      {"ckpt-nvm", "ckpt_nvm_s", Mode::kCkptNvm, none, Target::kMain},
      {"ckpt-nvm/dram", "ckpt_hetero_s", Mode::kCkptHetero, none, Target::kMain},
      {"pmem-tx", "pmem_tx_s", Mode::kPmemTx, none, Target::kMain},
      {"alg-nvm", "alg_nvm_s", Mode::kAlgNvm, none, Target::kMain},
      {"alg-nvm/dram", "alg_hetero_s", Mode::kAlgHetero, none, Target::kMain},
      {"native-twin", "", Mode::kNative, none, Target::kMain},
      {"ckpt-nvm+crash", "ckpt_crash_s", Mode::kCkptNvm, plans_.mid_unit, Target::kMain},
      {"pmem-tx+crash", "tx_crash_s", Mode::kPmemTx, plans_.mid_unit, Target::kMain},
      {"alg-nvm+crash", "alg_crash_s", Mode::kAlgNvm, plans_.mid_unit, Target::kMain},
      {"sharded+crash", "sharded_crash_s", Mode::kCkptNvm, plans_.sharded, Target::kSharded},
      // The memsim twin is mode-agnostic (always algorithm-directed).
      {"memsim+crash", "emulated_crash_s", Mode::kAlgNvm, plans_.emulated, Target::kEmulated},
  };
  ops_.clear();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Op op;
    op.label = specs[i].label;
    op.metric = specs[i].metric;
    op.mode = specs[i].mode;
    op.crash = specs[i].crash;
    op.target = specs[i].target;
    op.track = static_cast<int>(i);
    op.timed = std::make_unique<TimedWorkload>(instance(op.target), op.track);
    op.env.scratch_dir = args_.scratch / ("op" + std::to_string(i));
    op.timed->tune_env(op.mode, op.env);
    ops_.push_back(std::move(op));
  }
}

Setup Bench::set_up() {
  // Runners and wrappers refer to the instances: drop them first.
  ops_.clear();
  suite_->release();
  Setup s;
  const double t0 = now_s();
  suite_->build();
  s.instance_s = now_s() - t0;
  make_ops();
  for (Op& op : ops_) {
    const double t1 = now_s();
    adcc::core::ModeEnv env = adcc::core::make_env(op.mode, op.env);
    const double t2 = now_s();
    op.timed->prepare(env);
    s.env_s += t2 - t1;
    s.prepare_s += now_s() - t2;
  }
  s.total_s = now_s() - t0;
  return s;
}

void Bench::make_runners() {
  for (Op& op : ops_) {
    spans_.track(op.label);  // Track ids follow the op order, as op.track does.
    adcc::core::ScenarioConfig sc;
    sc.mode = op.mode;
    sc.crash = adcc::core::parse_crash_or_throw(op.crash);
    sc.env = op.env;
    if (args_.trace) {
      op.telemetry = std::make_unique<adcc::core::Telemetry>();
      sc.telemetry = op.telemetry.get();
      sc.telemetry_label = op.label;
    }
    op.runner = std::make_unique<adcc::core::ScenarioRunner>(*op.timed, sc);
  }
}

std::string Bench::check(Op& op) {
  TimedWorkload& w = *op.timed;
  if (!(w.solution_seconds() > 0)) return "no solution time recorded";
  if (op.crash != "none" && w.crashes() == 0) return "the planned crash did not fire";
  if (!w.recovery_ok()) return "recover() broke the WorkloadRecovery invariants";
  if (op.target == Target::kMain) {
    std::string why = suite_->check_main();
    if (!why.empty()) return why;
  }
  if (!w.verify()) return "Workload::verify() failed";
  return {};
}

void Bench::run_op(Op& op, bool traced_round) {
  ++attempted_;
  Rep rep;
  rep.traced = traced_round;
  const int run = next_run_++;
  SpanLog* log = traced_round ? &spans_ : nullptr;
  const std::size_t first_span = spans_.size();
  op.timed->begin_rep(log, run, args_.trace && !traced_round);
  std::string why;
  try {
    {
      const SpanScope root(log, op.label.c_str(), run, op.track);
      op.runner->run();
    }
    if (const adcc::core::ModeEnv* env = op.timed->env()) {
      if (env->perf) {
        const adcc::nvm::PerfStats& p0 = op.timed->perf_at_prepare();
        const adcc::nvm::PerfStats& p1 = env->perf->stats();
        rep.perf.lines_flushed = p1.lines_flushed - p0.lines_flushed;
        rep.perf.injected_seconds = p1.injected_seconds - p0.injected_seconds;
        if (env->perf->config().enabled) op.dram_bw = env->perf->dram_bandwidth();
      }
      if (env->region) {
        rep.persisted_bytes =
            env->region->stats().persisted_bytes - op.timed->region_at_prepare().persisted_bytes;
      }
      if (env->backend) {
        const adcc::checkpoint::BackendStats& b0 = op.timed->backend_at_prepare();
        const adcc::checkpoint::BackendStats& b1 = env->backend->stats();
        rep.backend.bytes_stored = b1.bytes_stored - b0.bytes_stored;
        rep.backend.bytes_loaded = b1.bytes_loaded - b0.bytes_loaded;
      }
    }
    rep.solution_s = op.timed->solution_seconds();
    rep.recovery = op.timed->recovery();
    if (traced_round) rep.stages = op.telemetry->snapshot();
    why = check(op);
  } catch (const std::exception& e) {
    why = std::string("exception: ") + e.what();
  }
  if (traced_round) rep.spans = spans_.sums_since(first_span);
  if (!why.empty()) {
    ++failed_;
    ++failures_[op.label + ": " + why];
    return;
  }
  op.reps.push_back(std::move(rep));
}

/// The repetition with the median solution time among the traced ones (the
/// lower of the two middle ones for an even count); null when none.
const Rep* median_traced(const Op& op) {
  std::vector<const Rep*> traced;
  for (const Rep& r : op.reps) {
    if (r.traced) traced.push_back(&r);
  }
  if (traced.empty()) return nullptr;
  std::sort(traced.begin(), traced.end(),
            [](const Rep* a, const Rep* b) { return a->solution_s < b->solution_s; });
  return traced[(traced.size() - 1) / 2];
}

double median_solution(const Op& op, int traced /* -1 any, 0 untraced, 1 traced */) {
  std::vector<double> v;
  for (const Rep& r : op.reps) {
    if (traced < 0 || r.traced == (traced == 1)) v.push_back(r.solution_s);
  }
  return median_of(std::move(v));
}

double lookup(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

const Setup& median_setup(const std::vector<Setup>& setups) {
  std::vector<const Setup*> v;
  for (const Setup& s : setups) v.push_back(&s);
  std::sort(v.begin(), v.end(),
            [](const Setup* a, const Setup* b) { return a->total_s < b->total_s; });
  return *v[(v.size() - 1) / 2];
}

std::vector<Metric> Bench::end_to_end(const Setup& setup) const {
  std::vector<Metric> out;
  out.push_back({"setup_s", "s", setup.total_s});
  out.push_back({"peak_rss_mb", "MiB", peak_rss_mib()});
  for (const Op& op : ops_) {
    if (!op.metric.empty()) out.push_back({op.metric, "s", median_solution(op, -1)});
  }
  return out;
}

std::vector<Metric> Bench::per_layer(const Setup& setup) const {
  std::map<std::string, const Rep*> med;
  for (const Op& op : ops_) med[op.label] = median_traced(op);
  const Rep none;
  const auto rep = [&](const std::string& label) -> const Rep& {
    const Rep* r = med.at(label);
    return r ? *r : none;
  };
  const auto self = [&](const std::string& label, const std::string& name) {
    return lookup(rep(label).spans.self, name);
  };
  const auto total = [&](const std::string& label, const std::string& name) {
    return lookup(rep(label).spans.total, name);
  };

  std::vector<Metric> out;
  const auto s = [&](std::string name, double v) { out.push_back({std::move(name), "s", v}); };
  const auto bytes = [&](std::string name, double v) {
    out.push_back({std::move(name), "bytes", v});
  };
  const auto count = [&](std::string name, double v) {
    out.push_back({std::move(name), "count", v});
  };

  s("core.instance_s", setup.instance_s);
  s("core.env_s", setup.env_s);
  s("core.prepare_s", setup.prepare_s);

  s("kernels.native_step_s", self("native", "run_step"));
  // Kernel rates: computed bytes / flops / lookups of one native run over the
  // program's own kernel stage time in that run. 0 where the kernel is idle.
  const KernelRate kr = suite_->kernel_rate();
  double kernel_s = 0.0;
  for (const auto& st : rep("native").stages) {
    if (st.path == kr.stage) kernel_s = st.seconds;
  }
  for (const auto& [name, unit] : std::vector<std::pair<std::string, std::string>>{
           {"kernels.spmv_gbps", "GB/s"},
           {"kernels.gemm_gflops", "GFLOP/s"},
           {"kernels.xs_mlookups_s", "Mlookups/s"}}) {
    const double v = name == kr.metric && kernel_s > 0 ? kr.per_run / kernel_s : 0.0;
    out.push_back({name, unit, v});
  }

  for (const auto& [medium, label] : std::vector<std::pair<std::string, std::string>>{
           {"disk", "ckpt-disk"}, {"nvm", "ckpt-nvm"}, {"hetero", "ckpt-nvm/dram"}}) {
    s("checkpoint." + medium + ".save_s", self(label, "make_durable"));
    bytes("checkpoint." + medium + ".bytes_stored",
          static_cast<double>(rep(label).backend.bytes_stored));
  }
  s("checkpoint.restore_s", self("ckpt-nvm+crash", "recover"));
  s("checkpoint.resume_s", total("ckpt-nvm+crash", "resume"));
  bytes("checkpoint.bytes_loaded", static_cast<double>(rep("ckpt-nvm+crash").backend.bytes_loaded));

  s("pmemtx.step_s", self("pmem-tx", "run_step"));
  // The undo log lives in the transaction heap's own arena, out of reach;
  // count what the shared performance model charged: 64 B per flushed line.
  bytes("pmemtx.nvm_bytes", 64.0 * static_cast<double>(rep("pmem-tx").perf.lines_flushed));
  count("pmemtx.lines_flushed", static_cast<double>(rep("pmem-tx").perf.lines_flushed));
  s("pmemtx.recover_s", self("pmem-tx+crash", "recover"));
  s("pmemtx.resume_s", total("pmem-tx+crash", "resume"));

  s("nvm.ckpt_hetero.injected_s", rep("ckpt-nvm/dram").perf.injected_seconds);
  s("nvm.alg_hetero.injected_s", rep("alg-nvm/dram").perf.injected_seconds);
  // Bytes persisted to the NVM arena (PerfStats::bytes_written is never
  // charged by the program, so the arena's own count stands in).
  bytes("nvm.alg_nvm.bytes_written", static_cast<double>(rep("alg-nvm").persisted_bytes));
  bytes("nvm.alg_hetero.bytes_written", static_cast<double>(rep("alg-nvm/dram").persisted_bytes));
  count("nvm.alg_nvm.lines_flushed", static_cast<double>(rep("alg-nvm").perf.lines_flushed));
  count("nvm.alg_hetero.lines_flushed",
        static_cast<double>(rep("alg-nvm/dram").perf.lines_flushed));

  s("alg.nvm.step_s", self("alg-nvm", "run_step"));
  s("alg.nvm.durable_s", self("alg-nvm", "make_durable"));
  s("alg.hetero.step_s", self("alg-nvm/dram", "run_step"));
  s("alg.hetero.durable_s", self("alg-nvm/dram", "make_durable"));
  s("alg.recover_s", self("alg-nvm+crash", "recover"));
  s("alg.resume_s", total("alg-nvm+crash", "resume"));
  const Rep& alg = rep("alg-nvm+crash");
  count("alg.units_lost", static_cast<double>(alg.recovery.units_lost));
  count("alg.units_corrected", static_cast<double>(alg.recovery.units_corrected));
  count("alg.candidates_checked", static_cast<double>(alg.recovery.candidates_checked));

  s("shard.step_s", self("sharded+crash", "run_step"));
  s("shard.durable_s",
    self("sharded+crash", "make_durable") + self("sharded+crash", "wait_durable"));
  s("shard.recover_s", self("sharded+crash", "recover"));
  s("shard.resume_s", total("sharded+crash", "resume"));
  const Rep& sh = rep("sharded+crash");
  count("shard.units_replayed", static_cast<double>(sh.recovery.units_replayed));
  bytes("shard.halo_bytes", static_cast<double>(sh.recovery.halo_bytes));

  s("memsim.step_s", self("memsim+crash", "run_step"));
  s("memsim.recover_s", self("memsim+crash", "recover"));
  s("memsim.resume_s", total("memsim+crash", "resume"));
  count("memsim.units_lost", static_cast<double>(rep("memsim+crash").recovery.units_lost));
  return out;
}

void Bench::print_trace_report() const {
  std::cout << "# traced run: per configuration, span self times of the median traced "
               "repetition beside the program's telemetry stage totals of the same repetition\n";
  for (const Op& op : ops_) {
    const Rep* r = median_traced(op);
    if (!r) continue;
    std::ostringstream os;
    os << "# " << op.label << ": solution " << num(r->solution_s) << " s; spans";
    double span_s = 0.0;
    for (const auto& [name, v] : r->spans.self) {
      os << ' ' << name << '=' << v;
      if (name != op.label && name != "verify" && name != "prepare") span_s += v;
    }
    os << "; stages";
    double stage_s = 0.0;
    for (const auto& st : r->stages) {
      os << ' ' << st.path << '=' << st.seconds;
      // ckpt/drain encloses the other ckpt stages on the asynchronous path;
      // every other stage is a disjoint leaf.
      if (st.path != "ckpt/drain") stage_s += st.seconds;
    }
    if (span_s > 0) os << "; stage coverage " << 100.0 * stage_s / span_s << "% of call time";
    std::cout << os.str() << '\n';
  }
  std::vector<double> overhead;
  for (const Op& op : ops_) {
    const double t = median_solution(op, 1), u = median_solution(op, 0);
    if (t > 0 && u > 0) overhead.push_back(t / u - 1.0);
  }
  std::cout << "# tracing overhead (traced vs untraced rounds, median over configurations): "
            << 100.0 * median_of(overhead) << "%\n";
  std::cout << "# STREAM triad: " << triad_.gbps << " GB/s over 3 arrays of "
            << (triad_.array_bytes >> 20) << " MiB (LLC " << (triad_.llc_bytes >> 20) << " MiB)\n";
}

std::string Bench::reference_json(const Setup& setup) const {
  std::ostringstream os;
  os << "{\"workload\":\"" << args_.workload << "\",\"seed\":" << args_.seed
     << ",\"rounds\":" << rounds_ << ",\"configurations\":" << ops_.size();
  double native = 0.0, twin = 0.0, dram_bw = 0.0;
  for (const Op& op : ops_) {
    if (op.label == "native") native = median_solution(op, -1);
    if (op.label == "native-twin") twin = median_solution(op, -1);
    if (op.dram_bw > 0) dram_bw = op.dram_bw;
  }
  os << ",\"noise_floor\":" << num(native > 0 ? twin / native - 1.0 : 0.0);
  os << ",\"overhead_vs_native\":{";
  bool first = true;
  for (const Op& op : ops_) {
    if (op.metric.empty() || native <= 0) continue;
    os << (first ? "" : ",") << '"' << op.label << "\":" << num(median_solution(op, -1) / native);
    first = false;
  }
  os << "},\"dram_bw_gbs\":" << num(dram_bw * 1e-9) << ",\"setup_s\":[";
  for (std::size_t i = 0; i < setups_.size(); ++i) {
    os << (i ? "," : "") << num(setups_[i].total_s);
  }
  os << "],\"setup_median_s\":" << num(setup.total_s);
  if (args_.trace) {
    std::vector<double> overhead;
    for (const Op& op : ops_) {
      const double t = median_solution(op, 1), u = median_solution(op, 0);
      if (t > 0 && u > 0) overhead.push_back(t / u - 1.0);
    }
    os << ",\"tracing_overhead\":" << num(median_of(overhead))
       << ",\"triad_gbps\":" << num(triad_.gbps) << ",\"triad_array_bytes\":" << triad_.array_bytes
       << ",\"llc_bytes\":" << triad_.llc_bytes;
  }
  os << "}";
  return os.str();
}

int Bench::run() {
  plans_ = suite_->plans();
  std::cout << "# workload " << args_.workload << " seed " << args_.seed << "; crash plans: mid-unit "
            << plans_.mid_unit << ", sharded " << plans_.sharded << ", memsim " << plans_.emulated
            << '\n';
  if (args_.trace) triad_ = stream_triad();

  for (int i = 0; i < kSetups; ++i) setups_.push_back(set_up());
  const Setup& setup = median_setup(setups_);
  make_runners();
  suite_->build_reference();
  std::cout << "# inputs: " << suite_->inputs() << '\n';

  // Whole rounds only, so every configuration gets the same number of
  // repetitions; stop when the next round (estimated by the last one) would
  // overrun the run length.
  const double start = now_s();
  double last = 0.0;
  do {
    const bool traced_round = args_.trace && rounds_ % 2 == 0;
    const double r0 = now_s();
    for (Op& op : ops_) run_op(op, traced_round);
    last = now_s() - r0;
    ++rounds_;
  } while (now_s() - start + last <= args_.seconds);
  std::cout << "# " << rounds_ << " rounds of " << ops_.size() << " configurations in "
            << now_s() - start << " s\n";
  for (const auto& [what, n] : failures_) std::cout << "# FAILED x" << n << ": " << what << '\n';
  for (const Op& op : ops_) {
    std::cout << "# " << op.label << " (" << op.crash << "):";
    for (const Rep& r : op.reps) std::cout << ' ' << r.solution_s << (r.traced ? "t" : "");
    std::cout << '\n';
  }

  if (args_.trace) {
    print_trace_report();
    std::ofstream f(args_.trace_out);
    spans_.write_chrome_trace(f);
    if (!f) {
      std::cerr << "paperbench: cannot write " << args_.trace_out << '\n';
      return 1;
    }
  }

  const std::vector<Metric> metrics = args_.trace ? per_layer(setup) : end_to_end(setup);
  std::cout << "REF " << reference_json(setup) << '\n';
  const bool correct = failed_ == 0;
  std::ostringstream os;
  os << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted_
     << ",\"failed\":" << failed_ << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? "," : "") << '"' << metrics[i].name << "\":{\"value\":" << num(metrics[i].value)
       << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace paperbench

int main(int argc, char** argv) {
  using namespace paperbench;
  const Args args = parse_args(argc, argv);
  std::unique_ptr<Suite> suite = make_suite(args.workload, args.seed);
  if (!suite) usage("unknown workload " + args.workload);
  const fs::path scratch = args.scratch;
  fs::create_directories(scratch);
  int rc = 1;
  try {
    rc = Bench(args, std::move(suite)).run();
  } catch (const std::exception& e) {
    std::cerr << "paperbench: " << e.what() << '\n';
    rc = 1;
  }
  std::error_code ec;
  fs::remove_all(scratch, ec);
  return rc;
}
