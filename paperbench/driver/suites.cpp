#include "suites.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <vector>

#include "cg/cg_shard.hpp"
#include "cg/cg_sim_workload.hpp"
#include "cg/cg_workload.hpp"
#include "common/rng.hpp"
#include "core/shard.hpp"
#include "linalg/dense.hpp"
#include "linalg/spgen.hpp"
#include "mc/mc_shard.hpp"
#include "mc/mc_sim_workload.hpp"
#include "mc/mc_workload.hpp"
#include "mm/mm_shard.hpp"
#include "mm/mm_sim_workload.hpp"
#include "mm/mm_workload.hpp"

namespace paperbench {

namespace {

using adcc::core::ShardGroup;
using adcc::core::ShardGroupConfig;
using adcc::core::Workload;

constexpr std::size_t kShards = 4;

/// Stream `stream` of the workload seed: problem seeds and crash sites are
/// independent draws from it.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return adcc::splitmix64(adcc::splitmix64(seed) ^ (stream * 0x9E3779B97F4A7C15ULL));
}

/// A seeded pick in the middle fifth [2/5, 3/5] of 1..count.
std::size_t middle(std::uint64_t seed, std::uint64_t stream, std::size_t count) {
  const std::size_t lo = count * 2 / 5 + 1;
  const std::size_t hi = std::max(lo, count * 3 / 5);
  return lo + static_cast<std::size_t>(derive(seed, stream) % (hi - lo + 1));
}

/// One victim shard dies at the global commit of a unit in the middle of the
/// run: every shard has saved that unit but the marker still names the one
/// before, so the victim restores it and replays one unit from the retained
/// exchange log.
std::string shard_plan(std::uint64_t seed, std::size_t units) {
  const std::size_t victim = static_cast<std::size_t>(derive(seed, 20) % kShards);
  return "shard:" + std::to_string(victim) + ":point:global_commit:" +
         std::to_string(middle(seed, 21, units));
}

// ---------------------------------------------------------------------------
// cg-npb

class CgSuite final : public Suite {
 public:
  explicit CgSuite(std::uint64_t seed) : seed_(seed) {
    cfg_.n = 230'000;
    cfg_.nz_per_row = 15;
    cfg_.iters = 15;
    cfg_.matrix_seed = derive(seed, 1);
    cfg_.rhs_seed = derive(seed, 2);
    sim_.n = 40'000;
    sim_.nz_per_row = 15;
    sim_.iters = 15;
    sim_.matrix_seed = derive(seed, 3);
    sim_.rhs_seed = derive(seed, 4);
  }

  void build() override {
    const adcc::cg::CgWorkloadConfig cfg = cfg_;
    main_ = std::make_unique<adcc::cg::CgWorkload>(cfg);
    sharded_ = std::make_unique<ShardGroup>(
        std::make_unique<adcc::cg::CgShardPlan>(cfg), ShardGroupConfig{kShards, false},
        [cfg]() -> std::unique_ptr<Workload> {
          return std::make_unique<adcc::cg::CgWorkload>(cfg);
        });
    emulated_ = std::make_unique<adcc::cg::CgSimWorkload>(sim_);
  }

  CrashPlans plans() const override {
    return {"point:cg:p_updated:" + std::to_string(middle(seed_, 10, cfg_.iters)),
            shard_plan(seed_, cfg_.iters),
            "point:cg:p_updated:" + std::to_string(middle(seed_, 30, sim_.iters))};
  }

  void build_reference() override {
    // Textbook CG from x0 = 0 with the benchmark's own CSR SpMV loop over the
    // generated system, for the same fixed iteration count.
    const adcc::linalg::CsrMatrix a =
        adcc::linalg::make_spd(cfg_.n, cfg_.nz_per_row, cfg_.matrix_seed);
    const std::vector<double> b = adcc::linalg::make_rhs(cfg_.n, cfg_.rhs_seed);
    nnz_ = a.nnz();
    const auto rp = a.row_ptr();
    const auto ci = a.col_idx();
    const auto va = a.values();
    const std::size_t n = cfg_.n;
    const auto spmv = [&](const std::vector<double>& x, std::vector<double>& y) {
      for (std::size_t i = 0; i < n; ++i) {
        double s = 0.0;
        for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) s += va[k] * x[ci[k]];
        y[i] = s;
      }
    };
    const auto dot = [n](const std::vector<double>& u, const std::vector<double>& v) {
      double s = 0.0;
      for (std::size_t i = 0; i < n; ++i) s += u[i] * v[i];
      return s;
    };
    std::vector<double> x(n, 0.0), r = b, p = b, q(n);
    double rho = dot(r, r);
    for (std::size_t it = 0; it < cfg_.iters; ++it) {
      spmv(p, q);
      const double alpha = rho / dot(p, q);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] += alpha * p[i];
        r[i] -= alpha * q[i];
      }
      const double rho_new = dot(r, r);
      const double beta = rho_new / rho;
      rho = rho_new;
      for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    }
    // ||b - A x|| / ||b||, which starts at 1 for x0 = 0.
    spmv(x, q);
    double res = 0.0;
    for (std::size_t i = 0; i < n; ++i) res += (b[i] - q[i]) * (b[i] - q[i]);
    residual_ = std::sqrt(res / dot(b, b));
    x_ref_ = std::move(x);
    x_scale_ = 0.0;
    for (const double v : x_ref_) x_scale_ = std::max(x_scale_, std::fabs(v));
  }

  std::string check_main() override {
    if (!(residual_ < 1.0)) return "reference CG did not reduce the residual";
    const std::vector<double> x = static_cast<adcc::cg::CgWorkload&>(*main_).solution();
    if (x.size() != x_ref_.size()) return "solution has the wrong length";
    double err = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) err = std::max(err, std::fabs(x[i] - x_ref_[i]));
    if (!(err <= kRelTol * x_scale_)) {
      std::ostringstream os;
      os << "solution differs from the reference CG by " << err / x_scale_ << " (relative)";
      return os.str();
    }
    return {};
  }

  KernelRate kernel_rate() const override {
    // Per SpMV: values and column indices (12 B per nonzero), row pointers,
    // one read of x and one write of y.
    const double bytes = 12.0 * static_cast<double>(nnz_) + 8.0 * static_cast<double>(cfg_.n + 1) +
                         16.0 * static_cast<double>(cfg_.n);
    return {"kernels.spmv_gbps", "GB/s", bytes * static_cast<double>(cfg_.iters) * 1e-9,
            "kernel/spmv"};
  }

  std::string inputs() const override {
    std::ostringstream os;
    os << "CG n=" << cfg_.n << " nz/row=" << cfg_.nz_per_row << " (nnz=" << nnz_
       << ") iters=" << cfg_.iters << " vector=" << cfg_.n * 8 / 1024 << " KiB matrix="
       << (nnz_ * 12 + (cfg_.n + 1) * 8) / (1024 * 1024) << " MiB; reference residual "
       << residual_ << "; memsim twin n=" << sim_.n << " iters=" << sim_.iters
       << " cache=" << (sim_.cache_bytes >> 20) << " MiB";
    return os.str();
  }

 private:
  static constexpr double kRelTol = 1e-8;
  std::uint64_t seed_;
  adcc::cg::CgWorkloadConfig cfg_;
  adcc::cg::CgSimWorkloadConfig sim_;
  std::size_t nnz_ = 0;
  std::vector<double> x_ref_;
  double x_scale_ = 0.0;
  double residual_ = 1.0;
};

// ---------------------------------------------------------------------------
// mm-abft

class MmSuite final : public Suite {
 public:
  explicit MmSuite(std::uint64_t seed) : seed_(seed) {
    cfg_.n = 800;
    cfg_.rank_k = 100;
    cfg_.seed_a = derive(seed, 1);
    cfg_.seed_b = derive(seed, 2);
    sim_.n = 576;
    sim_.rank_k = 64;
    sim_.seed_a = derive(seed, 3);
    sim_.seed_b = derive(seed, 4);
  }

  void build() override {
    const adcc::mm::MmWorkloadConfig cfg = cfg_;
    main_ = std::make_unique<adcc::mm::MmWorkload>(cfg);
    sharded_ = std::make_unique<ShardGroup>(
        std::make_unique<adcc::mm::MmShardPlan>(cfg), ShardGroupConfig{kShards, false},
        [cfg]() -> std::unique_ptr<Workload> {
          return std::make_unique<adcc::mm::MmWorkload>(cfg);
        });
    emulated_ = std::make_unique<adcc::mm::MmSimWorkload>(sim_);
  }

  CrashPlans plans() const override {
    return {"point:mm:loop1_end:" + std::to_string(middle(seed_, 10, panels(cfg_.n, cfg_.rank_k))),
            shard_plan(seed_, panels(cfg_.n, cfg_.rank_k)),
            "point:mm:loop1_end:" + std::to_string(middle(seed_, 30, panels(sim_.n, sim_.rank_k)))};
  }

  void build_reference() override {
    // Freivalds: C = A·B is checked as C·v = A·(B·v) for a seeded random v,
    // with A and B regenerated from their seeds.
    const std::size_t n = cfg_.n;
    adcc::linalg::Matrix a(n, n), b(n, n);
    a.fill_random(cfg_.seed_a, -1, 1);
    b.fill_random(cfg_.seed_b, -1, 1);
    v_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      v_[i] = static_cast<double>(derive(seed_, 100 + i) >> 11) * 0x1.0p-53 * 2.0 - 1.0;
    }
    std::vector<double> bv(n, 0.0), bav(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        bv[i] += b(i, j) * v_[j];
        bav[i] += std::fabs(b(i, j) * v_[j]);
      }
    }
    abv_.assign(n, 0.0);
    scale_ = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double mag = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        abv_[i] += a(i, j) * bv[j];
        mag += std::fabs(a(i, j)) * bav[j];
      }
      scale_ = std::max(scale_, mag);
    }
  }

  std::string check_main() override {
    const adcc::linalg::Matrix c = static_cast<adcc::mm::MmWorkload&>(*main_).result();
    const std::size_t n = cfg_.n;
    if (c.rows() != n || c.cols() != n) return "product has the wrong shape";
    double err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double cv = 0.0;
      for (std::size_t j = 0; j < n; ++j) cv += c(i, j) * v_[j];
      err = std::max(err, std::fabs(cv - abv_[i]));
    }
    if (!(err <= kRelTol * scale_)) {
      std::ostringstream os;
      os << "Freivalds check off by " << err / scale_ << " (relative)";
      return os.str();
    }
    return {};
  }

  KernelRate kernel_rate() const override {
    // Native multiplies the checksum-encoded (n+1)x(n+1) product in rank-k
    // panels: 2 (n+1)^2 n flops in all.
    const double nc = static_cast<double>(cfg_.n + 1);
    return {"kernels.gemm_gflops", "GFLOP/s", 2.0 * nc * nc * static_cast<double>(cfg_.n) * 1e-9,
            "kernel/gemm"};
  }

  std::string inputs() const override {
    std::ostringstream os;
    os << "MM n=" << cfg_.n << " rank=" << cfg_.rank_k << " panels=" << panels(cfg_.n, cfg_.rank_k)
       << " matrix=" << (cfg_.n + 1) * (cfg_.n + 1) * 8 / 1024 << " KiB"
       << "; memsim twin n=" << sim_.n << " rank=" << sim_.rank_k
       << " cache=" << (sim_.cache_bytes >> 20) << " MiB";
    return os.str();
  }

 private:
  static std::size_t panels(std::size_t n, std::size_t k) { return (n + k - 1) / k; }
  static constexpr double kRelTol = 1e-9;
  std::uint64_t seed_;
  adcc::mm::MmWorkloadConfig cfg_;
  adcc::mm::MmSimWorkloadConfig sim_;
  std::vector<double> v_, abv_;
  double scale_ = 0.0;
};

// ---------------------------------------------------------------------------
// mc-xsbench

class McSuite final : public Suite {
 public:
  explicit McSuite(std::uint64_t seed) : seed_(seed) {
    cfg_.data.n_nuclides = 68;
    cfg_.data.gridpoints_per_nuclide = 2000;
    cfg_.data.seed = derive(seed, 1);
    cfg_.lookups = 250'000;
    cfg_.interval = 10'000;
    cfg_.seed = derive(seed, 2);
    sim_.data.n_nuclides = 24;
    sim_.data.gridpoints_per_nuclide = 500;
    sim_.data.seed = derive(seed, 3);
    sim_.lookups = 200'000;
    sim_.flush_interval = 80;
    sim_.rng_seed = derive(seed, 4);
  }

  void build() override {
    const adcc::mc::McWorkloadConfig cfg = cfg_;
    main_ = std::make_unique<adcc::mc::McWorkload>(cfg);
    sharded_ = std::make_unique<ShardGroup>(
        std::make_unique<adcc::mc::McShardPlan>(cfg), ShardGroupConfig{kShards, false},
        [cfg]() -> std::unique_ptr<Workload> {
          return std::make_unique<adcc::mc::McWorkload>(cfg);
        });
    emulated_ = std::make_unique<adcc::mc::McSimWorkload>(sim_);
  }

  CrashPlans plans() const override {
    return {"point:xs:lookup_end:" + std::to_string(middle(seed_, 10, cfg_.lookups)),
            shard_plan(seed_, units()),
            "point:xs:lookup_end:" + std::to_string(middle(seed_, 30, sim_.lookups))};
  }

  void build_reference() override { native_.reset(); }

  std::string check_main() override {
    const adcc::mc::Tally t = static_cast<adcc::mc::McWorkload&>(*main_).tally();
    if (t.total() != cfg_.lookups) return "tally total differs from the lookup count";
    // Lookups are pure functions of (seed, index): every run, crashed or not,
    // must tally exactly what the first (native) run tallied.
    if (!native_) native_ = t;
    if (t.counts != native_->counts) return "tally differs from the native run's";
    return {};
  }

  KernelRate kernel_rate() const override {
    return {"kernels.xs_mlookups_s", "Mlookups/s", static_cast<double>(cfg_.lookups) * 1e-6,
            "kernel/xs"};
  }

  std::string inputs() const override {
    std::ostringstream os;
    os << "XS nuclides=" << cfg_.data.n_nuclides << " gridpoints=" << cfg_.data.gridpoints_per_nuclide
       << " data=" << cfg_.data.footprint_bytes() / (1024 * 1024) << " MiB lookups=" << cfg_.lookups
       << " interval=" << cfg_.interval << " units=" << units() << "; memsim twin nuclides="
       << sim_.data.n_nuclides << " gridpoints=" << sim_.data.gridpoints_per_nuclide
       << " lookups=" << sim_.lookups << " flush interval=" << sim_.flush_interval
       << " cache=" << (sim_.cache_bytes >> 20) << " MiB";
    return os.str();
  }

 private:
  std::size_t units() const {
    return static_cast<std::size_t>((cfg_.lookups + cfg_.interval - 1) / cfg_.interval);
  }
  std::uint64_t seed_;
  adcc::mc::McWorkloadConfig cfg_;
  adcc::mc::McSimWorkloadConfig sim_;
  std::optional<adcc::mc::Tally> native_;
};

}  // namespace

std::unique_ptr<Suite> make_suite(const std::string& name, std::uint64_t seed) {
  if (name == "cg-npb") return std::make_unique<CgSuite>(seed);
  if (name == "mm-abft") return std::make_unique<MmSuite>(seed);
  if (name == "mc-xsbench") return std::make_unique<McSuite>(seed);
  return nullptr;
}

}  // namespace paperbench
