// End-to-end, layer-by-layer benchmark of the solver's public API.
//
//   e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (README.md in this directory says why each was chosen):
//   solid-p1     BMWCRA1 analog on 1 rank: repeated refactorize + solves
//   solid-p2     the same matrix on 2 ranks
//   shell-steps  SHIP003 analog on 2 ranks: time steps with drifting values
//   service-mix  THREAD / MT1 / QUER analogs through SolverService, a
//                closed loop of 2 outstanding jobs, every 5th job unseen
//
// --trace 0 times the user-visible operations (end-to-end metrics).
// --trace 1 calls every layer's public entry point one by one on the
// workload's matrix and times it from here (per-layer metrics), with the
// runtime tracer switched on for the factorize breakdown.
//
// Every solve is checked against a residual tolerance, every repeated
// factorization of one matrix must hash to the same factor digest, and
// every service job must end kDone.  Human-readable lines come first; the
// last line is one JSON object that run.py checks and condenses.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pastix.hpp"
#include "service/service.hpp"
#include "sparse/suite.hpp"
#include "verify/verify.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace pastix;
using SteadyClock = std::chrono::steady_clock;

constexpr double kResidualTol = 1e-9;  // ||Ax - b|| / ||b|| of every solve
constexpr std::size_t kPanelRhs = 64;  // right-hand sides per panel solve
constexpr int kSolvesPerStep = 8;      // 1-RHS solves per solver step
constexpr int kSetups = 9;             // set-ups spread over a solver session
constexpr int kMissEvery = 5;          // service-mix: every 5th job unseen
constexpr int kOutstanding = 2;        // service-mix: closed-loop window

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double median(std::vector<double> v) {
  PASTIX_CHECK(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Linear-interpolation quantile of `v` at q in [0, 1].
double quantile(std::vector<double> v, double q) {
  PASTIX_CHECK(!v.empty(), "quantile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The tail percentile a sample of n supports: p90 when at least ten
/// samples lie beyond it, else the highest one that still has ten beyond,
/// never below the median.
double tail_quantile_level(std::size_t n) {
  return std::max(0.5, std::min(0.9, 1.0 - 10.0 / static_cast<double>(n)));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Speed of the host right now, independent of the solver code: median
/// milliseconds of a fixed 256^3 multiply-add loop.  Other tenants can
/// slow this host twofold for minutes; printing this beside every run lets
/// numbers taken under different host load be told apart.
double host_reference_ms() {
  constexpr std::size_t n = 256;
  std::vector<double> a(n * n, 1.0001), b(n * n, 0.9999), c(n * n, 0.0);
  std::vector<double> t;
  for (int r = 0; r < 15; ++r) {
    const auto t0 = SteadyClock::now();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t j = 0; j < n; ++j)
          c[i * n + j] += a[i * n + k] * b[k * n + j];
    t.push_back(seconds_since(t0) * 1e3);
  }
  PASTIX_CHECK(std::isfinite(c[0]), "reference kernel overflowed");
  return median(t);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ------------------------------------------------------------------------
// Output: metrics, their base counts, checks and spans
// ------------------------------------------------------------------------

class Report {
public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, unit, value});
    std::cout << "metric " << name << " = " << num(value) << " " << unit
              << "\n";
  }
  /// A number a derived metric is computed from (printed, and re-checked
  /// by run.py's self-test).
  void base(const std::string& name, double value) {
    bases_.push_back({name, "", value});
    std::cout << "base   " << name << " = " << num(value) << "\n";
  }
  /// The raw samples behind a median, for the human-readable report.
  void samples(const std::string& name, const std::vector<double>& v) {
    std::cout << "samples " << name << " (" << v.size() << "):";
    for (const double x : v) std::cout << " " << num(x);
    std::cout << "\n";
  }
  void info(const std::string& key, const std::string& value) {
    info_.emplace_back(key, value);
  }

  /// One correctness gate: counts as attempted, and as failed unless ok.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
    std::cout << "FAILED " << what << "\n";
  }
  void fail(const std::string& what) { check(false, what); }

  [[nodiscard]] long failed() const { return failed_; }

  /// Spans around the calls into each layer: (name, parent, start, end),
  /// seconds since the benchmark started.
  class Span {
  public:
    Span(Report& r, std::string name) : r_(r), name_(std::move(name)) {
      parent_ = r_.open_.empty() ? "" : r_.open_.back();
      r_.open_.push_back(name_);
      t0_ = SteadyClock::now();
    }
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Close the span; returns its duration in seconds.
    double stop() {
      if (done_) return dur_;
      const auto t1 = SteadyClock::now();
      dur_ = std::chrono::duration<double>(t1 - t0_).count();
      done_ = true;
      r_.open_.pop_back();
      r_.spans_.push_back({name_, parent_,
                           std::chrono::duration<double>(t0_ - r_.origin_)
                               .count(),
                           std::chrono::duration<double>(t1 - r_.origin_)
                               .count()});
      return dur_;
    }

  private:
    Report& r_;
    std::string name_, parent_;
    SteadyClock::time_point t0_;
    double dur_ = 0;
    bool done_ = false;
  };

  /// Print the span list (trace runs) and the final JSON line.
  void finish(bool print_spans) {
    if (print_spans)
      for (const auto& s : spans_)
        std::cout << "span " << s.name << " parent=" << (s.parent.empty() ? "-" : s.parent)
                  << " start=" << num(s.start) << " end=" << num(s.end)
                  << "\n";
    std::ostringstream os;
    os << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i)
      os << (i ? ", " : "") << '"' << json_escape(failures_[i]) << '"';
    os << "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      os << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": "
         << num(metrics_[i].value) << ", \"unit\": \"" << metrics_[i].unit
         << "\"}";
    os << "}, \"bases\": {";
    for (std::size_t i = 0; i < bases_.size(); ++i)
      os << (i ? ", " : "") << '"' << bases_[i].name
         << "\": " << num(bases_[i].value);
    os << "}, \"info\": {";
    for (std::size_t i = 0; i < info_.size(); ++i)
      os << (i ? ", " : "") << '"' << info_[i].first << "\": \""
         << json_escape(info_[i].second) << '"';
    os << "}}";
    std::cout << os.str() << std::endl;
  }

private:
  struct Entry {
    std::string name, unit;
    double value;
  };
  struct SpanRecord {
    std::string name, parent;
    double start, end;
  };
  std::vector<Entry> metrics_, bases_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  std::vector<std::string> open_;
  std::vector<SpanRecord> spans_;
  SteadyClock::time_point origin_ = SteadyClock::now();
  long attempted_ = 0, failed_ = 0;
};

// ------------------------------------------------------------------------
// Inputs: everything derives from --seed; the solver sees only matrices
// ------------------------------------------------------------------------

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return splitmix64(s);
}

/// A suite problem's mesh with values drawn from the run's seed.  The
/// pattern (and so the operation count) is the suite's.
SymSparse<double> suite_matrix(const std::string& name, std::uint64_t seed) {
  FeMeshSpec spec = suite_problem(name).spec;
  spec.seed = mix_seed(seed, spec.seed);
  return gen_fe_mesh(spec);
}

std::vector<double> random_vector(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = 2.0 * rng.next_double() - 1.0;
  return v;
}

/// Time step k of a drifting matrix: every off-diagonal value shrinks by a
/// seeded factor in (0.9, 1], so the diagonally dominant SPD matrix stays
/// SPD while every value changes.
SymSparse<double> drift(const SymSparse<double>& a0, std::uint64_t seed,
                        std::uint64_t step) {
  SymSparse<double> a = a0;
  Rng rng(mix_seed(seed, 0xd21f7 + step));
  for (double& v : a.val) v *= 1.0 - 0.1 * rng.next_double();
  return a;
}

// ------------------------------------------------------------------------
// Per-workload configuration
// ------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      throw Error("unknown argument " + k);
    }
  }
  PASTIX_CHECK(!a.workload.empty(), "--workload is required");
  PASTIX_CHECK(a.seconds > 0, "--seconds must be positive");
  return a;
}

struct SolverWorkload {
  std::string problem;  // suite problem name
  idx_t nprocs;
  bool drifting;        // values change every step (time stepping)
};

std::optional<SolverWorkload> solver_workload(const std::string& name) {
  if (name == "solid-p1") return SolverWorkload{"BMWCRA1", 1, false};
  if (name == "solid-p2") return SolverWorkload{"BMWCRA1", 2, false};
  if (name == "shell-steps") return SolverWorkload{"SHIP003", 2, true};
  return std::nullopt;
}

SolverOptions options_for(idx_t nprocs) {
  SolverOptions opt;
  opt.nprocs = nprocs;
  return opt;
}

// ------------------------------------------------------------------------
// Shared measurement pieces
// ------------------------------------------------------------------------

/// Checks one solution against A and b.
void check_solution(Report& rep, const SymSparse<double>& a,
                    const std::vector<double>& x, const std::vector<double>& b,
                    const std::string& what) {
  const double r = relative_residual(a, x, b);
  rep.check(std::isfinite(r) && r <= kResidualTol,
            what + ": relative residual " + num(r) + " > " +
                num(kResidualTol));
}

/// The phase samples of a solver session.
struct PhaseSamples {
  std::vector<double> factorize, refactorize, solve1, panel, job;
};

/// One user step on an attached solver: refactorize(a), kSolvesPerStep
/// 1-RHS solves and one 64-RHS panel solve, each timed and checked.
/// Returns the step's factor digest.
std::uint64_t run_step(Report& rep, Solver<double>& s,
                       const SymSparse<double>& a, std::uint64_t seed,
                       std::uint64_t step, PhaseSamples& out) {
  const auto n = static_cast<std::size_t>(a.n());
  const std::string what = "step " + std::to_string(step);
  Rng rng(mix_seed(seed, 0x5e9 + step));
  std::vector<std::vector<double>> panel(kPanelRhs);
  for (auto& col : panel) col = random_vector(n, rng);

  auto t0 = SteadyClock::now();
  out.factorize.push_back(s.refactorize(a));
  double job_s = seconds_since(t0);
  out.refactorize.push_back(job_s);

  for (int i = 0; i < kSolvesPerStep; ++i) {
    const std::vector<double>& b = panel[static_cast<std::size_t>(i)];
    t0 = SteadyClock::now();
    const std::vector<double> x = s.solve(b);
    out.solve1.push_back(seconds_since(t0));
    job_s += out.solve1.back();
    check_solution(rep, a, x, b, what + " solve");
  }

  t0 = SteadyClock::now();
  const std::vector<std::vector<double>> xs = s.solve_many(panel);
  out.panel.push_back(seconds_since(t0));
  out.job.push_back(job_s + out.panel.back());
  for (std::size_t c = 0; c < kPanelRhs; ++c)
    check_solution(rep, a, xs[c], panel[c],
                   what + " panel column " + std::to_string(c));
  return s.numeric().factor_digest();
}

/// Print the solver-phase end-to-end metrics of a session: the median of
/// each phase's samples.
void report_phases(Report& rep, const PhaseSamples& p) {
  rep.samples("factorize_s", p.factorize);
  rep.samples("refactorize_s", p.refactorize);
  rep.samples("solve_1rhs_s", p.solve1);
  rep.samples("panel_s", p.panel);
  rep.metric("factorize_s", median(p.factorize), "s");
  rep.metric("refactorize_s", median(p.refactorize), "s");
  rep.metric("solve_1rhs_s", median(p.solve1), "s");
  rep.base("panel_rhs", static_cast<double>(kPanelRhs));
  rep.base("panel_median_s", median(p.panel));
  rep.metric("solve_panel_rhs_per_s",
             static_cast<double>(kPanelRhs) / median(p.panel), "solves/s");
}

/// Print the job metrics: throughput over the stream's wall time and the
/// latency median and tail.
void report_jobs(Report& rep, const std::vector<double>& latencies,
                 double stream_wall_s) {
  const double q = tail_quantile_level(latencies.size());
  rep.samples("job_s", latencies);
  rep.base("jobs_completed", static_cast<double>(latencies.size()));
  rep.base("stream_wall_s", stream_wall_s);
  rep.base("job_tail_quantile", q);
  rep.metric("jobs_per_s",
             static_cast<double>(latencies.size()) / stream_wall_s, "jobs/s");
  rep.metric("job_p50_s", median(latencies), "s");
  rep.metric("job_p90_s", quantile(latencies, q), "s");
}

// ------------------------------------------------------------------------
// --trace 1: the layers one by one
// ------------------------------------------------------------------------

/// Run the analysis chain stage by stage (as core/analysis.cpp composes it),
/// time each stage, and cross-check the result against pastix::analyze.
PlanPtr staged_analysis(Report& rep, const SparsePattern& pattern,
                        const SolverOptions& opt) {
  AnalysisPlan p;
  p.options = opt;
  p.options.mapping.nprocs = opt.nprocs;
  {
    Report::Span sp(rep, "order.compute_ordering");
    p.order = compute_ordering(pattern, opt.ordering);
    rep.metric("order.ordering_s", sp.stop(), "s");
  }
  {
    Report::Span sp(rep, "symbolic.factorize_and_split");
    p.symbol = split_symbol(
        block_symbolic_factorization(p.order.permuted, p.order.rangtab),
        opt.split);
    rep.metric("symbolic.symbolic_s", sp.stop(), "s");
  }
  {
    Report::Span sp(rep, "map.proportional_mapping");
    p.cand = proportional_mapping(p.symbol, opt.model, p.options.mapping);
    rep.metric("map.mapping_s", sp.stop(), "s");
  }
  {
    Report::Span sp(rep, "map.build_task_graph");
    p.tg = build_task_graph(p.symbol, p.cand, opt.model);
    rep.metric("map.task_graph_s", sp.stop(), "s");
  }
  {
    Report::Span sp(rep, "map.static_schedule");
    p.sched = static_schedule(p.tg, p.cand, opt.model, opt.nprocs,
                              opt.scheduler);
    if (opt.fanin.hybrid.enabled)
      compute_split(p.tg, p.sched, opt.fanin.hybrid.tail_fraction);
    rep.metric("map.schedule_s", sp.stop(), "s");
  }
  double simulate_s = 0;
  {
    Report::Span sp(rep, "simul.simulate_schedule");
    p.sim = simulate_schedule(p.tg, p.sched, opt.model);
    simulate_s += sp.stop();
  }
  {
    Report::Span sp(rep, "solver.build_comm_plan");
    p.comm = build_comm_plan(p.symbol, p.tg, p.sched, opt.fanin.partial_chunk);
    rep.metric("solver.comm_plan_s", sp.stop(), "s");
  }
  {
    Report::Span sp(rep, "solver.build_solve_plan");
    p.solve = build_solve_plan(p.symbol, p.tg, p.sched, opt.model);
    rep.metric("solver.solve_plan_s", sp.stop(), "s");
  }
  {
    Report::Span sp(rep, "simul.simulate_schedule(solve)");
    p.solve.sim = simulate_schedule(p.solve.tg, p.solve.sched, opt.model);
    simulate_s += sp.stop();
  }
  rep.metric("simul.simulate_s", simulate_s, "s");
  rep.metric("simul.predicted_factor_s", p.sim.makespan, "s");

  idx_t n2d = 0;
  for (const auto& c : p.cand.cblk) n2d += c.dist == DistType::k2D ? 1 : 0;
  rep.metric("order.nnz_l", static_cast<double>(p.order.scalar.nnz_l),
             "count");
  rep.metric("order.opc", static_cast<double>(p.order.scalar.opc), "flop");
  rep.metric("symbolic.ncblk", static_cast<double>(p.symbol.ncblk), "count");
  rep.metric("symbolic.nblok", static_cast<double>(p.symbol.nblok()), "count");
  const auto nnz_blocks = static_cast<double>(p.symbol.nnz_blocks());
  rep.metric("symbolic.nnz_blocks", nnz_blocks, "count");
  rep.metric("core.factor_mb", nnz_blocks * sizeof(double) / 1e6, "MB");
  rep.metric("map.ntask", static_cast<double>(p.tg.ntask()), "count");
  rep.metric("map.n_2d_cblks", static_cast<double>(n2d), "count");

  // The staged chain must be the library's chain: same permutation, task
  // count, per-rank task order and predicted makespan.
  PlanPtr plan;
  {
    Report::Span sp(rep, "core.analyze");
    plan = analyze(pattern, opt);
  }
  rep.check(plan->order.perm.perm == p.order.perm.perm,
            "staged ordering differs from pastix::analyze");
  rep.check(plan->tg.ntask() == p.tg.ntask(),
            "staged ntask differs from pastix::analyze");
  rep.check(plan->sched.kp == p.sched.kp,
            "staged per-rank K_p differs from pastix::analyze");
  rep.check(plan->sim.makespan == p.sim.makespan,
            "staged predicted makespan differs from pastix::analyze");

  {
    Report::Span sp(rep, "verify.check_plan");
    const verify::Report vr = verify::check_plan(*plan);
    rep.metric("verify.check_plan_s", sp.stop(), "s");
    rep.check(vr.ok(), "verify::check_plan: " + vr.summary());
  }
  return plan;
}

/// Attach, factorize (untraced and traced, interleaved), refill and solve
/// on one matrix; the factorize breakdown comes from the runtime trace.
void numeric_layers(Report& rep, const SymSparse<double>& a,
                    const PlanPtr& plan, const SolverOptions& opt,
                    std::uint64_t seed, double budget_s) {
  Solver<double> plain(opt), traced(opt);
  std::vector<double> attach;
  for (Solver<double>* s : {&plain, &traced}) {
    Report::Span sp(rep, "core.attach");
    s->analyze(a, plan);
    attach.push_back(sp.stop());
  }
  rep.metric("core.attach_s", median(attach), "s");
  traced.enable_tracing(true);

  // Interleaved pairs so machine drift hits both sides alike.  Each run
  // refills the values first (factorize works in place); the timing is the
  // factorization alone, as Solver::factorize reports it.
  std::vector<double> untraced_s, traced_s;
  std::optional<std::uint64_t> digest;
  const auto t_start = SteadyClock::now();
  for (int pair = 0; pair < 8; ++pair) {
    if (pair >= 2 && seconds_since(t_start) > budget_s) break;
    for (Solver<double>* s : {&plain, &traced}) {
      Report::Span sp(rep, s == &plain ? "solver.factorize"
                                       : "solver.factorize(traced)");
      (s == &plain ? untraced_s : traced_s).push_back(s->refactorize(a));
      sp.stop();
      const std::uint64_t d = s->numeric().factor_digest();
      if (!digest) digest = d;
      rep.check(d == *digest, "factor digest changed between factorizations");
    }
  }
  const double untraced_med = median(untraced_s);
  const double traced_med = median(traced_s);
  rep.base("trace.factorize_untraced_s", untraced_med);
  rep.base("trace.factorize_traced_s", traced_med);
  rep.metric("trace.overhead_frac", (traced_med - untraced_med) / untraced_med,
             "ratio");

  // Factorize breakdown of the last traced run.
  const TraceComparison& cmp = traced.stats().trace;
  rep.check(traced.stats().traced, "traced factorize produced no trace");
  double busy = 0, idle = 0;
  for (const auto& r : cmp.per_rank) {
    busy += r.busy;
    idle += r.idle;
  }
  const RuntimeTrace rt_factor = traced.runtime_trace();
  double kernel_s = 0;
  for (const auto& t : rt_factor.tasks) kernel_s += t.kernel_seconds;
  double messages = 0, message_bytes = 0;
  for (const auto& c : rt_factor.comm)
    if (c.is_send) {
      messages += 1;
      message_bytes += static_cast<double>(c.bytes);
    }
  rep.metric("solver.busy_s", busy, "s");
  rep.metric("solver.idle_s", idle, "s");
  rep.metric("solver.kernel_s", kernel_s, "s");
  rep.metric("rt.recv_wait_s", cmp.total_recv_wait_seconds, "s");
  rep.metric("rt.messages", messages, "count");
  rep.base("rt.message_bytes", message_bytes);
  rep.metric("rt.message_mb", message_bytes / 1e6, "MB");
  const double flops = traced.stats().total_flops;
  rep.metric("dkernel.flops", flops, "flop");
  rep.metric("dkernel.gflops", flops / kernel_s / 1e9, "Gflop/s");
  rep.metric("model.task_log10_err", cmp.mean_abs_log10_ratio, "log10");
  rep.metric("model.makespan_ratio", cmp.makespan_ratio, "ratio");

  // Solve-phase receive wait: one traced solve after the traced factorize.
  Rng rng(mix_seed(seed, 0x7ace));
  const std::vector<double> b =
      random_vector(static_cast<std::size_t>(a.n()), rng);
  {
    Report::Span sp(rep, "solver.solve(traced)");
    const std::vector<double> x = traced.solve(b);
    sp.stop();
    check_solution(rep, a, x, b, "traced solve");
  }
  double solve_wait = 0;
  for (const auto& it : traced.runtime_trace().solve_items)
    solve_wait += it.recv_wait_seconds;
  rep.metric("solver.solve_recv_wait_s", solve_wait, "s");

  // Refill: what refactorize adds on top of the factorization itself.
  {
    Report::Span sp(rep, "core.refactorize");
    const double total = [&] {
      const auto t0 = SteadyClock::now();
      plain.refactorize(a);
      return seconds_since(t0);
    }();
    sp.stop();
    rep.base("core.refactorize_s", total);
    rep.base("core.refactorize_factor_s", plain.stats().factor_seconds);
    rep.metric("core.refill_s", total - plain.stats().factor_seconds, "s");
    rep.check(plain.numeric().factor_digest() == *digest,
              "factor digest changed after refactorize");
  }
}

/// Service-layer numbers from finished jobs and the service's counters.
void report_service(Report& rep, const std::vector<service::JobResult>& jobs,
                    const PlanCacheStats& before,
                    const PlanCacheStats& after) {
  std::vector<double> queue, exec;
  double retries = 0;
  for (const auto& j : jobs) {
    queue.push_back(j.queue_seconds);
    exec.push_back(j.total_seconds - j.queue_seconds);
    retries += j.retries;
  }
  const auto hits = static_cast<double>(after.hits + after.disk_hits -
                                        before.hits - before.disk_hits);
  const auto misses = static_cast<double>(after.misses - before.misses);
  rep.metric("service.queue_s", median(queue), "s");
  rep.metric("service.exec_s", median(exec), "s");
  rep.metric("service.retries", retries, "count");
  rep.metric("plan_cache.hits", hits, "count");
  rep.metric("plan_cache.misses", misses, "count");
  rep.metric("plan_cache.hit_ratio", hits / (hits + misses), "ratio");
}

// ------------------------------------------------------------------------
// service-mix inputs
// ------------------------------------------------------------------------

/// Rod and plate meshes of the mix: THREAD, MT1 and QUER analogs, sized so
/// that a cache-hit job costs about the same on each (~0.3 s at 1 rank on a
/// 2.1 GHz Xeon), which keeps the latency median inside the hit cluster and
/// p90 inside the miss cluster.  The seed moves each family's long
/// dimension by -1..+1.  The k-th unseen pattern is a hot mesh with a few
/// seeded couplings dropped: a new fingerprint at the same analysis cost.
class MixInputs {
public:
  explicit MixInputs(std::uint64_t seed) : seed_(seed) {
    const FeMeshSpec families[] = {
        {40, 5, 5, 4, 2, 0x7423},  // THREAD: dense rod
        {20, 9, 9, 3, 1, 0x301},   // MT1: rod
        {80, 80, 1, 3, 1, 0x40e8}, // QUER: plate
    };
    for (FeMeshSpec spec : families) {
      spec.seed = mix_seed(seed, spec.seed);
      if (hot_.empty()) probe_ = gen_fe_mesh(spec);
      spec.nx += static_cast<idx_t>(spec.seed % 3) - 1;
      hot_.push_back(std::make_shared<const SymSparse<double>>(
          gen_fe_mesh(spec)));
    }
  }

  /// The THREAD rod at its unperturbed size: the direct-API phase probe.
  [[nodiscard]] const SymSparse<double>& probe() const { return probe_; }

  using MatrixPtr = std::shared_ptr<const SymSparse<double>>;
  [[nodiscard]] const std::vector<MatrixPtr>& hot() const { return hot_; }

  /// The k-th unseen matrix of the run (families in turn).
  [[nodiscard]] SymSparse<double> unseen(std::size_t k) const {
    const SymSparse<double>& h = *hot_[k % hot_.size()];
    Rng rng(mix_seed(seed_, 0x0dd + k));
    std::vector<char> drop(h.val.size(), 0);
    for (int i = 0; i < 8; ++i) drop[rng.next_below(drop.size())] = 1;
    // Dropping off-diagonal entries keeps the matrix diagonally dominant.
    SymSparse<double> a;
    a.diag = h.diag;
    a.pattern.n = h.pattern.n;
    a.pattern.colptr.assign(1, 0);
    for (idx_t j = 0; j < h.n(); ++j) {
      for (idx_t p = h.pattern.colptr[j]; p < h.pattern.colptr[j + 1]; ++p) {
        if (drop[static_cast<std::size_t>(p)]) continue;
        a.pattern.rowind.push_back(h.pattern.rowind[p]);
        a.val.push_back(h.val[p]);
      }
      a.pattern.colptr.push_back(static_cast<idx_t>(a.pattern.rowind.size()));
    }
    return a;
  }

private:
  std::uint64_t seed_;
  SymSparse<double> probe_;
  std::vector<MatrixPtr> hot_;
};

service::ServiceOptions mix_service_options() {
  service::ServiceOptions opt;
  opt.solver.nprocs = 1;
  opt.workers = 2;
  // Room for the three hot plans (1-3 MB each) and a few unseen ones, so
  // the footprint does not grow with the number of misses a run reaches.
  opt.cache.budget_bytes = 16u << 20;
  return opt;
}

/// Bring the hot patterns into the plan cache (untimed, uncounted).
void warm_hot_set(Report& rep, service::SolverService& svc,
                  const MixInputs& in, std::uint64_t seed) {
  Rng rng(mix_seed(seed, 0x3a7));
  for (const auto& a : in.hot()) {
    const auto b = random_vector(static_cast<std::size_t>(a->n()), rng);
    const service::JobResult r = svc.submit({*a, b, "warm"}).ticket.wait();
    rep.check(r.outcome == service::JobOutcome::kDone, "warm-up job failed");
  }
}

/// Closed loop through the service: keep kOutstanding jobs in flight until
/// `seconds` have passed, then let the window drain.  Every kMissEvery-th
/// job brings an unseen pattern; the rest cycle through the hot set.
struct StreamResult {
  std::vector<service::JobResult> jobs;
  double wall_s = 0;
};

StreamResult run_stream(Report& rep, service::SolverService& svc,
                        const MixInputs& in, std::uint64_t seed,
                        double seconds) {
  struct InFlight {
    service::JobTicket ticket;
    MixInputs::MatrixPtr a;
    std::vector<double> b;
    std::size_t id;
  };
  StreamResult out;
  std::deque<InFlight> flight;
  std::size_t next = 0, misses = 0;
  Rng rng(mix_seed(seed, 0x10b5));

  const auto make_next = [&] {
    const MixInputs::MatrixPtr a =
        next % kMissEvery == kMissEvery - 1
            ? std::make_shared<const SymSparse<double>>(in.unseen(misses++))
            : in.hot()[(next - next / kMissEvery) % in.hot().size()];
    std::vector<double> b =
        random_vector(static_cast<std::size_t>(a->n()), rng);
    return InFlight{{}, std::move(a), std::move(b), next++};
  };

  InFlight pending = make_next();
  const auto t0 = SteadyClock::now();
  while (true) {
    while (static_cast<int>(flight.size()) < kOutstanding &&
           seconds_since(t0) < seconds) {
      service::SubmitResult sr =
          svc.submit({*pending.a, pending.b, "mix"});
      rep.check(sr.admitted, "job " + std::to_string(pending.id) +
                                 " rejected: " + service::job_error_name(sr.reject));
      if (sr.admitted) {
        pending.ticket = sr.ticket;
        flight.push_back(std::move(pending));
      }
      pending = make_next();  // input generation overlaps the running jobs
    }
    if (flight.empty()) break;
    auto done = flight.end();
    while (done == flight.end()) {
      done = std::find_if(flight.begin(), flight.end(),
                          [](const InFlight& f) { return f.ticket.finished(); });
      if (done == flight.end())
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const service::JobResult& r = done->ticket.wait();
    const std::string what = "job " + std::to_string(done->id);
    rep.check(r.outcome == service::JobOutcome::kDone,
              what + " ended " + service::job_error_name(r.error) + ": " +
                  r.message);
    if (r.outcome == service::JobOutcome::kDone) {
      check_solution(rep, *done->a, r.x, done->b, what);
      out.jobs.push_back(r);
    }
    flight.erase(done);
  }
  out.wall_s = seconds_since(t0);
  return out;
}

// ------------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------------

/// Steps on an attached solver for `seconds` (at least three), after one
/// untimed warm-up step that touches every buffer.  A drifting session
/// gives every step new values and finally replays step 0's values; a
/// fixed one refactorizes the same values every step.  Either way the same
/// values must give the same factor bits.  `between_steps`, if given, runs
/// before each timed step with the fraction of the session elapsed; its
/// time is left out of the session's wall time.
struct Session {
  PhaseSamples phases;
  double wall_s = 0;
};

Session run_session(Report& rep, Solver<double>& solver,
                    const SymSparse<double>& a0, std::uint64_t seed,
                    double seconds, bool drifting,
                    const std::function<void(double)>& between_steps = {}) {
  Session out;
  PhaseSamples warm;
  const std::uint64_t digest0 = run_step(rep, solver, a0, seed, 0, warm);
  std::uint64_t step = 1;
  double between_s = 0;
  const auto t0 = SteadyClock::now();
  while (seconds_since(t0) - between_s < seconds || step < 4) {
    if (between_steps) {
      const auto b0 = SteadyClock::now();
      between_steps((seconds_since(t0) - between_s) / seconds);
      between_s += seconds_since(b0);
    }
    const SymSparse<double> a = drifting ? drift(a0, seed, step) : a0;
    const std::uint64_t d = run_step(rep, solver, a, seed, step, out.phases);
    if (!drifting)
      rep.check(d == digest0,
                "factor digest changed at step " + std::to_string(step));
    ++step;
  }
  out.wall_s = seconds_since(t0) - between_s;
  if (drifting)
    rep.check(run_step(rep, solver, a0, seed, 0, warm) == digest0,
              "factor digest of replayed step 0 differs");
  return out;
}

void solver_workload_e2e(Report& rep, const SolverWorkload& w,
                         const Args& args) {
  const SymSparse<double> a0 = suite_matrix(w.problem, args.seed);
  const SolverOptions opt = options_for(w.nprocs);

  // Set-up: analyze(pattern) + Solver::analyze(a, plan).  The first one
  // attaches the session's solver.  kSetups more are spread evenly over the
  // session, between steps, so setup_s samples the host over the whole run
  // like the other metrics do; their solvers are dropped.
  std::vector<double> setup;
  PlanPtr first_plan;
  const auto set_up = [&] {
    const auto t0 = SteadyClock::now();
    PlanPtr plan = analyze(a0.pattern, opt);
    auto s = std::make_unique<Solver<double>>(opt);
    s->analyze(a0, plan);
    setup.push_back(seconds_since(t0));
    if (!first_plan) first_plan = plan;
    rep.check(plan->order.perm.perm == first_plan->order.perm.perm &&
                  plan->sched.kp == first_plan->sched.kp,
              "repeated analysis produced a different plan");
    return s;
  };
  const std::unique_ptr<Solver<double>> solver = set_up();
  const Session ses = run_session(
      rep, *solver, a0, args.seed, args.seconds, w.drifting,
      [&](double elapsed) {
        if (static_cast<double>(setup.size() - 1) < elapsed * kSetups)
          set_up();
      });
  rep.samples("setup_s", setup);
  rep.metric("setup_s", median(setup), "s");
  report_phases(rep, ses.phases);
  report_jobs(rep, ses.phases.job, ses.wall_s);
}

void service_mix_e2e(Report& rep, const Args& args) {
  const MixInputs in(args.seed);
  const service::ServiceOptions opt = mix_service_options();

  // Set-up: service construction and worker start only.
  std::vector<double> setup;
  std::unique_ptr<service::SolverService> svc;
  for (int i = 0; i < 41; ++i) {
    svc.reset();
    const auto t0 = SteadyClock::now();
    svc = std::make_unique<service::SolverService>(opt);
    setup.push_back(seconds_since(t0));
  }
  rep.metric("setup_s", median(setup), "s");

  // Three quarters of the run stream jobs; the last quarter times the
  // solver phases each job runs inside the service (attach, factorize,
  // solve) through the direct API, on the THREAD rod at the service's rank
  // count.
  warm_hot_set(rep, *svc, in, args.seed);
  const StreamResult s =
      run_stream(rep, *svc, in, args.seed, 0.75 * args.seconds);
  svc.reset();
  std::vector<double> lat;
  for (const auto& j : s.jobs) lat.push_back(j.total_seconds);
  PASTIX_CHECK(!lat.empty(), "no job completed");

  const SymSparse<double>& a = in.probe();
  const SolverOptions sopt = options_for(opt.solver.nprocs);
  Solver<double> solver(sopt);
  solver.analyze(a, analyze(a.pattern, sopt));
  const Session ses = run_session(rep, solver, a, args.seed,
                                  0.25 * args.seconds, false);
  report_phases(rep, ses.phases);
  report_jobs(rep, lat, s.wall_s);
}

void solver_workload_trace(Report& rep, const SolverWorkload& w,
                           const Args& args) {
  const SymSparse<double> a = suite_matrix(w.problem, args.seed);
  const SolverOptions opt = options_for(w.nprocs);
  const PlanPtr plan = staged_analysis(rep, a.pattern, opt);
  numeric_layers(rep, a, plan, opt, args.seed, 0.5 * args.seconds);

  // The service path on this matrix: one miss, then one hit.
  service::ServiceOptions sopt;
  sopt.solver = opt;
  sopt.workers = 1;
  service::SolverService svc(sopt);
  const PlanCacheStats before = svc.stats().cache;
  Rng rng(mix_seed(args.seed, 0x5e2));
  std::vector<service::JobResult> jobs;
  for (int i = 0; i < 2; ++i) {
    const auto b = random_vector(static_cast<std::size_t>(a.n()), rng);
    Report::Span sp(rep, "service.job");
    const service::JobResult r = svc.submit({a, b, "probe"}).ticket.wait();
    sp.stop();
    rep.check(r.outcome == service::JobOutcome::kDone, "service probe failed");
    if (r.outcome == service::JobOutcome::kDone)
      check_solution(rep, a, r.x, b, "service probe");
    jobs.push_back(r);
  }
  report_service(rep, jobs, before, svc.stats().cache);
}

void service_mix_trace(Report& rep, const Args& args) {
  const MixInputs in(args.seed);
  const SymSparse<double>& a = in.probe();
  const SolverOptions opt = options_for(1);
  const PlanPtr plan = staged_analysis(rep, a.pattern, opt);
  numeric_layers(rep, a, plan, opt, args.seed, 0.25 * args.seconds);

  service::SolverService svc(mix_service_options());
  warm_hot_set(rep, svc, in, args.seed);
  const PlanCacheStats before = svc.stats().cache;
  StreamResult s;
  {
    Report::Span sp(rep, "service.stream");
    s = run_stream(rep, svc, in, args.seed, 0.5 * args.seconds);
  }
  PASTIX_CHECK(!s.jobs.empty(), "no job completed");
  report_service(rep, s.jobs, before, svc.stats().cache);
}

}  // namespace

int main(int argc, char** argv) {
  Report rep;
  try {
    const Args args = parse_args(argc, argv);
    const auto sw = solver_workload(args.workload);
    PASTIX_CHECK(sw || args.workload == "service-mix",
                 "unknown workload " + args.workload);
    rep.info("workload", args.workload);
    rep.info("seed", std::to_string(args.seed));
    rep.info("trace", args.trace ? "1" : "0");
    rep.info("compiler", PERFBENCH_COMPILER);
    rep.info("cxx_flags", PERFBENCH_CXX_FLAGS);
    rep.info("build_type", PERFBENCH_BUILD_TYPE);
    const double ref_before = host_reference_ms();
    if (args.trace)
      sw ? solver_workload_trace(rep, *sw, args) : service_mix_trace(rep, args);
    else
      sw ? solver_workload_e2e(rep, *sw, args) : service_mix_e2e(rep, args);
    rep.info("host_ref_ms", num(ref_before) + " before, " +
                                num(host_reference_ms()) + " after");
    if (!args.trace) rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.finish(args.trace);
  } catch (const std::exception& e) {
    rep.fail(std::string("exception: ") + e.what());
    rep.finish(false);
  }
  return rep.failed() == 0 ? 0 : 1;
}
