// hcmm_perfbench: the repository benchmark (see README.md in this directory).
//
//   hcmm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   hcmm_perfbench --workload NAME --setup-only
//
// Each workload runs as a closed loop with a single client: the next product
// starts only after the previous one has finished and been checked.  With
// --trace 0 the loop runs with no hook installed and the end-to-end metrics
// are printed; with --trace 1 a separate traced run prints the per-layer
// metrics.  The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hcmm/abft/protect.hpp"
#include "hcmm/algo/api.hpp"
#include "hcmm/matrix/gemm.hpp"
#include "hcmm/matrix/gemm_verify.hpp"
#include "hcmm/matrix/generate.hpp"
#include "hcmm/runtime/socket_transport.hpp"
#include "hcmm/runtime/spmd_matmul.hpp"
#include "hcmm/runtime/team.hpp"
#include "hcmm/runtime/wire.hpp"
#include "hcmm/support/thread_pool.hpp"
#include "ledger.hpp"

namespace {

using hcmm::Matrix;
using hcmm::MatrixView;
using perfbench::Clock;
using perfbench::Layer;
using perfbench::ms_between;
using perfbench::RankLedger;
using perfbench::RunLedger;

enum class Kind : std::uint8_t { kSweep, kSpmd };

struct Workload {
  std::string_view name;
  Kind kind;
  std::size_t n;
  std::uint32_t p;  ///< cube nodes (sweep) or ranks (SPMD)
  bool abft;        ///< the sweep runs the ABFT-protected algorithms
};

// Why each workload exists is recorded in README.md.  BENCHMARK.json lists
// dense, fine and socket.  abft runs by hand only: on a shared host its
// run-to-run spread exceeds the bounds.  ledger is the ledger self-check,
// small enough to finish in seconds.
constexpr Workload kWorkloads[] = {
    {"dense-p64-n1024", Kind::kSweep, 1024, 64, false},
    {"fine-p4096-n256", Kind::kSweep, 256, 4096, false},
    {"abft-p64-n256", Kind::kSweep, 256, 64, true},
    {"socket-r4-n1024", Kind::kSpmd, 1024, 4, false},
    {"ledger-p8-n64", Kind::kSweep, 64, 8, false},
};

/// The SPMD ports that fit a sqrt(p) x sqrt(p) grid at p = 4, with the
/// simulator algorithm each one re-implements.
struct Port {
  std::string_view name;
  hcmm::algo::AlgoId sim;
};
constexpr Port kPorts[] = {{"cannon", hcmm::algo::AlgoId::kCannon},
                           {"simple", hcmm::algo::AlgoId::kSimple},
                           {"diag2d", hcmm::algo::AlgoId::kDiag2D}};
constexpr std::uint32_t kRanks = 4;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hcmm_perfbench: %s\n"
               "usage: hcmm_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--setup-only]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') usage(flag);
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* val = argv[++i];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == val) o.workload = &w;
      }
      if (o.workload == nullptr) usage("unknown workload");
    } else if (arg == "--seed") {
      o.seed = parse_u64(val, "bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(val, "bad --seconds"));
      if (o.seconds < 1.0) usage("--seconds must be at least 1");
    } else if (arg == "--trace") {
      const std::string_view v = val;
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else {
      usage("unknown option");
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  return o;
}

std::uint32_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::uint32_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double seconds_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now()) / 1e3;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool bit_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data().data(), y.data().data(),
                     x.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Set-up: what the program itself needs before its first product.

struct Env {
  std::shared_ptr<hcmm::ThreadPool> pool;
  std::unique_ptr<hcmm::rt::Team> mailbox;
  std::unique_ptr<hcmm::rt::Team> socket;
  /// Socket team behind a TimedTransport (traced runs only); `timed` is
  /// owned by that team.
  std::unique_ptr<hcmm::rt::Team> traced_socket;
  perfbench::TimedTransport* timed = nullptr;
  double setup_s = 0.0;
};

Env set_up(bool teams, bool traced) {
  const Clock::time_point t0 = Clock::now();
  Env env;
  // The caller pitches in on every batch, so nproc - 1 workers fill the box.
  env.pool = std::make_shared<hcmm::ThreadPool>(std::max(1u, nproc() - 1));
  // First-call kernel dispatch, including the vector path's self-test.
  (void)hcmm::gemm_ident();
  (void)hcmm::gemm_vector_ident();
  if (teams) {
    env.mailbox = std::make_unique<hcmm::rt::Team>(kRanks);
    const std::chrono::milliseconds timeout = env.mailbox->timeout();
    env.socket = std::make_unique<hcmm::rt::Team>(
        hcmm::rt::make_socket_transport(kRanks, timeout), timeout);
    if (traced) {
      auto timed = std::make_unique<perfbench::TimedTransport>(
          hcmm::rt::make_socket_transport(kRanks, timeout));
      env.timed = timed.get();
      env.traced_socket =
          std::make_unique<hcmm::rt::Team>(std::move(timed), timeout);
    }
  }
  env.setup_s = seconds_since(t0);
  return env;
}

// ---------------------------------------------------------------------------
// Inputs and checks.

struct Inputs {
  std::size_t n = 0;
  Matrix a, b, oracle;
  double amax = 0.0, bmax = 0.0;
};

Inputs make_inputs(std::size_t n, std::uint64_t seed) {
  Inputs in;
  in.n = n;
  in.a = hcmm::random_matrix(n, n, seed * 2 + 1);
  in.b = hcmm::random_matrix(n, n, seed * 2 + 2);
  in.oracle = hcmm::multiply_naive(in.a, in.b);
  in.amax = hcmm::max_abs(in.a);
  in.bmax = hcmm::max_abs(in.b);
  return in;
}

/// Counts checked products; a failed check never aborts the loop.
struct Checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Records one product: @p problem is empty when every check passed.
  bool record(const std::string& what, const std::string& problem) {
    ++attempted;
    if (problem.empty()) return true;
    ++failed;
    if (failed <= 10) {
      std::fprintf(stderr, "check failed: %s: %s\n", what.c_str(),
                   problem.c_str());
    }
    return false;
  }
};

std::string oracle_problem(const Inputs& in, const Matrix& c) {
  if (c.rows() != in.n || c.cols() != in.n) return "wrong product shape";
  const hcmm::GemmCompare cmp =
      hcmm::compare_gemm(c, in.oracle, in.n, in.amax, in.bmax);
  if (cmp.ok) return {};
  std::ostringstream os;
  os << cmp.over << " elements beyond tolerance " << cmp.tolerance
     << " (max diff " << cmp.max_abs_diff << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// Simulated runs: a fresh Machine plus alg->run(a, b, m).

struct SweepAlgo {
  std::unique_ptr<hcmm::algo::DistributedMatmul> alg;
  hcmm::PortModel port = hcmm::PortModel::kOnePort;
  bool abft = false;  ///< wrapped by abft::protect
  // First run's outcome; every repeat must match it exactly.
  bool have_ref = false;
  Matrix c;
  std::uint64_t rounds = 0;
  double word_cost = 0.0;
  std::uint64_t peak_words = 0;
};

/// The registry in order; HJE is multi-port only, so it runs multi-port.
/// @p only restricts the list to the given algorithms.
std::vector<SweepAlgo> sweep_algos(std::size_t n, std::uint32_t p,
                                   bool protect,
                                   const std::vector<hcmm::algo::AlgoId>& only) {
  std::vector<SweepAlgo> out;
  auto list = protect ? hcmm::abft::all_protected()
                      : hcmm::algo::all_algorithms();
  for (auto& alg : list) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), alg->id()) == only.end()) {
      continue;
    }
    const hcmm::PortModel port = alg->supports(hcmm::PortModel::kOnePort)
                                     ? hcmm::PortModel::kOnePort
                                     : hcmm::PortModel::kMultiPort;
    if (!alg->supports(port) || !alg->applicable(n, p)) continue;
    SweepAlgo sa;
    sa.alg = std::move(alg);
    sa.port = port;
    sa.abft = protect;
    out.push_back(std::move(sa));
  }
  return out;
}

/// Model and data-plane counters summed over runs (from SimReport).
struct SimCounts {
  std::uint64_t runs = 0, rounds = 0, messages = 0, link_words = 0,
                words_copied = 0, words_aliased = 0, combines_copied = 0,
                checkpoints = 0;
  double charged_time = 0.0;

  void add(const hcmm::SimReport& r) {
    const hcmm::PhaseStats t = r.totals();
    ++runs;
    rounds += t.rounds;
    messages += t.messages;
    link_words += t.link_words;
    words_copied += t.words_copied;
    words_aliased += t.words_aliased;
    combines_copied += t.combines_copied;
    checkpoints += t.checkpoints;
    charged_time += t.time();
  }
};

struct SweepRun {
  bool ran = false;  ///< alg->run returned (the product may still be wrong)
  double wall_ms = 0.0;
  RunLedger ledger;
  hcmm::SimReport report;
};

SweepRun run_sweep(SweepAlgo& sa, std::uint32_t p, const Inputs& in,
                   const Env& env, bool traced, Checker& chk) {
  SweepRun out;
  const std::string what = sa.alg->name();
  Matrix c;
  try {
    const Clock::time_point t0 = Clock::now();
    Clock::time_point returned;
    {
      hcmm::Machine m(hcmm::Hypercube::with_nodes(p), sa.port,
                      hcmm::CostParams{}, env.pool);
      std::optional<perfbench::MachineLedger> ledger;
      if (traced) ledger.emplace(m, t0);
      hcmm::algo::RunResult r = sa.alg->run(in.a, in.b, m);
      returned = Clock::now();
      if (ledger) out.ledger = ledger->finish(returned);
      c = std::move(r.c);
      out.report = std::move(r.report);
    }
    const Clock::time_point t1 = Clock::now();
    out.wall_ms = ms_between(t0, t1);
    if (traced) {
      // Tearing the Machine down is part of the run; book it with set-up.
      out.ledger.at(Layer::kSimMachine) += ms_between(returned, t1);
      out.ledger.wall_ms = out.wall_ms;
    }
    out.ran = true;
  } catch (const std::exception& e) {
    chk.record(what, std::string("threw: ") + e.what());
    return out;
  }

  std::string problem = oracle_problem(in, c);
  const hcmm::PhaseStats t = out.report.totals();
  if (problem.empty() && sa.abft && t.abft_detected != 0) {
    problem = "fault-free ABFT run recorded detections";
  }
  if (problem.empty() && sa.have_ref) {
    if (!bit_equal(c, sa.c)) {
      problem = "product differs bitwise from the first run";
    } else if (t.rounds != sa.rounds || t.word_cost != sa.word_cost ||
               out.report.peak_words_total != sa.peak_words) {
      problem = "charged rounds, word cost or peak space drifted";
    }
  }
  if (problem.empty() && !sa.have_ref) {
    sa.have_ref = true;
    sa.c = std::move(c);
    sa.rounds = t.rounds;
    sa.word_cost = t.word_cost;
    sa.peak_words = out.report.peak_words_total;
  }
  chk.record(what, problem);
  return out;
}

// ---------------------------------------------------------------------------
// SPMD runs over rt::Team.

struct SpmdRun {
  bool ran = false;
  double wall_ms = 0.0;
  RankLedger ledger;
  std::uint64_t recv_retries = 0;
};

/// One product of @p port on @p team.  @p ref is the mailbox product of the
/// same port, which the result must match bitwise; while it is empty, the
/// first correct product becomes it.
SpmdRun run_spmd(std::string_view port, hcmm::rt::Team& team,
                 perfbench::TimedTransport* timed, const Inputs& in,
                 Matrix* ref, Checker& chk) {
  SpmdRun out;
  const std::string what = std::string(port) + " on " + team.transport().name();
  const hcmm::rt::SpmdAlgo* alg = hcmm::rt::spmd_by_name(port);
  Matrix c;
  try {
    const Clock::time_point t0 = Clock::now();
    c = alg->fn(team, in.a, in.b);
    const Clock::time_point t1 = Clock::now();
    out.wall_ms = ms_between(t0, t1);
    if (timed != nullptr) out.ledger = timed->finish(t1);
    out.recv_retries = team.last_run_recv_retries();
    out.ran = true;
  } catch (const std::exception& e) {
    chk.record(what, std::string("threw: ") + e.what());
    return out;
  }
  std::string problem = oracle_problem(in, c);
  if (problem.empty() && !ref->empty() && !bit_equal(c, *ref)) {
    problem = "differs bitwise from the mailbox product";
  }
  if (problem.empty() && ref->empty()) *ref = std::move(c);
  chk.record(what, problem);
  return out;
}

/// Mailbox products of every port: the bitwise reference of socket runs.
std::vector<Matrix> mailbox_refs(const Env& env, const Inputs& in,
                                 Checker& chk) {
  std::vector<Matrix> refs(std::size(kPorts));
  for (std::size_t i = 0; i < std::size(kPorts); ++i) {
    (void)run_spmd(kPorts[i].name, *env.mailbox, nullptr, in, &refs[i], chk);
  }
  return refs;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* env_or_unset(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "unset";
}

void print_provenance(const Options& o, const Env& env) {
  const hcmm::GemmIdent g = hcmm::gemm_ident();
  const hcmm::GemmIdent v = hcmm::gemm_vector_ident();
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"gemm\": {\"path\": \"%s\", \"isa\": \"%s\", \"mr\": %zu, \"nr\": "
      "%zu}, \"gemm_vector\": {\"path\": \"%s\", \"isa\": \"%s\", \"mr\": "
      "%zu, \"nr\": %zu}, \"nproc\": %u, \"pool_workers\": %zu, "
      "\"build_type\": \"%s\", \"HCMM_GEMM_KERNEL\": \"%s\", "
      "\"HCMM_RT_TIMEOUT_MS\": \"%s\"}\n",
      json_escape(o.workload->name).c_str(),
      static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
      json_escape(g.path).c_str(), json_escape(g.isa).c_str(), g.mr, g.nr,
      json_escape(v.path).c_str(), json_escape(v.isa).c_str(), v.mr, v.nr,
      nproc(), env.pool->thread_count(), HCMM_PERFBENCH_BUILD_TYPE,
      json_escape(env_or_unset("HCMM_GEMM_KERNEL")).c_str(),
      json_escape(env_or_unset("HCMM_RT_TIMEOUT_MS")).c_str());
}

void print_result(Checker& chk, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) chk.record(m.name, "metric is not finite");
    std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-26s %16.6f ratio (%llu of %llu products failed a check)\n",
              "failed_ratio",
              ratio(static_cast<double>(chk.failed),
                    static_cast<double>(chk.attempted)),
              static_cast<unsigned long long>(chk.failed),
              static_cast<unsigned long long>(chk.attempted));
  std::string js = "{\"correct\": ";
  js += chk.failed == 0 && chk.attempted > 0 ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(chk.attempted);
  js += ", \"failed\": " + std::to_string(chk.failed);
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) js += ", ";
    js += "\"" + json_escape(metrics[i].name) + "\": {\"value\": " +
          json_number(metrics[i].value) + ", \"unit\": \"" +
          json_escape(metrics[i].unit) + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Untraced closed loop: end-to-end metrics.

/// Runs whole passes until the next one would overrun @p seconds, and at
/// least @p min_passes; returns the number run.
template <typename Pass>
std::uint64_t closed_loop(double seconds, std::uint64_t min_passes,
                          Pass&& pass) {
  const Clock::time_point start = Clock::now();
  double last = 0.0;
  std::uint64_t done = 0;
  for (; done < min_passes || seconds_since(start) + last <= seconds; ++done) {
    const Clock::time_point t = Clock::now();
    pass();
    last = seconds_since(t);
  }
  return done;
}

std::vector<Metric> end_to_end(const Workload& w, const Options& o,
                               const Env& env, const Inputs& in,
                               Checker& chk) {
  std::vector<double> walls;
  std::vector<std::string> names;
  std::vector<std::vector<double>> per_name;  // walls by algorithm or port
  if (w.kind == Kind::kSweep) {
    std::vector<SweepAlgo> algos = sweep_algos(w.n, w.p, w.abft, {});
    for (const SweepAlgo& sa : algos) names.push_back(sa.alg->name());
    per_name.resize(algos.size());
    // Warm-up: page in the operands and pool once, checked but not timed.
    (void)run_sweep(algos.front(), w.p, in, env, false, chk);
    // At least two passes, so every algorithm has a repeat to compare with.
    closed_loop(o.seconds, 2, [&] {
      for (std::size_t i = 0; i < algos.size(); ++i) {
        const SweepRun r = run_sweep(algos[i], w.p, in, env, false, chk);
        if (!r.ran) continue;
        walls.push_back(r.wall_ms);
        per_name[i].push_back(r.wall_ms);
      }
    });
  } else {
    for (const Port& port : kPorts) names.emplace_back(port.name);
    per_name.resize(std::size(kPorts));
    std::vector<Matrix> refs = mailbox_refs(env, in, chk);
    const hcmm::rt::WireStats before = env.socket->wire_stats();
    (void)run_spmd(kPorts[0].name, *env.socket, nullptr, in, &refs[0], chk);
    closed_loop(o.seconds, 2, [&] {
      for (std::size_t i = 0; i < std::size(kPorts); ++i) {
        const SpmdRun r =
            run_spmd(kPorts[i].name, *env.socket, nullptr, in, &refs[i], chk);
        if (!r.ran) continue;
        walls.push_back(r.wall_ms);
        per_name[i].push_back(r.wall_ms);
      }
    });
    const hcmm::rt::WireStats after = env.socket->wire_stats();
    const std::uint64_t frames = after.frames_sent - before.frames_sent;
    const std::uint64_t retx = after.retransmits - before.retransmits;
    std::printf("socket: %llu frames, %llu retransmits (ratio %.4f)\n",
                static_cast<unsigned long long>(frames),
                static_cast<unsigned long long>(retx),
                ratio(static_cast<double>(retx), static_cast<double>(frames)));
  }

  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf("  %-26s %10.3f ms median of %zu\n", names[i].c_str(),
                median(per_name[i]), per_name[i].size());
  }
  std::vector<double> sorted = walls;
  std::sort(sorted.begin(), sorted.end());
  // Tail: the highest of p75/p90/p95/p99/p99.9 (nearest rank) with at
  // least ten samples beyond it, so the percentile stays put while the
  // sample count moves with the host's speed.  Below 40 samples none
  // qualifies, and the tail is the sample with exactly ten beyond it, but
  // never below the median.
  const std::size_t count = sorted.size();
  std::size_t rank = std::max(count > 10 ? count - 10 : 0, (count + 1) / 2);
  for (const std::size_t t : {999u, 990u, 950u, 900u, 750u}) {
    const std::size_t r = (t * count + 999) / 1000;
    if (count - r >= 10) {
      rank = r;
      break;
    }
  }
  double total_ms = 0.0;
  for (const double x : walls) total_ms += x;
  const double n = static_cast<double>(w.n);
  std::printf("%zu timed products; run_ms_tail is p%.1f (%zu beyond it)\n",
              count,
              count == 0 ? 0.0
                         : 100.0 * static_cast<double>(rank) /
                               static_cast<double>(count),
              count - rank);
  return {
      {"run_ms_p50", median(walls), "ms"},
      {"run_ms_tail", count == 0 ? 0.0 : sorted[rank - 1], "ms"},
      {"effective_gflops",
       ratio(2.0 * n * n * n * static_cast<double>(count), total_ms * 1e6),
       "GFLOP/s"},
      {"setup_s", env.setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.

/// Traced simulator runs of one algorithm list.
struct SweepStats {
  RunLedger ledger;
  SimCounts counts;
  std::uint64_t passes = 0;
  std::vector<double> untraced_ms;  ///< paired untraced walls
  double paired_traced_ms = 0.0;    ///< traced walls of the same products
};

/// Passes over @p algos within @p budget_s (at least one), each product
/// traced and, with @p paired, also run untraced.
SweepStats sweep_block(std::vector<SweepAlgo>& algos, std::uint32_t p,
                       const Inputs& in, const Env& env, bool paired,
                       double budget_s, Checker& chk) {
  SweepStats st;
  std::uint64_t pairs = 0;
  st.passes = closed_loop(budget_s, 1, [&] {
    for (SweepAlgo& sa : algos) {
      // Alternate which side of a pair runs first, so warm caches favour
      // neither.
      const bool traced_first = paired && (pairs++ % 2 == 1);
      SweepRun r;
      std::optional<SweepRun> plain;
      if (traced_first) r = run_sweep(sa, p, in, env, true, chk);
      if (paired) plain = run_sweep(sa, p, in, env, false, chk);
      if (!traced_first) r = run_sweep(sa, p, in, env, true, chk);
      if (!r.ran || (plain && !plain->ran)) continue;
      st.ledger.add(r.ledger);
      st.counts.add(r.report);
      if (plain) {
        st.untraced_ms.push_back(plain->wall_ms);
        st.paired_traced_ms += r.wall_ms;
      }
    }
  });
  return st;
}

/// SPMD runs of every port: untraced socket, traced socket, and mailbox.
struct SpmdStats {
  RankLedger ledger;  ///< traced socket runs
  std::vector<double> socket_ms, traced_ms, mailbox_ms;
  std::uint64_t frames = 0, payload_bytes = 0, retransmits = 0;
  std::uint64_t recv_retries = 0;
  std::uint64_t socket_runs = 0;
};

SpmdStats spmd_block(const Env& env, const Inputs& in, double budget_s,
                     Checker& chk) {
  SpmdStats st;
  std::vector<Matrix> refs = mailbox_refs(env, in, chk);
  const hcmm::rt::WireStats s0 = env.socket->wire_stats();
  const hcmm::rt::WireStats t0 = env.traced_socket->wire_stats();
  std::uint64_t pairs = 0;
  closed_loop(budget_s, 1, [&] {
    for (std::size_t i = 0; i < std::size(kPorts); ++i) {
      const std::string_view port = kPorts[i].name;
      const bool traced_first = (pairs++ % 2 == 1);
      SpmdRun traced;
      if (traced_first) {
        traced = run_spmd(port, *env.traced_socket, env.timed, in, &refs[i],
                          chk);
      }
      const SpmdRun plain =
          run_spmd(port, *env.socket, nullptr, in, &refs[i], chk);
      if (!traced_first) {
        traced = run_spmd(port, *env.traced_socket, env.timed, in, &refs[i],
                          chk);
      }
      const SpmdRun mail =
          run_spmd(port, *env.mailbox, nullptr, in, &refs[i], chk);
      if (!plain.ran || !traced.ran || !mail.ran) continue;
      st.socket_ms.push_back(plain.wall_ms);
      st.traced_ms.push_back(traced.wall_ms);
      st.mailbox_ms.push_back(mail.wall_ms);
      st.ledger.add(traced.ledger);
      st.recv_retries += plain.recv_retries + traced.recv_retries;
      st.socket_runs += 2;
    }
  });
  const hcmm::rt::WireStats s1 = env.socket->wire_stats();
  const hcmm::rt::WireStats t1 = env.traced_socket->wire_stats();
  st.frames = (s1.frames_sent - s0.frames_sent) +
              (t1.frames_sent - t0.frames_sent);
  st.payload_bytes = (s1.payload_bytes - s0.payload_bytes) +
                     (t1.payload_bytes - t0.payload_bytes);
  st.retransmits =
      (s1.retransmits - s0.retransmits) + (t1.retransmits - t0.retransmits);
  return st;
}

/// Median seconds of @p reps calls of @p fn.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t = Clock::now();
    fn();
    s.push_back(seconds_since(t));
  }
  return median(s);
}

/// One n x n vector-path GEMM split into row panels over the pool and the
/// caller, checked against the oracle; returns its median seconds.
double ref_pool_gemm(const Env& env, const Inputs& in, Checker& chk) {
  const std::size_t n = in.n;
  const std::size_t parts = env.pool->thread_count() + 1;
  const std::size_t rows = (n + parts - 1) / parts;
  std::vector<Matrix> panels;
  auto once = [&] {
    panels.clear();
    std::vector<std::function<void()>> jobs;
    for (std::size_t r0 = 0; r0 < n; r0 += rows) {
      panels.emplace_back(std::min(rows, n - r0), n);
    }
    for (std::size_t i = 0; i < panels.size(); ++i) {
      jobs.emplace_back([&, i] {
        Matrix& c = panels[i];
        hcmm::gemm_accumulate_fast(
            MatrixView(in.a.data().data() + i * rows * n, c.rows(), n), in.b,
            c);
      });
    }
    env.pool->run_batch(std::move(jobs));
  };
  const double s = median_seconds(5, once);
  Matrix c(n, n);
  for (std::size_t i = 0; i < panels.size(); ++i) {
    c.set_block(i * rows, 0, panels[i]);
  }
  chk.record("pooled reference GEMM", oracle_problem(in, c));
  return s;
}

double ref_1t_gemm(const Inputs& in, Checker& chk) {
  Matrix c;
  const double s = median_seconds(3, [&] {
    c = Matrix(in.n, in.n);
    hcmm::gemm_accumulate_fast(in.a, in.b, c);
  });
  chk.record("single-thread reference GEMM", oracle_problem(in, c));
  return s;
}

/// wire::crc32 throughput on buffers of @p bytes, for at least 50 ms.
double crc32_mbps(std::size_t bytes, Checker& chk) {
  std::vector<std::uint8_t> buf(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  const std::uint32_t first = hcmm::rt::wire::crc32(buf);
  bool same = true;
  std::size_t done = 0;
  const Clock::time_point t = Clock::now();
  while (done == 0 || seconds_since(t) < 0.05) {
    same = same && hcmm::rt::wire::crc32(buf) == first;
    done += bytes;
  }
  const double s = seconds_since(t);
  chk.record("crc32 repeat", same ? "" : "crc32 of one buffer changed");
  return static_cast<double>(done) / s / 1e6;
}

/// Ping-pong of one frame-sized matrix between ranks 0 and 1 over the
/// untraced socket team.
double loopback_mbps(const Env& env, std::size_t blk, Checker& chk) {
  constexpr int kTrips = 10;
  const Matrix frame = hcmm::random_matrix(blk, blk, 7);
  bool same = true;
  const Clock::time_point t = Clock::now();
  try {
    env.socket->run([&](hcmm::rt::Rank& r) {
      for (int i = 0; i < kTrips; ++i) {
        const auto tag = static_cast<std::uint64_t>(i);
        if (r.id() == 0) {
          r.send(1, tag, frame);
          const Matrix back = r.recv(1, tag);
          if (!bit_equal(back, frame)) same = false;
        } else if (r.id() == 1) {
          r.send(0, tag, r.recv(0, tag));
        }
      }
    });
  } catch (const std::exception& e) {
    chk.record("loopback ping-pong", std::string("threw: ") + e.what());
    return 0.0;
  }
  const double s = seconds_since(t);
  chk.record("loopback ping-pong", same ? "" : "frame came back altered");
  return 2.0 * kTrips * static_cast<double>(frame.size() * sizeof(double)) /
         s / 1e6;
}

/// |layers - wall| within rounding: the ledger partitions the wall time.
bool closes(double layers, double wall) {
  return std::abs(layers - wall) <= 1e-9 * std::max(1.0, wall) + 1e-6;
}

std::vector<Metric> per_layer(const Workload& w, const Options& o,
                              const Env& env, const Inputs& in, Checker& chk) {
  using hcmm::algo::AlgoId;
  const bool sweep = w.kind == Kind::kSweep;
  const std::uint32_t sim_p = sweep ? w.p : kRanks;
  const std::vector<AlgoId> only =
      sweep ? std::vector<AlgoId>{}
            : std::vector<AlgoId>{kPorts[0].sim, kPorts[1].sim, kPorts[2].sim};
  std::vector<SweepAlgo> plain_algos = sweep_algos(w.n, sim_p, false, only);
  std::vector<SweepAlgo> prot_algos = sweep_algos(w.n, sim_p, true, only);

  // The workload's own loop, each product run both untraced and traced;
  // then the companions that reach the layers its own loop bypasses.  The
  // own loop gets half the run, each companion an eighth (at least one pass).
  SweepStats plain, prot;
  SpmdStats spmd;
  const double own_budget = o.seconds / 2.0;
  const double comp_budget = o.seconds / 8.0;
  if (sweep) {
    SweepStats& own = w.abft ? prot : plain;
    own = sweep_block(w.abft ? prot_algos : plain_algos, sim_p, in, env, true,
                      own_budget, chk);
    SweepStats& comp = w.abft ? plain : prot;
    comp = sweep_block(w.abft ? plain_algos : prot_algos, sim_p, in, env,
                       false, comp_budget, chk);
    spmd = spmd_block(env, in, comp_budget, chk);
  } else {
    spmd = spmd_block(env, in, own_budget, chk);
    plain = sweep_block(plain_algos, sim_p, in, env, false, comp_budget, chk);
    prot = sweep_block(prot_algos, sim_p, in, env, false, comp_budget, chk);
  }
  const SweepStats& sim = w.abft ? prot : plain;  // matrix/algo/coll/sim
  const RunLedger& L = sim.ledger;
  const double runs = static_cast<double>(std::max<std::uint64_t>(L.runs, 1));
  const SimCounts& sc = sim.counts;
  const double sc_runs =
      static_cast<double>(std::max<std::uint64_t>(sc.runs, 1));

  // Ledger self-check: every traced run's layers sum to its wall time.
  for (const SweepStats* s : {&plain, &prot}) {
    chk.record("ledger closure (simulator)",
               closes(s->ledger.layer_sum(), s->ledger.wall_ms)
                   ? ""
                   : "layers do not sum to the traced wall");
  }
  const RankLedger& R = spmd.ledger;
  chk.record("ledger closure (SPMD ranks)",
             closes(R.send_ms + R.wait_ms + R.local_ms, R.wall_ms)
                 ? ""
                 : "rank layers do not sum to the run wall");
  std::printf("ledger closure: simulator layers %.3f ms vs wall %.3f ms; "
              "rank layers %.3f ms vs wall %.3f ms\n",
              L.layer_sum(), L.wall_ms, R.send_ms + R.wait_ms + R.local_ms,
              R.wall_ms);
  std::printf("ledger: %.3f ms of matrix.gemm_ms shared its interval with "
              "round execution or a checkpoint\n",
              L.gemm_shared_ms);

  // Reference rates at this workload's n, on the same pool, same run.
  const double ref_pool_s = ref_pool_gemm(env, in, chk);
  const double ref_1t_s = ref_1t_gemm(in, chk);
  const double flop = 2.0 * static_cast<double>(in.n) *
                      static_cast<double>(in.n) * static_cast<double>(in.n);
  const std::size_t blk = in.n / 2;  // SPMD block side at p = 4
  const double frame_bytes = static_cast<double>(blk * blk * sizeof(double));

  std::vector<Metric> m;
  auto per_run = [&](Layer l) { return L.at(l) / runs; };
  const double gemm_ms = L.at(Layer::kMatrixGemm);
  double madds = 0.0;
  for (const double x : L.job_madds) madds += x;
  m.push_back({"matrix.gemm_ms", per_run(Layer::kMatrixGemm), "ms"});
  m.push_back({"matrix.gemm_share", ratio(gemm_ms, L.wall_ms), "ratio"});
  m.push_back({"matrix.gemm_gflops", ratio(2.0 * madds, gemm_ms * 1e6),
               "GFLOP/s"});
  m.push_back({"matrix.gemm_jobs", static_cast<double>(L.jobs) / runs,
               "count"});
  m.push_back({"matrix.gemm_batches", static_cast<double>(L.batches) / runs,
               "count"});
  m.push_back({"matrix.us_per_job",
               ratio(gemm_ms * 1e3, static_cast<double>(L.jobs)), "us"});
  m.push_back({"matrix.job_mflop_p50", 2.0 * median(L.job_madds) / 1e6,
               "MFLOP"});
  m.push_back({"matrix.ref_pool_gflops", flop / ref_pool_s / 1e9, "GFLOP/s"});
  m.push_back({"matrix.ref_1t_gflops", flop / ref_1t_s / 1e9, "GFLOP/s"});

  m.push_back({"algo.stage_ms", per_run(Layer::kAlgoStage), "ms"});
  m.push_back({"algo.delivery_ms", per_run(Layer::kAlgoDelivery), "ms"});
  m.push_back({"algo.collect_ms", per_run(Layer::kAlgoCollect), "ms"});
  m.push_back({"algo.other_ms", per_run(Layer::kAlgoOther), "ms"});
  m.push_back({"coll.build_ms", per_run(Layer::kCollBuild), "ms"});

  const double schedule_ms = L.at(Layer::kSimSchedule);
  m.push_back({"sim.machine_ms", per_run(Layer::kSimMachine), "ms"});
  m.push_back({"sim.schedule_ms", schedule_ms / runs, "ms"});
  m.push_back({"sim.us_per_message",
               ratio(schedule_ms * 1e3, static_cast<double>(sc.messages)),
               "us"});
  m.push_back({"sim.schedules", static_cast<double>(L.schedules) / runs,
               "count"});
  m.push_back({"sim.rounds", static_cast<double>(sc.rounds) / sc_runs,
               "count"});
  m.push_back({"sim.messages", static_cast<double>(sc.messages) / sc_runs,
               "count"});
  m.push_back({"sim.link_words", static_cast<double>(sc.link_words) / sc_runs,
               "words"});
  m.push_back({"sim.words_copied",
               static_cast<double>(sc.words_copied) / sc_runs, "words"});
  m.push_back({"sim.words_aliased",
               static_cast<double>(sc.words_aliased) / sc_runs, "words"});
  m.push_back({"sim.combines_copied",
               static_cast<double>(sc.combines_copied) / sc_runs, "count"});
  m.push_back({"sim.charged_time", sc.charged_time / sc_runs, "word-times"});

  const RunLedger& P = prot.ledger;
  const double pruns = static_cast<double>(std::max<std::uint64_t>(P.runs, 1));
  m.push_back({"abft.encode_ms", P.at(Layer::kAbftEncode) / pruns, "ms"});
  m.push_back({"abft.verify_ms", P.at(Layer::kAbftVerify) / pruns, "ms"});
  m.push_back({"abft.checkpoint_ms", P.at(Layer::kAbftCheckpoint) / pruns,
               "ms"});
  m.push_back({"abft.checkpoints",
               static_cast<double>(prot.counts.checkpoints) /
                   static_cast<double>(
                       std::max<std::uint64_t>(prot.counts.runs, 1)),
               "count"});
  // Same algorithms, both traced: mean protected pass over mean plain pass.
  m.push_back({"abft.overhead_ratio",
               ratio(P.wall_ms / static_cast<double>(prot.passes),
                     plain.ledger.wall_ms / static_cast<double>(plain.passes)),
               "ratio"});

  const double rruns = static_cast<double>(std::max<std::uint64_t>(R.runs, 1));
  const double sruns =
      static_cast<double>(std::max<std::uint64_t>(spmd.socket_runs, 1));
  m.push_back({"runtime.wire_overhead_ms",
               mean(spmd.socket_ms) - mean(spmd.mailbox_ms), "ms"});
  m.push_back({"runtime.recv_wait_ms", R.wait_ms / rruns, "ms"});
  m.push_back({"runtime.send_ms", R.send_ms / rruns, "ms"});
  m.push_back({"runtime.local_ms", R.local_ms / rruns, "ms"});
  m.push_back({"runtime.frames", static_cast<double>(spmd.frames) / sruns,
               "count"});
  m.push_back({"runtime.payload_mb",
               static_cast<double>(spmd.payload_bytes) / sruns / 1e6, "MB"});
  m.push_back({"runtime.retransmits",
               static_cast<double>(spmd.retransmits) / sruns, "count"});
  m.push_back({"runtime.retransmit_ratio",
               ratio(static_cast<double>(spmd.retransmits),
                     static_cast<double>(spmd.frames)),
               "ratio"});
  m.push_back({"runtime.recv_retries",
               static_cast<double>(spmd.recv_retries) / sruns, "count"});
  m.push_back({"runtime.loopback_mbps", loopback_mbps(env, blk, chk), "MB/s"});
  m.push_back({"runtime.crc32_mbps",
               crc32_mbps(static_cast<std::size_t>(frame_bytes), chk),
               "MB/s"});

  // The trace ratios describe the workload's own loop.
  double own_wall = 0.0, own_layers = 0.0, traced = 0.0, untraced_med = 0.0;
  double untraced_sum = 0.0;
  if (sweep) {
    const SweepStats& own = w.abft ? prot : plain;
    own_wall = own.ledger.wall_ms;
    own_layers = own_wall - own.ledger.at(Layer::kAlgoOther);
    traced = own.paired_traced_ms;
    for (const double x : own.untraced_ms) untraced_sum += x;
    untraced_med = median(own.untraced_ms);
  } else {
    for (const double x : spmd.traced_ms) own_wall += x;
    own_layers = R.send_ms + R.wait_ms + R.local_ms;
    traced = own_wall;
    for (const double x : spmd.socket_ms) untraced_sum += x;
    untraced_med = median(spmd.socket_ms);
  }
  m.push_back({"trace.attributed_share", ratio(own_layers, own_wall),
               "ratio"});
  m.push_back({"trace.overhead", ratio(traced, untraced_sum), "ratio"});
  m.push_back({"trace.run_over_ref", ratio(untraced_med, ref_pool_s * 1e3),
               "ratio"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef HCMM_SANITIZED
  std::fprintf(stderr,
               "hcmm_perfbench: refusing to time a sanitizer-instrumented "
               "build; configure without HCMM_SANITIZE\n");
  return 3;
#endif
  const Options o = parse(argc, argv);
  const Workload& w = *o.workload;
  try {
    Env env = set_up(w.kind == Kind::kSpmd || o.trace, o.trace);
    if (o.setup_only) {
      std::printf("setup_s=%.9f\n", env.setup_s);
      return 0;
    }
    print_provenance(o, env);
    const Inputs in = make_inputs(w.n, o.seed);
    Checker chk;
    const std::vector<Metric> metrics =
        o.trace ? per_layer(w, o, env, in, chk)
                : end_to_end(w, o, env, in, chk);
    print_result(chk, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hcmm_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
