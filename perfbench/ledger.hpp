#pragma once
// Host-time layer ledgers built only from the library's public hooks.
//
// MachineLedger timestamps every Machine and DataStore hook of one run.  The
// interval between two consecutive timestamps is booked to exactly one layer,
// chosen from the event that opened the interval and the event that closed it
// (rules in ledger.cpp).  The layers therefore partition the run's wall time:
// the named layers plus algo.other_ms sum to it.
//
// TimedTransport does the same for one SPMD run, per rank: time inside send,
// time waiting for peers, and rank-local work in between.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hcmm/runtime/transport.hpp"
#include "hcmm/sim/machine.hpp"
#include "hcmm/sim/semantic.hpp"
#include "hcmm/sim/store.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Layers of a simulated run, named after the library module doing the work.
enum class Layer : std::uint8_t {
  kSimMachine,      ///< Machine construction (per-node stores)
  kSimSchedule,     ///< Machine::run: validation and round delivery
  kCollBuild,       ///< schedule construction before Machine::run
  kMatrixGemm,      ///< job preparation plus the pooled GEMM batch
  kAlgoStage,       ///< staging operands and host-side cuts
  kAlgoDelivery,    ///< storing, combining and accumulating products
  kAlgoCollect,     ///< reading C blocks back
  kAbftEncode,      ///< checksum partials and the "abft encode" phase
  kAbftVerify,      ///< the "abft verify" phase
  kAbftCheckpoint,  ///< phase-boundary checkpoints
  kAlgoOther,       ///< unattributed algorithm code between hooks
};
inline constexpr std::size_t kLayers = 11;

/// Metric name of @p layer's time, e.g. "matrix.gemm_ms".
[[nodiscard]] const char* layer_metric(Layer layer);

/// Layer totals of one or more simulated runs.
struct RunLedger {
  std::array<double, kLayers> ms{};
  double wall_ms = 0.0;
  /// Part of matrix.gemm_ms whose interval opened at a schedule or
  /// checkpoint: round execution or a checkpoint ran before the batch and
  /// no hook separates the two.
  double gemm_shared_ms = 0.0;
  std::uint64_t runs = 0;
  std::uint64_t batches = 0;
  std::uint64_t jobs = 0;
  std::uint64_t schedules = 0;
  std::vector<double> job_madds;  ///< m*k*n of every GEMM job

  [[nodiscard]] double& at(Layer l) { return ms[static_cast<std::size_t>(l)]; }
  [[nodiscard]] double at(Layer l) const {
    return ms[static_cast<std::size_t>(l)];
  }
  /// Sum of every layer, algo.other included: equals wall_ms.
  [[nodiscard]] double layer_sum() const;
  void add(const RunLedger& other);
};

/// Hook-timed ledger of one Machine run.  Construct it right after the
/// Machine (before alg->run) and call finish() when the run returns.
class MachineLedger {
 public:
  /// Installs every hook on @p m; the interval since @p start (taken before
  /// the Machine was built) is booked to sim.machine_ms.
  MachineLedger(hcmm::Machine& m, Clock::time_point start);
  ~MachineLedger();
  MachineLedger(const MachineLedger&) = delete;
  MachineLedger& operator=(const MachineLedger&) = delete;
  MachineLedger(MachineLedger&&) = delete;
  MachineLedger& operator=(MachineLedger&&) = delete;

  /// Closes the last interval at @p end and returns the run's totals.
  [[nodiscard]] RunLedger finish(Clock::time_point end);

 private:
  enum class Ev : std::uint8_t {
    kStart, kSchedule, kPhase, kGemm, kSemDeliver, kSemStage, kSemCollect,
    kStore, kChecksumPut, kEnd
  };
  enum class Mode : std::uint8_t { kNone, kStage, kDelivery, kCollect };
  enum class Phase : std::uint8_t { kAlgo, kAbftEncode, kAbftVerify };

  void event(Ev closing);
  [[nodiscard]] Layer classify(Ev closing) const;
  void on_semantic(const hcmm::SemanticEvent& ev);
  void on_store(const hcmm::StoreEvent& ev);

  hcmm::Machine& m_;
  RunLedger out_;
  Clock::time_point start_;
  Clock::time_point last_;
  Ev open_ = Ev::kStart;
  Mode mode_ = Mode::kNone;
  Phase phase_ = Phase::kAlgo;
  bool open_checkpoint_ = false;  ///< the open interval is a checkpoint
};

/// Per-rank transport time of SPMD runs, averaged over ranks.
struct RankLedger {
  double send_ms = 0.0;   ///< inside Transport::send (encode, CRC, enqueue)
  double wait_ms = 0.0;   ///< inside wait_recv / barrier
  double local_ms = 0.0;  ///< between transport calls, incl. the final join
  double wall_ms = 0.0;   ///< from begin_run to the end of the run
  std::uint64_t runs = 0;

  void add(const RankLedger& other);
};

/// A Transport decorator that times every call per rank and forwards it to
/// the team's real backend.  Each rank thread touches only its own slot;
/// begin_run() and finish() run on the caller while no rank thread exists.
class TimedTransport final : public hcmm::rt::Transport {
 public:
  explicit TimedTransport(std::unique_ptr<hcmm::rt::Transport> inner);

  /// Closes every rank's last interval at @p end and returns the run's
  /// ledger, averaged over ranks.
  [[nodiscard]] RankLedger finish(Clock::time_point end);

  [[nodiscard]] const char* name() const noexcept override;
  [[nodiscard]] std::uint32_t ranks() const noexcept override;
  [[nodiscard]] const std::vector<std::uint32_t>& local_ranks()
      const noexcept override;
  void begin_run() override;
  void send(std::uint32_t from, std::uint32_t to, std::uint64_t tag,
            hcmm::Matrix m) override;
  [[nodiscard]] hcmm::rt::RecvStatus wait_recv(
      std::uint32_t to, std::uint32_t from, std::uint64_t tag,
      std::chrono::milliseconds slice, hcmm::Matrix* out) override;
  [[nodiscard]] hcmm::rt::BarrierStatus barrier(
      std::uint32_t rank, std::chrono::milliseconds timeout) override;
  void notify_failure(std::uint32_t rank, const std::string& message) override;
  [[nodiscard]] std::vector<hcmm::rt::RemoteFailure> remote_failures()
      const override;
  [[nodiscard]] hcmm::rt::WireStats wire_stats() const override;

 private:
  struct alignas(64) Slot {
    Clock::time_point last;
    double send_ms = 0.0;
    double wait_ms = 0.0;
    double local_ms = 0.0;
  };

  std::unique_ptr<hcmm::rt::Transport> inner_;
  std::vector<Slot> slots_;
  Clock::time_point start_;
};

}  // namespace perfbench
