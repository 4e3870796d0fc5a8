#include "ledger.hpp"

#include <numeric>
#include <string_view>
#include <utility>

#include "hcmm/abft/protect.hpp"

namespace perfbench {

const char* layer_metric(Layer layer) {
  switch (layer) {
    case Layer::kSimMachine:     return "sim.machine_ms";
    case Layer::kSimSchedule:    return "sim.schedule_ms";
    case Layer::kCollBuild:      return "coll.build_ms";
    case Layer::kMatrixGemm:     return "matrix.gemm_ms";
    case Layer::kAlgoStage:      return "algo.stage_ms";
    case Layer::kAlgoDelivery:   return "algo.delivery_ms";
    case Layer::kAlgoCollect:    return "algo.collect_ms";
    case Layer::kAbftEncode:     return "abft.encode_ms";
    case Layer::kAbftVerify:     return "abft.verify_ms";
    case Layer::kAbftCheckpoint: return "abft.checkpoint_ms";
    case Layer::kAlgoOther:      return "algo.other_ms";
  }
  return "?";
}

double RunLedger::layer_sum() const {
  return std::accumulate(ms.begin(), ms.end(), 0.0);
}

void RunLedger::add(const RunLedger& other) {
  for (std::size_t i = 0; i < kLayers; ++i) ms[i] += other.ms[i];
  wall_ms += other.wall_ms;
  gemm_shared_ms += other.gemm_shared_ms;
  runs += other.runs;
  batches += other.batches;
  jobs += other.jobs;
  schedules += other.schedules;
  job_madds.insert(job_madds.end(), other.job_madds.begin(),
                   other.job_madds.end());
}

MachineLedger::MachineLedger(hcmm::Machine& m, Clock::time_point start)
    : m_(m), start_(start), last_(start) {
  out_.runs = 1;
  m_.set_schedule_observer([this](const hcmm::Schedule&) {
    event(Ev::kSchedule);
    ++out_.schedules;
  });
  m_.set_phase_observer([this](std::string_view name) {
    event(Ev::kPhase);
    phase_ = name == "abft encode"   ? Phase::kAbftEncode
             : name == "abft verify" ? Phase::kAbftVerify
                                     : Phase::kAlgo;
    // Machine::begin_phase calls take_checkpoint right after this hook.
    open_checkpoint_ = m_.checkpointing();
  });
  m_.set_gemm_observer([this](std::size_t jobs) {
    event(Ev::kGemm);
    ++out_.batches;
    out_.jobs += jobs;
  });
  m_.set_semantic_observer(
      [this](const hcmm::SemanticEvent& ev) { on_semantic(ev); });
  m_.store().set_op_observer(
      [this](const hcmm::StoreEvent& ev) { on_store(ev); });
  const Clock::time_point ready = Clock::now();
  out_.at(Layer::kSimMachine) += ms_between(last_, ready);
  last_ = ready;
}

MachineLedger::~MachineLedger() {
  m_.set_schedule_observer({});
  m_.set_phase_observer({});
  m_.set_gemm_observer({});
  m_.set_semantic_observer({});
  m_.store().set_op_observer({});
}

RunLedger MachineLedger::finish(Clock::time_point end) {
  const double dt = ms_between(last_, end);
  out_.at(classify(Ev::kEnd)) += dt;
  out_.wall_ms = ms_between(start_, end);
  last_ = end;
  return std::move(out_);
}

// An interval is booked by the first rule that matches:
//   1. it closes at a GEMM batch           -> matrix.gemm (job preparation
//      and the batch itself); when it opened at a schedule or checkpoint it
//      also counts into gemm_shared_ms
//   2. it lies in the "abft verify" phase   -> abft.verify; this includes
//      the phase's boundary checkpoint, which shares its interval with the
//      whole verification (no hook fires between them)
//   3. it opened at a phase event while checkpointing -> abft.checkpoint
//   4. it lies in the "abft encode" phase   -> abft.encode
//   5. it closes at a checksum-partial put  -> abft.encode
//   6. it opened at a schedule              -> sim.schedule (round execution)
//   7. it closes at a schedule              -> coll.build (schedule building)
//   8. the last semantic declaration was a stage / product delivery and the
//      interval closes at a store op or declaration -> algo.stage /
//      algo.delivery; after a collect declaration -> algo.collect
//   9. otherwise                            -> algo.other
Layer MachineLedger::classify(Ev closing) const {
  if (closing == Ev::kGemm) return Layer::kMatrixGemm;
  if (phase_ == Phase::kAbftVerify) return Layer::kAbftVerify;
  if (open_checkpoint_) return Layer::kAbftCheckpoint;
  if (phase_ == Phase::kAbftEncode) return Layer::kAbftEncode;
  if (closing == Ev::kChecksumPut) return Layer::kAbftEncode;
  if (open_ == Ev::kSchedule) return Layer::kSimSchedule;
  if (closing == Ev::kSchedule) return Layer::kCollBuild;
  const bool data_op = closing == Ev::kStore || closing == Ev::kSemDeliver ||
                       closing == Ev::kSemStage || closing == Ev::kSemCollect;
  switch (mode_) {
    case Mode::kCollect:
      return Layer::kAlgoCollect;
    case Mode::kDelivery:
      if (data_op) return Layer::kAlgoDelivery;
      break;
    case Mode::kStage:
      if (data_op) return Layer::kAlgoStage;
      break;
    case Mode::kNone:
      break;
  }
  return Layer::kAlgoOther;
}

void MachineLedger::event(Ev closing) {
  const Clock::time_point now = Clock::now();
  const double dt = ms_between(last_, now);
  const Layer layer = classify(closing);
  out_.at(layer) += dt;
  if (layer == Layer::kMatrixGemm &&
      (open_ == Ev::kSchedule || open_checkpoint_)) {
    out_.gemm_shared_ms += dt;
  }
  last_ = now;
  open_ = closing;
  open_checkpoint_ = false;
  switch (closing) {
    case Ev::kGemm:
    case Ev::kSemDeliver:
      mode_ = Mode::kDelivery;
      break;
    case Ev::kSemStage:
      mode_ = Mode::kStage;
      break;
    case Ev::kSemCollect:
      mode_ = Mode::kCollect;
      break;
    case Ev::kStore:
    case Ev::kChecksumPut:
      break;
    case Ev::kStart:
    case Ev::kSchedule:
    case Ev::kPhase:
    case Ev::kEnd:
      mode_ = Mode::kNone;
      break;
  }
}

void MachineLedger::on_semantic(const hcmm::SemanticEvent& ev) {
  using Kind = hcmm::SemanticEvent::Kind;
  switch (ev.kind) {
    case Kind::kGemm:
      out_.job_madds.push_back(static_cast<double>(ev.a.rows) *
                               static_cast<double>(ev.a.cols) *
                               static_cast<double>(ev.b.cols));
      event(Ev::kSemDeliver);
      break;
    case Kind::kAccumFlushSlices:
    case Kind::kAccumFlushCombine:
      event(Ev::kSemDeliver);
      break;
    case Kind::kStage:
    case Kind::kStageZero:
    case Kind::kSlice:
      event(Ev::kSemStage);
      break;
    case Kind::kCollect:
      event(Ev::kSemCollect);
      break;
  }
}

void MachineLedger::on_store(const hcmm::StoreEvent& ev) {
  const bool checksum = ev.kind == hcmm::StoreEvent::Kind::kPut &&
                        (ev.tag >> 48) == hcmm::abft::kSpaceChecksum;
  event(checksum ? Ev::kChecksumPut : Ev::kStore);
}

void RankLedger::add(const RankLedger& other) {
  send_ms += other.send_ms;
  wait_ms += other.wait_ms;
  local_ms += other.local_ms;
  wall_ms += other.wall_ms;
  runs += other.runs;
}

TimedTransport::TimedTransport(std::unique_ptr<hcmm::rt::Transport> inner)
    : inner_(std::move(inner)), slots_(inner_->ranks()) {}

RankLedger TimedTransport::finish(Clock::time_point end) {
  RankLedger out;
  for (Slot& s : slots_) {
    s.local_ms += ms_between(s.last, end);
    out.send_ms += s.send_ms;
    out.wait_ms += s.wait_ms;
    out.local_ms += s.local_ms;
  }
  const auto ranks = static_cast<double>(slots_.size());
  out.send_ms /= ranks;
  out.wait_ms /= ranks;
  out.local_ms /= ranks;
  out.wall_ms = ms_between(start_, end);
  out.runs = 1;
  return out;
}

const char* TimedTransport::name() const noexcept { return inner_->name(); }

std::uint32_t TimedTransport::ranks() const noexcept {
  return inner_->ranks();
}

const std::vector<std::uint32_t>& TimedTransport::local_ranks()
    const noexcept {
  return inner_->local_ranks();
}

void TimedTransport::begin_run() {
  start_ = Clock::now();
  for (Slot& s : slots_) s = Slot{start_, 0.0, 0.0, 0.0};
  inner_->begin_run();
}

void TimedTransport::send(std::uint32_t from, std::uint32_t to,
                          std::uint64_t tag, hcmm::Matrix m) {
  Slot& s = slots_[from];
  const Clock::time_point t0 = Clock::now();
  s.local_ms += ms_between(s.last, t0);
  inner_->send(from, to, tag, std::move(m));
  s.last = Clock::now();
  s.send_ms += ms_between(t0, s.last);
}

hcmm::rt::RecvStatus TimedTransport::wait_recv(
    std::uint32_t to, std::uint32_t from, std::uint64_t tag,
    std::chrono::milliseconds slice, hcmm::Matrix* out) {
  Slot& s = slots_[to];
  const Clock::time_point t0 = Clock::now();
  s.local_ms += ms_between(s.last, t0);
  const hcmm::rt::RecvStatus st = inner_->wait_recv(to, from, tag, slice, out);
  s.last = Clock::now();
  s.wait_ms += ms_between(t0, s.last);
  return st;
}

hcmm::rt::BarrierStatus TimedTransport::barrier(
    std::uint32_t rank, std::chrono::milliseconds timeout) {
  Slot& s = slots_[rank];
  const Clock::time_point t0 = Clock::now();
  s.local_ms += ms_between(s.last, t0);
  const hcmm::rt::BarrierStatus st = inner_->barrier(rank, timeout);
  s.last = Clock::now();
  s.wait_ms += ms_between(t0, s.last);
  return st;
}

void TimedTransport::notify_failure(std::uint32_t rank,
                                    const std::string& message) {
  inner_->notify_failure(rank, message);
}

std::vector<hcmm::rt::RemoteFailure> TimedTransport::remote_failures() const {
  return inner_->remote_failures();
}

hcmm::rt::WireStats TimedTransport::wire_stats() const {
  return inner_->wire_stats();
}

}  // namespace perfbench
