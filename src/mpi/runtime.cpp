#include "mpi/runtime.h"

#include "check/access_tracker.h"
#include "mpi/bml.h"
#include "obs/recorder.h"
#include "mpi/btl.h"
#include "mpi/pml.h"

namespace gpuddt::mpi {

check::Switch stream_triggered_switch{"GPUDDT_STREAM_TRIGGERED",
                                      GPUDDT_STREAM_TRIGGERED_DEFAULT != 0};

// --- Process -----------------------------------------------------------------

Process::Process(Runtime& rt, int rank)
    : rt_(rt),
      rank_(rank),
      node_(rt.node_of(rank)),
      gpu_(rt.machine(), rt.device_of(rank)),
      pml_(std::make_unique<Pml>(*this)) {}

Process::~Process() = default;

int Process::size() const { return rt_.config().world_size; }

const RuntimeConfig& Process::config() const { return rt_.config(); }

int Process::node_of(int rank) const { return rt_.node_of(rank); }

vt::Time Process::am_send(int dst, int handler, Payload payload,
                          vt::Time earliest) {
  return rt_.btl_between(rank_, dst)
      .am_send(*this, dst, handler, std::move(payload), earliest);
}

bool Process::progress() {
  bool any = false;
  while (!inbox_.empty()) {
    AmMessage m = std::move(inbox_.front());
    inbox_.pop_front();
    // A rank cannot react to a message before its bytes have arrived.
    clock().wait_until(m.arrival);
    rt_.handler(m.handler)(*this, m);
    any = true;
  }
  // An empty poll is a scheduling point: iprobe/test spin loops must hand
  // the turn to the peers they are waiting on.
  if (!any) {
    if (auto* sched = rt_.scheduler()) sched->yield(rank_);
  }
  return any;
}

void Process::progress_blocking() {
  vt::EventEngine* sched = rt_.scheduler();
  if (sched == nullptr) {
    throw std::logic_error(
        "Process::progress_blocking: called outside Runtime::run");
  }
  while (!progress()) sched->wait_for_message(rank_);
}

void Process::deliver(AmMessage&& m) {
  inbox_.push_back(std::move(m));
  if (auto* sched = rt_.scheduler()) sched->note_message(rank_);
}

// --- Runtime ----------------------------------------------------------------------

Runtime::Runtime(RuntimeConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.world_size < 1)
    throw std::invalid_argument("Runtime: world_size must be >= 1");
  if (cfg_.ranks_per_node < 1)
    throw std::invalid_argument("Runtime: ranks_per_node must be >= 1");
  machine_ = std::make_unique<sg::Machine>(cfg_.machine);
  // Route access-checker counters (check.ops / check.hazards / ...) into
  // the runtime's recorder when both are present.
  check::set_recorder(*machine_, cfg_.recorder);
  bml_ = std::make_unique<Bml>(*this);
  Pml::register_handlers(*this);
  // Send ids and collective epochs restart with this Runtime, so the
  // latency engine must fence its flow-id space (obs/flowstats.h).
  if (cfg_.recorder != nullptr) cfg_.recorder->flowstats().begin_generation();
}

Runtime::~Runtime() {
  // Flows still open now (truncated run, receiver never completed) are
  // counted in flowstats.dropped, never folded into percentiles.
  if (cfg_.recorder != nullptr) cfg_.recorder->flowstats().end_generation();
}

int Runtime::register_handler(AmHandler h) {
  if (ran_)
    throw std::logic_error("Runtime: handlers must be registered before run");
  handlers_.push_back(std::move(h));
  return static_cast<int>(handlers_.size()) - 1;
}

void Runtime::set_gpu_plugin(std::shared_ptr<GpuTransferPlugin> plugin) {
  if (ran_) throw std::logic_error("Runtime: plugin must be set before run");
  plugin_ = std::move(plugin);
  if (plugin_) plugin_->attach(*this);
}

int Runtime::device_of(int rank) const {
  if (cfg_.device_of) return cfg_.device_of(rank);
  return rank % machine_->num_devices();
}

Btl& Runtime::btl_between(int a, int b) { return bml_->between(a, b); }

// Every rank is a continuation of one event loop; rank bodies reach it
// through Process::progress / progress_blocking / deliver.
void Runtime::run(const std::function<void(Process&)>& fn) {
  if (ran_) throw std::logic_error("Runtime::run may only be called once");
  ran_ = true;
  procs_.clear();
  for (int r = 0; r < cfg_.world_size; ++r)
    procs_.push_back(std::make_unique<Process>(*this, r));

  vt::EventEngine engine(cfg_.world_size, {cfg_.sim_stack_bytes});
  engine.set_block_describer(
      [this](int r) { return procs_[static_cast<size_t>(r)]->pml().pending_summary(); });
  engine.set_clock_probe(
      [this](int r) { return procs_[static_cast<size_t>(r)]->clock().now(); });
  sched_ = &engine;
  try {
    engine.run([&](int r) { fn(*procs_[static_cast<size_t>(r)]); });
  } catch (...) {
    sim_stats_ = engine.stats();
    sched_ = nullptr;
    throw;
  }
  sim_stats_ = engine.stats();
  sched_ = nullptr;
}

}  // namespace gpuddt::mpi
