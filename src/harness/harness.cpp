#include "harness/harness.h"

#include <cstring>
#include <stdexcept>

#include "core/dev.h"
#include "core/kernels.h"
#include "obs/recorder.h"
#include "protocols/gpu_plugin.h"

namespace gpuddt::harness {

namespace {

std::int64_t span_of(const mpi::DatatypePtr& dt, std::int64_t count) {
  if (count <= 0 || dt->size() == 0) return 64;
  return dt->true_extent() + (count - 1) * dt->extent() + 64;
}

}  // namespace

PingPongResult run_pingpong(const PingPongSpec& spec) {
  // Specs that don't bring their own recorder feed the process-global one,
  // so bench binaries always have something to dump for --metrics-out.
  mpi::RuntimeConfig cfg = spec.cfg;
  if (cfg.recorder == nullptr) cfg.recorder = &obs::default_recorder();
  mpi::Runtime rt(cfg);
  rt.set_gpu_plugin(spec.plugin
                        ? spec.plugin
                        : std::make_shared<proto::GpuDatatypePlugin>());
  PingPongResult result;
  result.message_bytes = spec.dt0->size() * spec.count0;
  vt::Time measured = 0;

  rt.run([&](mpi::Process& p) {
    mpi::Comm comm(p);
    const bool on_device = p.rank() == 0 ? spec.device0 : spec.device1;
    const mpi::DatatypePtr& dt = p.rank() == 0 ? spec.dt0 : spec.dt1;
    const std::int64_t count = p.rank() == 0 ? spec.count0 : spec.count1;
    const std::int64_t span = span_of(dt, count);
    std::vector<std::byte> host_backing;
    std::byte* buf;
    if (on_device) {
      buf = static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(span)));
    } else {
      host_backing.resize(static_cast<std::size_t>(span));
      buf = host_backing.data();
    }
    std::memset(buf, p.rank() + 1, static_cast<std::size_t>(span));
    std::byte* base = buf - dt->true_lb();

    const int total_iters = spec.warmup + spec.iters;
    vt::Time t_begin = 0;
    for (int it = 0; it < total_iters; ++it) {
      if (p.rank() == 0) {
        if (it == spec.warmup) t_begin = p.clock().now();
        if (spec.background) spec.background(p);
        comm.send(base, count, dt, 1, it);
        comm.recv(base, count, dt, 1, it + 100000);
      } else {
        comm.recv(base, count, dt, 0, it);
        comm.send(base, count, dt, 0, it + 100000);
      }
    }
    if (p.rank() == 0) {
      measured = (p.clock().now() - t_begin) / spec.iters;
    }
  });
  result.avg_roundtrip = measured;
  return result;
}

PackBenchResult run_pack_bench(const PackBenchSpec& spec) {
  sg::Machine machine(spec.machine);
  sg::HostContext ctx(machine, 0);
  core::EngineConfig ecfg = spec.engine;
  if (ecfg.recorder == nullptr) ecfg.recorder = &obs::default_recorder();
  core::GpuDatatypeEngine eng(ctx, ecfg);
  using Dir = core::GpuDatatypeEngine::Dir;

  const std::int64_t total = spec.dt->size() * spec.count;
  const std::int64_t span = span_of(spec.dt, spec.count);
  auto* user = static_cast<std::byte*>(
      sg::Malloc(ctx, static_cast<std::size_t>(span)));
  std::byte* base = user - spec.dt->true_lb();
  std::byte* dev_packed = nullptr;
  std::byte* host_packed = nullptr;
  if (spec.target == PackTarget::kZeroCopy) {
    host_packed = static_cast<std::byte*>(
        sg::HostAlloc(ctx, static_cast<std::size_t>(total), true));
  } else {
    dev_packed = static_cast<std::byte*>(
        sg::Malloc(ctx, static_cast<std::size_t>(total)));
    if (spec.target == PackTarget::kDeviceHost) {
      host_packed = static_cast<std::byte*>(
          sg::HostAlloc(ctx, static_cast<std::size_t>(total), false));
    }
  }

  auto run_once = [&](bool measure_pack_only, vt::Time* pack_ns) {
    const vt::Time t0 = ctx.clock.now();
    // Pack phase.
    auto pack = eng.start(Dir::kPack, spec.dt, spec.count, base);
    std::byte* target = spec.target == PackTarget::kZeroCopy ? host_packed
                                                             : dev_packed;
    vt::Time last = eng.drain(*pack, target).ready;
    if (spec.target == PackTarget::kDeviceHost) {
      last = sg::MemcpyAsync(ctx, host_packed, dev_packed,
                             static_cast<std::size_t>(total),
                             eng.pack_stream());
    }
    ctx.clock.wait_until(last);
    if (pack_ns != nullptr) *pack_ns = ctx.clock.now() - t0;
    if (measure_pack_only || !spec.unpack_too) return;
    // Unpack phase: the reverse journey.
    vt::Time dep = ctx.clock.now();
    if (spec.target == PackTarget::kDeviceHost) {
      dep = sg::MemcpyAsync(ctx, dev_packed, host_packed,
                            static_cast<std::size_t>(total),
                            eng.pack_stream());
    }
    std::byte* source =
        spec.target == PackTarget::kZeroCopy ? host_packed : dev_packed;
    auto unpack = eng.start(Dir::kUnpack, spec.dt, spec.count, base);
    ctx.clock.wait_until(eng.drain(*unpack, source, dep).ready);
  };

  for (int w = 0; w < spec.warmup; ++w) run_once(false, nullptr);

  PackBenchResult res;
  res.bytes = total;
  vt::Time sum = 0, pack_sum = 0;
  for (int i = 0; i < spec.iters; ++i) {
    vt::Time pack_ns = 0;
    const vt::Time t0 = ctx.clock.now();
    run_once(false, &pack_ns);
    sum += ctx.clock.now() - t0;
    pack_sum += pack_ns;
  }
  res.avg_ns = sum / spec.iters;
  res.avg_pack_ns = pack_sum / spec.iters;
  return res;
}

double kernel_pack_bandwidth(const mpi::DatatypePtr& dt, std::int64_t count,
                             const core::EngineConfig& engine,
                             const sg::MachineConfig& machine_cfg) {
  sg::Machine machine(machine_cfg);
  sg::HostContext ctx(machine, 0);
  sg::Stream stream(&machine.device(0));
  const std::int64_t total = dt->size() * count;
  const std::int64_t span = span_of(dt, count);
  auto* user = static_cast<std::byte*>(
      sg::Malloc(ctx, static_cast<std::size_t>(span)));
  auto* packed = static_cast<std::byte*>(
      sg::Malloc(ctx, static_cast<std::size_t>(total)));
  std::byte* base = user - dt->true_lb();

  vt::Time start = 0, finish = 0;
  if (auto pat = dt->regular_pattern(count)) {
    start = ctx.clock.now();
    finish = core::vector_kernel(ctx, stream, core::Dir::kPack, base, *pat,
                                 0, total, packed, engine.kernel_blocks);
  } else {
    // Descriptors prepared up front: kernel-only time, as in Figure 6.
    auto units = core::convert_all(dt, count, engine.unit_bytes);
    auto* dev_units = static_cast<core::CudaDevDist*>(
        sg::Malloc(ctx, units.size() * sizeof(core::CudaDevDist)));
    sg::Memcpy(ctx, dev_units, units.data(),
               units.size() * sizeof(core::CudaDevDist));
    start = ctx.clock.now();
    finish = core::dev_kernel(ctx, stream, core::Dir::kPack, base, {units},
                              0, packed, dev_units, engine.kernel_blocks);
  }
  const vt::Time dur = finish - start;
  if (dur <= 0) return 0.0;
  return static_cast<double>(total) / static_cast<double>(dur);
}

double memcpy_d2d_bandwidth(std::int64_t bytes,
                            const sg::MachineConfig& machine_cfg) {
  sg::Machine machine(machine_cfg);
  sg::HostContext ctx(machine, 0);
  auto* a = static_cast<std::byte*>(
      sg::Malloc(ctx, static_cast<std::size_t>(bytes)));
  auto* b = static_cast<std::byte*>(
      sg::Malloc(ctx, static_cast<std::size_t>(bytes)));
  const vt::Time t0 = ctx.clock.now();
  sg::Memcpy(ctx, b, a, static_cast<std::size_t>(bytes));
  const vt::Time dur = ctx.clock.now() - t0;
  if (dur <= 0) return 0.0;
  return static_cast<double>(bytes) / static_cast<double>(dur);
}

}  // namespace gpuddt::harness
