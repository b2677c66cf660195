// Bench-side probes for felip_round_bench: sample collectors, process
// counters and decorators that time calls into each layer's public
// interface from outside the library. Nothing here is compiled into
// src/; the untraced run installs none of the decorators.

#ifndef FELIP_PERFBENCH_PROBES_H_
#define FELIP_PERFBENCH_PROBES_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "felip/common/status.h"
#include "felip/obs/metrics.h"
#include "felip/svc/server.h"
#include "felip/svc/sink.h"
#include "felip/svc/transport.h"

namespace felip::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// Process-wide CPU time (user + sys, every thread) and context switches.
struct ProcUsage {
  double cpu_s = 0.0;
  uint64_t context_switches = 0;
};

inline ProcUsage ReadProcUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcUsage out;
  out.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
              static_cast<double>(usage.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(usage.ru_utime.tv_usec) +
              1e-6 * static_cast<double>(usage.ru_stime.tv_usec);
  out.context_switches = static_cast<uint64_t>(usage.ru_nvcsw) +
                         static_cast<uint64_t>(usage.ru_nivcsw);
  return out;
}

inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Peak resident set size of this process (VmHWM), in MB.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Resets the peak resident set size to the current one (Linux 4.0+), so
// the next PeakRssMb() reads the peak since this call. False when the
// kernel does not allow it; PeakRssMb() then reads the process peak.
inline bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

// Host CPU time counters (/proc/stat "cpu" line): total jiffies and the
// part the hypervisor stole. Differenced over a run, the steal share says
// whether a slow run was this machine's neighbours rather than the code.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};

inline HostCpu ReadHostCpu() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  HostCpu cpu;
  uint64_t value = 0;
  for (int field = 0; field < 10 && stat >> value; ++field) {
    cpu.total += value;
    if (field == 7) cpu.steal = value;
  }
  return cpu;
}

// Share of host CPU time stolen between two reads; 0 if none elapsed.
inline double StealShare(const HostCpu& before, const HostCpu& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

// Total seconds recorded by obs spans whose innermost name is `leaf` and
// whose full path starts with `root_prefix`. Span stats are cumulative,
// so callers difference two reads.
inline double SpanSeconds(std::string_view leaf,
                          std::string_view root_prefix = "") {
  const obs::Registry& registry = obs::Registry::Default();
  double total = 0.0;
  for (const std::string& path : registry.SpanPaths()) {
    const size_t slash = path.rfind('/');
    const std::string_view full(path);
    const std::string_view name =
        slash == std::string::npos ? full : full.substr(slash + 1);
    if (name != leaf || !full.starts_with(root_prefix)) {
      continue;
    }
    total += registry.SpanStatsFor(path).total_seconds;
  }
  return total;
}

// Thread-safe list of observations (seconds, bytes or counts).
class Samples {
 public:
  void Add(double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    values_.push_back(value);
  }
  std::vector<double> values() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return values_;
  }
  double Sum() const {
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<double> values_;
};

// The seams of one ingest node, timed from outside when tracing. The
// handler runs on the transport IO thread; sink, log, checkpoint and hook
// run inside IngestServer's drain critical section.
struct NodeTrace {
  Samples handler_s;
  Samples sink_s;
  Samples log_s;
  Samples checkpoint_s;
  Samples hook_s;
  Samples hook_keys;
  Samples received_bytes;  // frames read by this node's client connections

  double CriticalSeconds() const {
    return sink_s.Sum() + log_s.Sum() + checkpoint_s.Sum() + hook_s.Sum();
  }
};

// Times every call of the wrapped server's frame handler.
class TimedFrameServer final : public svc::FrameServer {
 public:
  TimedFrameServer(std::unique_ptr<svc::FrameServer> inner, Samples* out)
      : inner_(std::move(inner)), out_(out) {}

  bool Start(svc::FrameHandler handler) override {
    return inner_->Start(
        [handler = std::move(handler), out = out_](
            uint64_t connection_id, std::vector<uint8_t>&& payload) {
          const Clock::time_point start = Clock::now();
          std::vector<uint8_t> response =
              handler(connection_id, std::move(payload));
          out->Add(SecondsBetween(start, Clock::now()));
          return response;
        });
  }
  void Stop() override { inner_->Stop(); }
  std::string endpoint() const override { return inner_->endpoint(); }

 private:
  std::unique_ptr<svc::FrameServer> inner_;
  Samples* out_;
};

// Records the size of every frame received on the wrapped connection.
class CountingConnection final : public svc::FrameConnection {
 public:
  CountingConnection(std::unique_ptr<svc::FrameConnection> inner,
                     Samples* received_bytes)
      : inner_(std::move(inner)), received_bytes_(received_bytes) {}

  bool SendFrame(const std::vector<uint8_t>& payload) override {
    return inner_->SendFrame(payload);
  }
  svc::RecvStatus RecvFrame(std::vector<uint8_t>* payload,
                            int timeout_ms) override {
    const svc::RecvStatus status = inner_->RecvFrame(payload, timeout_ms);
    if (status == svc::RecvStatus::kOk) {
      received_bytes_->Add(static_cast<double>(payload->size()));
    }
    return status;
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<svc::FrameConnection> inner_;
  Samples* received_bytes_;
};

// svc::Transport decorator: servers it creates time their handler,
// connections it opens count received bytes.
class TracingTransport final : public svc::Transport {
 public:
  TracingTransport(svc::Transport* inner, NodeTrace* trace)
      : inner_(inner), trace_(trace) {}

  std::unique_ptr<svc::FrameServer> NewServer(
      const std::string& endpoint) override {
    std::unique_ptr<svc::FrameServer> server = inner_->NewServer(endpoint);
    if (server == nullptr) return nullptr;
    return std::make_unique<TimedFrameServer>(std::move(server),
                                              &trace_->handler_s);
  }
  std::unique_ptr<svc::FrameConnection> Connect(const std::string& endpoint,
                                                int timeout_ms) override {
    std::unique_ptr<svc::FrameConnection> connection =
        inner_->Connect(endpoint, timeout_ms);
    if (connection == nullptr) return nullptr;
    return std::make_unique<CountingConnection>(std::move(connection),
                                                &trace_->received_bytes);
  }

 private:
  svc::Transport* inner_;
  NodeTrace* trace_;
};

// svc::ReportSink decorator timing every IngestBatch call.
class TimedSink final : public svc::ReportSink {
 public:
  TimedSink(svc::ReportSink* inner, Samples* out) : inner_(inner), out_(out) {}

  size_t IngestBatch(std::span<const wire::ReportMessage> reports) override {
    const Clock::time_point start = Clock::now();
    const size_t accepted = inner_->IngestBatch(reports);
    out_->Add(SecondsBetween(start, Clock::now()));
    return accepted;
  }

 private:
  svc::ReportSink* inner_;
  Samples* out_;
};

// Wraps a report-log callback to time each append; `out` null = as is.
inline svc::ReportLogFn TimedLog(svc::ReportLogFn fn, Samples* out) {
  if (out == nullptr) return fn;
  return [fn = std::move(fn), out](uint64_t key,
                                   std::span<const uint8_t> frame) {
    const Clock::time_point start = Clock::now();
    Status status = fn(key, frame);
    out->Add(SecondsBetween(start, Clock::now()));
    return status;
  };
}

// Wraps a checkpoint callback to time each checkpoint; `out` null = as is.
inline svc::CheckpointFn TimedCheckpoint(svc::CheckpointFn fn, Samples* out) {
  if (out == nullptr) return fn;
  return [fn = std::move(fn), out](std::span<const uint64_t> keys) {
    const Clock::time_point start = Clock::now();
    Status status = fn(keys);
    out->Add(SecondsBetween(start, Clock::now()));
    return status;
  };
}

// Wraps an after_drain hook to time each call and record the size of the
// drained-key window it receives; `trace` null = as is.
using DrainHook = std::function<void(std::span<const uint64_t>)>;
inline DrainHook TimedHook(DrainHook fn, NodeTrace* trace) {
  if (trace == nullptr) return fn;
  return [fn = std::move(fn), trace](std::span<const uint64_t> keys) {
    const Clock::time_point start = Clock::now();
    fn(keys);
    trace->hook_s.Add(SecondsBetween(start, Clock::now()));
    trace->hook_keys.Add(static_cast<double>(keys.size()));
  };
}

}  // namespace felip::perfbench

#endif  // FELIP_PERFBENCH_PROBES_H_
