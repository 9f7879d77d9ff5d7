// Process-wide metrics registry and profiling spans.
//
// EAGLE's headline result is a time-to-solution curve (Figs. 5/6), so the
// trainer has to be able to report its *own* wall-clock honestly: retry
// churn, eval-latency distribution, thread-pool occupancy and where each
// training round spends its time. This module is the single sink for all
// of that:
//
//   - Counter    monotonically increasing int64 (lock-free increments)
//   - Gauge      last-set double (e.g. worker occupancy of the last batch)
//   - Histogram  fixed-bucket latency distribution (count/sum/min/max plus
//                per-bucket counts; quantiles are interpolated from the
//                buckets, Prometheus-style)
//   - ScopedSpan RAII wall-clock timer. Always observes a histogram named
//                "span.<name>"; when profiling is enabled it additionally
//                records a SpanRecord that WriteProfile() exports in the
//                Chrome-trace event format sim::ToChromeTrace uses, so a
//                trainer profile and a schedule trace open in the same
//                Perfetto UI.
//
// Determinism contract: metrics are *observers*. Nothing in this module
// may ever be read back into RNG streams, eval results, checkpoint bytes
// or any other training state — a run with metrics/profiling enabled is
// bit-identical to one without (test_metrics proves it). Wall-clock reads
// are confined to src/support and the telemetry sinks by eagle-lint rule
// WC01; hot-path code times itself through ScopedSpan, never through a
// raw support::Stopwatch.
//
// Thread safety: every entry point is safe to call concurrently. Counter
// increments are atomic; histogram/gauge updates and name lookups take a
// registry mutex (cheap relative to the evaluations being measured).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace eagle::support::metrics {

class Counter {
 public:
  void Increment(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Cumulative histogram state at one point in time. `counts[i]` is the
// number of observations <= bounds[i]; counts.back() (one past the last
// bound) is the overflow bucket.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::int64_t> counts;
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  // Interpolated quantile (q in [0,1]) from the bucket counts, clamped to
  // [min, max]. NaN when the histogram is empty.
  double Quantile(double q) const;
  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

class Histogram {
 public:
  void Observe(double value);
  HistogramSnapshot Snapshot() const;

 private:
  friend Histogram* GetHistogram(const std::string&,
                                 const std::vector<double>&);
  explicit Histogram(std::vector<double> bounds);

  mutable std::mutex mutex_;
  std::vector<double> bounds_;          // ascending upper bounds
  std::vector<std::int64_t> counts_;    // bounds_.size() + 1 (overflow)
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Log-spaced 1-2-5 latency buckets from 1 µs to 500 s — the default for
// every span/latency histogram.
const std::vector<double>& DefaultLatencyBuckets();

// Registry lookups: register-on-first-use, stable pointers for the
// process lifetime. A histogram's bucket bounds are fixed by its first
// registration; later callers get the existing instance.
Counter* GetCounter(const std::string& name);
Gauge* GetGauge(const std::string& name);
Histogram* GetHistogram(
    const std::string& name,
    const std::vector<double>& bounds = DefaultLatencyBuckets());

// Deterministically ordered (sorted by name) copy of every registered
// metric. Snapshots are value types: diffing two of them yields the
// per-round deltas the JSONL telemetry emits.
struct Snapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // Counter / histogram-count deltas relative to an earlier snapshot
  // (entries absent earlier count from zero; zero-delta entries are
  // dropped). Gauges and histogram min/max carry the later absolute
  // values.
  Snapshot DeltaSince(const Snapshot& earlier) const;
};
Snapshot TakeSnapshot();

// Drops every registered metric and recorded span. Tests only — handles
// returned by Get* before the reset dangle afterwards.
void ResetForTest();

// ---------------------------------------------------------------------------
// Profiling spans.

// Seconds since the process-wide epoch (first call wins). All spans, log
// timestamps and queue-wait measurements share this clock.
double NowSeconds();

// Small dense id for the calling thread ("T0" is whichever thread tagged
// itself first — normally main). Shared with the log prefix so profiler
// rows and interleaved log lines attribute to the same worker.
int CurrentThreadTag();

struct SpanRecord {
  std::string name;        // "train.update", "eval.ticket", ...
  int thread_tag = 0;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

// Span recording is off by default (counters/histograms stay live); the
// bench layer enables it when --profile-out is set. The record buffer is
// capped; overflow increments the "metrics.spans_dropped" counter rather
// than growing without bound.
void EnableProfiling(bool enabled);
bool ProfilingEnabled();
std::vector<SpanRecord> SnapshotSpans();

// RAII phase timer. The histogram "span.<name>" is always observed; a
// SpanRecord is kept only while profiling is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  double start_seconds_;
};

// Chrome-trace JSON ("traceEvents" of ph:"X" slices — the same event
// shape as sim::ToChromeTrace, so both open in Perfetto). tid is the
// thread tag; pid 0 names itself "trainer" via a metadata event.
std::string SpansToChromeTrace(const std::vector<SpanRecord>& spans);

// Writes the current span buffer as Chrome-trace JSON via
// support::WriteFileAtomic. Returns false (after logging) on I/O failure.
bool WriteProfile(const std::string& path);

}  // namespace eagle::support::metrics

// Phase-span convenience: EAGLE_SPAN("train.update") times the enclosing
// scope into the histogram "span.train.update" (and the profile, when
// enabled).
#define EAGLE_SPAN_CONCAT_IMPL(a, b) a##b
#define EAGLE_SPAN_CONCAT(a, b) EAGLE_SPAN_CONCAT_IMPL(a, b)
#define EAGLE_SPAN(name)                  \
  ::eagle::support::metrics::ScopedSpan \
  EAGLE_SPAN_CONCAT(eagle_span_, __LINE__)(name)
