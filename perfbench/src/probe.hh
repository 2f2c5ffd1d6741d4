/**
 * @file
 * Measurement seams of the benchmark: transparent decorators around
 * the libraries' public extension points, plus the in-memory
 * aggregates they feed.
 *
 * Nothing here changes what the simulation computes.  TimedGovernor
 * and TimedSink forward every virtual to the wrapped object and only
 * read a steady clock around the calls; the self-test proves that
 * decorated and undecorated runs give identical fingerprints and
 * trace bytes.  Per-call timings are folded into counts, busy time
 * and log-bucketed histograms; only coarse spans (run, fleet epoch,
 * shard-epoch lane, checkpoint, restore) are kept individually.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "metrics/telemetry.hh"
#include "sim/governor.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds between two steady-clock points. */
inline double
ns_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Seconds between two steady-clock points. */
inline double
s_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * Log-bucketed histogram of non-negative values: eight buckets per
 * power of two (about 9% wide), quantiles interpolated inside the
 * bucket.  Constant memory however many values are added.
 */
class Histogram
{
  public:
    void add(double v);
    void merge(const Histogram& o);

    /** The q-quantile (0 <= q <= 1); 0 when empty. */
    double quantile(double q) const;

  private:
    static constexpr int kPerOctave = 8;
    static constexpr int kBuckets = 64 * kPerOctave;
    std::array<long, kBuckets> counts_{};
    long n_ = 0;
};

/** Exact quantile of `v` (sorted copy, linear interpolation); 0 when
 *  empty. */
double quantile(std::vector<double> v, double q);

/** Median of `v`; 0 when empty. */
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Call accounting of one decorated governor.  Each decorator owns its
 * probe; a fleet shard's governor is called from one worker at a
 * time and the control thread reads the probe only between epochs,
 * after the pool's futures have synchronised with the workers.
 */
struct GovernorProbe {
    long ticks = 0;          ///< tick() calls.
    double tick_ns = 0;      ///< Self time inside tick().
    long replay_calls = 0;   ///< replay_quiescent() calls.
    long replayed_ticks = 0; ///< Sum of their n.
    double replay_ns = 0;    ///< Self time inside replay_quiescent().

    long market_ticks = 0;   ///< Ticks on which clearing rounds advanced.
    double market_ns = 0;    ///< Self time of those ticks.
    Histogram round_ns;      ///< Per-round time on those ticks.

    // Window of the current fleet epoch (reset by the control thread).
    bool touched = false;
    Clock::time_point first{}; ///< Start of the epoch's first callback.
    Clock::time_point last{};  ///< End of the epoch's last callback.
    double epoch_busy_ns = 0;  ///< tick + replay time this epoch.
    std::thread::id thread{};  ///< Worker that ran the callbacks.

    void reset_epoch()
    {
        touched = false;
        epoch_busy_ns = 0;
    }
};

/**
 * Forwarding sim::Governor decorator.  Every virtual goes to the
 * wrapped governor; tick() and replay_quiescent() are timed.  Time a
 * TimedSink spends inside one of those calls (governors emit
 * telemetry from tick()) is charged to the sink, not the governor.
 */
class TimedGovernor final : public ppm::sim::Governor
{
  public:
    explicit TimedGovernor(std::unique_ptr<ppm::sim::Governor> inner);

    std::string name() const override { return inner_->name(); }
    void init(ppm::sim::Simulation& sim) override;
    void tick(ppm::sim::Simulation& sim, ppm::SimTime now,
              ppm::SimTime dt) override;
    ppm::SimTime next_wake(ppm::SimTime now) const override
    {
        return inner_->next_wake(now);
    }
    bool quiescent(const ppm::sim::Simulation& sim) const override
    {
        return inner_->quiescent(sim);
    }
    bool quiescent_at_power(ppm::Watts chip_power) const override
    {
        return inner_->quiescent_at_power(chip_power);
    }
    void replay_quiescent(const ppm::sim::Simulation& sim,
                          const std::vector<ppm::Watts>& cluster_power,
                          long n) override;
    void set_power_budget(ppm::Watts w_tdp) override
    {
        inner_->set_power_budget(w_tdp);
    }
    double power_deficit() const override
    {
        return inner_->power_deficit();
    }
    void task_admitted(ppm::sim::Simulation& sim, ppm::TaskId id,
                       double big_speedup) override
    {
        inner_->task_admitted(sim, id, big_speedup);
    }
    ppm::sim::ClearingStats clearing_stats() const override
    {
        return inner_->clearing_stats();
    }
    ppm::sim::AdmitReject admission_check() const override
    {
        return inner_->admission_check();
    }
    void save(ppm::snap::Writer& w) const override { inner_->save(w); }
    void load(ppm::snap::Reader& r) override;

    GovernorProbe& probe() { return probe_; }
    const GovernorProbe& probe() const { return probe_; }

  private:
    /** Open or extend the current epoch window around one call. */
    void note_call(Clock::time_point t0, Clock::time_point t1,
                   double self_ns);

    std::unique_ptr<ppm::sim::Governor> inner_;
    GovernorProbe probe_;
    long last_rounds_ = 0;  ///< clearing_stats().rounds after the last tick.
};

/** Call accounting of one decorated sink. */
struct SinkProbe {
    long records = 0;  ///< sample() + event() calls.
    double ns = 0;     ///< Busy time in sample/event/flush.
};

/** Forwarding metrics::TraceSink decorator; times every call. */
class TimedSink final : public ppm::metrics::TraceSink
{
  public:
    explicit TimedSink(ppm::metrics::TraceSink* inner) : inner_(inner) {}

    void sample(const std::string& series, ppm::SimTime time,
                double value) override;
    void event(const ppm::metrics::TraceEvent& e) override;
    void flush() override;
    bool failed() const override { return inner_->failed(); }

    const SinkProbe& probe() const { return probe_; }

  private:
    ppm::metrics::TraceSink* inner_;
    SinkProbe probe_;
};

/**
 * Output buffer that discards what it is given after counting and
 * hashing it, so trace runs measure rendering and not the disk.  The
 * hash runs over whole 64 KiB blocks plus the final tail, so it
 * depends only on the byte stream, never on where flushes fell.
 */
class CountingBuf final : public std::streambuf
{
  public:
    CountingBuf();

    /** Bytes written so far. */
    std::uint64_t bytes() const;

    /** Hash of every byte written so far (consumes nothing). */
    std::uint64_t digest() const;

  protected:
    int_type overflow(int_type c) override;

  private:
    static constexpr std::size_t kBlock = 64 * 1024;
    std::vector<char> buf_;
    std::uint64_t hash_ = 0x84222325cbf29ce4ULL;
    std::uint64_t consumed_ = 0;
};

/**
 * Host speed gauge.  Shared hosts drift by 10-30% over tens of
 * seconds as other tenants come and go, and that drift moves every
 * wall-clock figure of a run together.  A fixed kernel that uses
 * nothing from the libraries is timed between ops; the median of its
 * times says how fast the host ran during the run, and scaling wall
 * times by kReferenceMs / median yields host-calibrated times that
 * stay comparable across runs.  With more
 * than one thread the kernel runs on each at once and the slowest
 * counts, as the slowest worker sets the pace of a fleet epoch.
 */
class HostSpeed
{
  public:
    explicit HostSpeed(int threads) : threads_(threads) {}

    /** The kernel's nominal time: calibrated times are expressed on a
     *  host that runs it in exactly this long. */
    static constexpr double kReferenceMs = 1.0;

    /** Time one run of the kernel. */
    void sample();

    /** Median kernel time in ms of the samples from index `from` on;
     *  kReferenceMs when there are none. */
    double median_ms(std::size_t from = 0) const;

    /** Samples taken so far. */
    std::size_t samples() const { return ms_.size(); }

    /** Wall seconds -> host-calibrated seconds. */
    double calibrate(double wall_s) const
    {
        return wall_s * kReferenceMs / median_ms();
    }

  private:
    int threads_;
    std::vector<double> ms_;
};

/** FNV-1a 64 of `s`. */
std::uint64_t fnv1a(const std::string& s);

/** 16 lower-case hex digits. */
std::string hex64(std::uint64_t v);

/** One coarse span; the log keeps them in memory until the end. */
struct Span {
    const char* name = "";
    long id = 0;
    long parent = -1;  ///< -1 = root.
    double start_us = 0;
    double end_us = 0;
    long arg = 0;      ///< Span-specific: op index, epoch or lane size.
};

/** In-memory span log, written out as JSONL once the run ends. */
class SpanLog
{
  public:
    SpanLog() : t0_(Clock::now()) {}

    /** Open a span; returns its id for end() and for children. */
    long begin(const char* name, long parent, Clock::time_point start,
               long arg = 0);

    /** Close span `id`. */
    void end(long id, Clock::time_point end);

    /** Record a finished span; returns its id. */
    long add(const char* name, long parent, Clock::time_point start,
             Clock::time_point end, long arg = 0)
    {
        const long id = begin(name, parent, start, arg);
        this->end(id, end);
        return id;
    }

    /** Write one JSON object per span; false on I/O failure. */
    bool write(const std::string& path) const;

  private:
    Clock::time_point t0_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
