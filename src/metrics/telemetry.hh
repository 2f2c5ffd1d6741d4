/**
 * @file
 * Structured telemetry bus: the fan-out layer between the simulation /
 * governors and pluggable trace sinks.
 *
 * A `TraceBus` carries two kinds of records:
 *  - *samples*: one (series, time, value) point, the unit the classic
 *    `TraceRecorder` stores;
 *  - *events*: a named record at one timestamp with flat numeric and
 *    string fields (e.g. one "market_round" event per bid round with
 *    every task bid, core price and cluster freeze flag).
 *
 * Sinks decide the rendering: `MemorySink` appends samples to a
 * `TraceRecorder` (the historical in-memory behaviour), `CsvStreamSink`
 * streams narrow `time_s,series,value` rows, and `JsonlSink` writes one
 * JSON object per record.  A sink that does not override `event()`
 * receives each numeric field as an individual sample, so per-round
 * market telemetry reaches every sink format without emitters knowing
 * which sinks are attached.
 *
 * The bus also keeps cheap named counters and histograms (migrations,
 * V-F steps per cluster, bid-freeze epochs, allowance clamps, ...).
 *
 * Emitters resolve their names ONCE via `intern()` and then record
 * through the `SeriesId` handles: O(1) flat-vector access, no string
 * hashing, no allocation.  Reads may go by name (`counter(name)`,
 * `histogram(name)`, `counters()`, `histograms()`) for run footers
 * and tests.  Every recording entry point is zero-cost when no sink
 * is attached: emitters may guard expensive record construction with
 * `enabled()`, and the bus itself early-returns before touching any
 * storage.
 */

#ifndef PPM_METRICS_TELEMETRY_HH
#define PPM_METRICS_TELEMETRY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "metrics/recorder.hh"

namespace ppm::snap {
class Writer;
class Reader;
} // namespace ppm::snap

namespace ppm::metrics {

/**
 * Stable integer handle of a name interned on a TraceBus.  One id
 * space covers series, counters and histograms: interning the same
 * name twice yields the same id, and ids never change for the
 * lifetime of the bus (they survive flushes and sink changes).
 */
using SeriesId = std::int32_t;

/** A named record at one timestamp with flat numeric/string fields. */
struct TraceEvent {
    std::string type;  ///< Record kind, e.g. "market_round".
    SimTime time = 0;

    /** Numeric fields, in emission order. */
    std::vector<std::pair<std::string, double>> num;

    /** String fields (labels such as the chip state name). */
    std::vector<std::pair<std::string, std::string>> str;

    TraceEvent(std::string type_, SimTime time_)
        : type(std::move(type_)), time(time_)
    {
    }

    /** Append a numeric field; returns *this for chaining. */
    TraceEvent& set(std::string key, double value);

    /** Append a string field; returns *this for chaining. */
    TraceEvent& set(std::string key, std::string value);
};

/**
 * A reusable TraceEvent for periodic emitters: the first emission
 * builds the field keys, every following emission with the same
 * key sequence overwrites the values in place -- no allocation.
 *
 * Usage per emission: `begin(time)`, then one `num()` / `str()` call
 * per field in a stable order (keys must be pointers that are stable
 * across emissions: string literals or strings cached by the caller),
 * then `finish()` to get the event to pass to TraceBus::event().
 * A changed key sequence (e.g. a cluster dropping out of the epoch
 * report while power-gated) is detected per position and rebuilds the
 * tail, so correctness never depends on a stable layout -- only the
 * steady-state allocation count does.
 */
class EventScratch
{
  public:
    explicit EventScratch(std::string type);

    /** Start a (re)emission at `time`. */
    void begin(SimTime time);

    /** Emit the next numeric field. */
    EventScratch& num(const char* key, double value);

    /** Emit the next string field (value must be SSO-small to stay
     *  allocation-free; chip-state names and similar labels are). */
    EventScratch& str(const char* key, const char* value);

    /** Close the emission and return the event to fan out. */
    const TraceEvent& finish();

  private:
    TraceEvent event_;
    std::vector<const char*> num_keys_;  ///< Key identity per position.
    std::vector<const char*> str_keys_;
    std::size_t num_i_ = 0;
    std::size_t str_i_ = 0;
};

/** Destination for telemetry records. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Receive one sample. */
    virtual void sample(const std::string& series, SimTime time,
                        double value) = 0;

    /**
     * Receive one structured event.  The default rendering forwards
     * each numeric field as a sample named after the field, so sinks
     * without a structured format still see every per-round value.
     */
    virtual void event(const TraceEvent& e);

    /** Flush buffered output (no-op by default). */
    virtual void flush() {}

    /**
     * Whether the sink has hit an unrecoverable output error (e.g. a
     * full disk under a streaming sink).  Consumers that gate their
     * exit code on trace integrity check this after the run.
     */
    virtual bool failed() const { return false; }
};

/** Appends samples to a caller-owned TraceRecorder. */
class MemorySink : public TraceSink
{
  public:
    /** @param recorder Destination; must outlive the sink. */
    explicit MemorySink(TraceRecorder* recorder);

    void sample(const std::string& series, SimTime time,
                double value) override;

  private:
    TraceRecorder* recorder_;
};

/**
 * Streaming narrow CSV: a `time_s,series,value` header followed by one
 * row per sample, written as records arrive (constant memory).
 *
 * An output error (stream enters a failed state on write or flush) is
 * reported once on stderr, latches `failed()`, and silences further
 * writes; the simulation itself keeps running.
 */
class CsvStreamSink : public TraceSink
{
  public:
    /**
     * @param os Destination stream; must outlive the sink.
     * @param write_header Emit the `time_s,series,value` header row.
     *        A restored run resuming a trace file passes false so the
     *        concatenation of the pre-snapshot part and its own output
     *        equals the uninterrupted run's bytes.
     */
    explicit CsvStreamSink(std::ostream& os, bool write_header = true);

    void sample(const std::string& series, SimTime time,
                double value) override;
    void flush() override;
    bool failed() const override { return failed_; }

  private:
    /** Latch + warn once when the stream has gone bad. */
    void check_stream();

    std::ostream* os_;
    bool failed_ = false;
};

/**
 * JSONL event sink: one JSON object per line.  Samples render as
 * {"type":"sample","t_s":T,"series":S,"value":V}; events render as
 * {"type":E,"t_s":T,<field>:<value>,...} with every numeric and string
 * field inline.
 *
 * Output errors are handled like CsvStreamSink: one stderr warning,
 * `failed()` latches, further writes are dropped.
 */
class JsonlSink : public TraceSink
{
  public:
    /** @param os Destination stream; must outlive the sink. */
    explicit JsonlSink(std::ostream& os);

    void sample(const std::string& series, SimTime time,
                double value) override;
    void event(const TraceEvent& e) override;
    void flush() override;
    bool failed() const override { return failed_; }

  private:
    /** Latch + warn once when the stream has gone bad. */
    void check_stream();

    std::ostream* os_;
    bool failed_ = false;
};

/**
 * The telemetry fan-out point.  One bus per Simulation; each sweep
 * cell owns its bus, its sinks and their streams, so parallel cells
 * share no mutable telemetry state (the determinism audit in
 * experiment/sweep.hh extends to tracing).
 */
class TraceBus
{
  public:
    /** Attach a sink the bus takes ownership of. */
    void add_sink(std::unique_ptr<TraceSink> sink);

    /** Attach a caller-owned sink; it must outlive the bus. */
    void add_sink(TraceSink* sink);

    /** True when at least one sink is attached. */
    bool enabled() const { return !sinks_.empty(); }

    /**
     * Intern `name`, returning its stable id.  Idempotent: the same
     * name always maps to the same id.  Works whether or not a sink
     * is attached, so emitters can resolve handles at construction.
     */
    SeriesId intern(std::string_view name);

    /** The name interned as `id`. */
    const std::string& name_of(SeriesId id) const;

    /** Fan a sample out to every sink: O(1), allocation-free. */
    void sample(SeriesId series, SimTime time, double value);

    /** Bump counter `id` by `delta`: flat-vector access, no lookup. */
    void count(SeriesId id, long delta = 1);

    /** Feed histogram `id` one value: flat-vector access, no lookup. */
    void observe(SeriesId id, double value);

    /** Value of counter `id` (0 if never bumped). */
    long counter(SeriesId id) const;

    /** Histogram `id`, or nullptr if never observed. */
    const OnlineStats* histogram(SeriesId id) const;

    /** Fan an event out to every sink (no-op when disabled). */
    void event(const TraceEvent& e);

    // ---- Name-keyed reads (footers, tests) ----------------------------

    /** Value of counter `name` (0 if never bumped). */
    long counter(const std::string& name) const;

    /** All counters ever bumped, sorted by name. */
    std::map<std::string, long> counters() const;

    /** Histogram `name`, or nullptr if never observed. */
    const OnlineStats* histogram(const std::string& name) const;

    /** All histograms ever observed, sorted by name. */
    std::map<std::string, OnlineStats> histograms() const;

    /** Flush every sink. */
    void flush();

    /**
     * Serialize every touched counter and histogram as (name, value)
     * pairs -- except names under the "snapshot." prefix, which
     * describe snapshot I/O itself and must not leak into the restored
     * run (its bytes must equal the uninterrupted run's).  load()
     * re-interns by name, so id assignment order is irrelevant.  Sinks
     * are not serialized; the restoring caller re-attaches its own.
     */
    void save(snap::Writer& w) const;
    void load(snap::Reader& r);

  private:
    /** Grow the per-id storage to cover `id`. */
    void reserve_id(SeriesId id);

    std::vector<TraceSink*> sinks_;  ///< Fan-out list (owned + external).
    std::vector<std::unique_ptr<TraceSink>> owned_;

    // Interning: name -> id and id -> name.  std::less<> enables
    // lookups from string_view without a temporary string.
    std::map<std::string, SeriesId, std::less<>> index_;
    std::vector<std::string> names_;

    // Flat per-id storage.  `touched` distinguishes "interned but
    // never recorded" from a genuine zero so the map accessors list
    // exactly the names that were bumped/observed.
    std::vector<long> counter_vals_;
    std::vector<OnlineStats> hist_vals_;
    std::vector<unsigned char> counter_touched_;
    std::vector<unsigned char> hist_touched_;
};

} // namespace ppm::metrics

#endif // PPM_METRICS_TELEMETRY_HH
