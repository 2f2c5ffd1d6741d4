/**
 * @file
 * The benchmark's four workloads, built only from the libraries'
 * public API.  Each workload is a fixed list of operations ("ops")
 * derived from the seed; ppm_perfbench cycles through them.  An op runs
 * either plain or with the decorators of probe.hh attached, and
 * returns a digest of every simulated output it produced so the
 * benchmark can check it against the recorded value.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.hh"
#include "sim/governor.hh"

namespace perfbench {

/** What one op produced and what it cost. */
struct OpResult {
    std::string key;         ///< Stable name of the op's input.
    std::string digest;      ///< Hash of every checked output.
    std::string policy;      ///< Governor of the run.
    double sim_s = 0;        ///< Simulated (chip-)seconds advanced.
    double setup_s = 0;      ///< Construction wall time before the first tick.
    double run_s = 0;        ///< Stepping wall time; checkpoints and
                             ///< restores excluded.
    bool checks_ok = true;   ///< In-run checks passed: snapshot round
                             ///< trips, sink health.
    std::string note;        ///< Which in-run check failed.
    double any_below_miss = 0; ///< Paper Fig. 6 metric of a single run.
};

/** Wall-time samples taken on every op, decorated or not. */
struct Timings {
    std::vector<double> epoch_ms;       ///< Fleet::run_epoch.
    std::vector<double> checkpoint_ms;  ///< Fleet::save + finalize.
    std::vector<double> restore_ms;     ///< Fresh Fleet + open + load.
};

/** Per-layer aggregates over the decorated ops of one process. */
struct Layers {
    double run_s = 0;          ///< Wall time inside run()/run_epoch().
    double lane_s = 0;         ///< run_s times the workers stepping
                               ///< shards: the denominator of shares.
    double sim_self_s = 0;     ///< Stepping time outside governor and sink.
    long ticks = 0;            ///< Simulated ticks, stepped + replayed.
    long replay_intervals = 0; ///< replay_quiescent() calls.
    long replayed_ticks = 0;   ///< Sum of their n.

    double market_s = 0;       ///< PPM ticks on which rounds advanced.
    long market_ticks = 0;
    Histogram round_ns;        ///< Per-round time on those ticks.
    ppm::sim::ClearingStats clearing; ///< Summed over ops.

    double baselines_s = 0;    ///< HPM/HL tick time.
    long baseline_calls = 0;   ///< HPM/HL tick() calls.

    double sink_s = 0;         ///< Time inside the JSONL sink.
    long records = 0;          ///< Records the sink received.
    long bytes = 0;            ///< Bytes it rendered.

    Histogram dispatch_ns;     ///< run_epoch entry -> first callback.
    Histogram tail_ns;         ///< Last callback -> run_epoch return.
    double tail_s = 0;         ///< Sum of the tails.
    std::vector<double> imbalance; ///< Per epoch: max/mean chip busy.
    std::vector<double> lanes;     ///< Per epoch: distinct workers.

    long snapshot_bytes = 0;   ///< Size of the last checkpoint.
    double save_s = 0;         ///< Fleet::save + finalize.
    double save_bytes = 0;
    double load_s = 0;         ///< Reader::open + Fleet::load.
    double load_bytes = 0;

    SpanLog spans;

    /** Fold one decorated governor's totals in. */
    void add_governor(const GovernorProbe& p, bool market);
};

/** Inputs shared by every workload. */
struct Config {
    std::uint64_t seed = 1;
    int fleet_jobs = 1;       ///< Worker threads stepping fleet shards.
    double time_scale = 1.0;  ///< < 1 shortens manycore/fleet/traced
                              ///< runs (the self-test's short runs).
};

/** One workload: a fixed cycle of ops derived from the seed. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Number of distinct ops; a round runs each once, in order. */
    virtual int ops() const = 0;

    /**
     * Run op `i`.  With `layers` non-null the decorators are attached
     * and their aggregates folded into it.  `t` collects wall times.
     */
    virtual OpResult run(int i, Layers* layers, Timings* t) = 0;
};

/** Build workload `name`; null for an unknown name. */
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
