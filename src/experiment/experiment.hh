/**
 * @file
 * One-call experiment runner: the highest-level public API.
 *
 * Wires a platform, a workload and a named policy ("PPM", "HPM" or
 * "HL") into a Simulation and runs it.  Used by the command-line
 * driver, the benchmark harnesses and downstream code that just wants
 * "run workload X under policy Y with TDP Z".
 */

#ifndef PPM_EXPERIMENT_EXPERIMENT_HH
#define PPM_EXPERIMENT_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "metrics/recorder.hh"
#include "metrics/telemetry.hh"
#include "sim/simulation.hh"
#include "workload/sets.hh"

namespace ppm {
class ThreadPool;
} // namespace ppm

namespace ppm::experiment {

/** Parameters of one policy run. */
struct RunParams {
    std::string policy = "PPM";       ///< "PPM", "HPM" or "HL".
    Watts tdp = 1e9;                  ///< TDP cap (1e9 = none).
    SimTime duration = 300 * kSecond; ///< Simulated time.
    std::uint64_t seed = 42;          ///< Workload phase seed.
    int priority = 1;                 ///< Priority for all tasks.
    bool trace = false;               ///< Record time series.
    bool online_speedup = false;      ///< PPM: learn speedups online.
    bool macro_step = true;           ///< Event-horizon time advance
                                      ///< (see SimConfig::macro_step);
                                      ///< false = per-tick loop.

    /**
     * Incremental active-set clearing (PpmConfig::incremental).
     * Results are bit-identical on or off; off recomputes every
     * entry each round (debugging escape hatch, `--no-incremental`).
     * Ignored by the baselines.
     */
    bool incremental = true;

    /**
     * Extra telemetry sink (streaming CSV/JSONL) attached to the
     * simulation's TraceBus for the duration of the run.  Not owned;
     * must outlive the run.  Single-run only: multi-seed aggregation
     * (run_set_avg, sweeps) would interleave cells into one stream,
     * so those paths reject a non-null sink.
     */
    metrics::TraceSink* extra_sink = nullptr;

    /**
     * Fault-injection spec; faults.any() == false (the default) runs
     * a perfect platform.  Compiled into a deterministic FaultPlan
     * against the chip topology and run duration at run time.
     */
    fault::FaultSpec faults;
};

/** Result of one run: summary plus optional traces. */
struct RunResult {
    sim::RunSummary summary;
    metrics::TraceRecorder traces;
    /**
     * Host wall-clock seconds spent simulating this cell.  Diagnostic
     * only: it depends on machine load, so deterministic consumers
     * (the sweep reductions, the bench tables) must not print it into
     * their comparable output.
     */
    double wall_seconds = 0.0;
};

/**
 * Build the governor `policy` with TDP `tdp`.  `big_speedups` feeds
 * PPM's cross-core-type demand estimator (empty = defaults); ignored
 * by the baselines.  fatal() on an unknown policy name.
 *
 * The unnamed `int` and `ThreadPool*` parameters are ignored.  They
 * stay only because the repo benchmark (perfbench/src/workloads.cc)
 * still passes them, and they go when that caller next changes.
 */
std::unique_ptr<sim::Governor>
make_governor(const std::string& policy, Watts tdp,
              const std::vector<double>& big_speedups,
              bool online_speedup = false, int = 1,
              ThreadPool* = nullptr, bool incremental = true);

/**
 * Each member's big-cluster speedup, in member order: the input of
 * PPM's cross-core-type demand estimator for `set`.
 */
std::vector<double> set_speedups(const workload::WorkloadSet& set);

/**
 * The simulation run_set() runs: `set` instantiated with
 * `params.seed` on a fresh TC2-like chip under `params.policy`, with
 * every other RunParams knob applied and `params.extra_sink` attached.
 * For callers that drive the run themselves (snapshots).
 */
std::unique_ptr<sim::Simulation>
make_simulation(const workload::WorkloadSet& set, const RunParams& params);

/** Run one of the paper's Table 6 sets on a fresh TC2-like chip. */
RunResult run_set(const workload::WorkloadSet& set,
                  const RunParams& params);

/**
 * Seed of cell `index` on a multi-seed axis with base seed `base` and
 * spacing key `stride`.  Derived through mix64 (bijective), so
 * distinct indices can never share an RNG stream -- unlike the
 * historical `base + index * stride`, which collapsed the whole axis
 * onto one seed at stride 0 and could alias cells when
 * `index * stride` overflowed.  panic()s on stride == 0 or a negative
 * index.
 */
std::uint64_t cell_seed(std::uint64_t base, std::uint64_t stride,
                        int index);

/**
 * Reduce per-seed summaries into one cross-seed summary: each field
 * combines by its RunSummary::fields kind (sim::Combine) -- rates and
 * totals are seed means (a long total is summed, divided and
 * truncated), peaks the max over seeds, task vectors element-wise
 * means, and the label the first seed's.  Defined beside the fleet's
 * chip combine in sim/summary.cc.  panic()s on an empty input or
 * mismatched task counts.
 */
using sim::aggregate_summaries;

/**
 * Run `set` `n_seeds` times (seed i = cell_seed(params.seed, 100, i))
 * and return the aggregate_summaries() reduction of the per-seed
 * runs.  Seeds run in parallel on up to `jobs` workers (0 = one per
 * hardware thread); the result is identical for every `jobs` value.
 */
sim::RunSummary run_set_avg(const workload::WorkloadSet& set,
                            RunParams params, int n_seeds = 3,
                            int jobs = 0, ThreadPool* pool = nullptr);

} // namespace ppm::experiment

#endif // PPM_EXPERIMENT_EXPERIMENT_HH
