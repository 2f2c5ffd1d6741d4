/**
 * @file
 * Snapshot field lists of the metrics layer: counters/histograms by
 * name, recorded series, and QoS duty cycles.
 */

#include <string_view>

#include "metrics/qos.hh"
#include "metrics/recorder.hh"
#include "metrics/telemetry.hh"
#include "snapshot/archive.hh"

namespace ppm::metrics {
namespace {

/** Counter/histogram names describing snapshot I/O itself. */
bool
is_snapshot_meta(std::string_view name)
{
    return name.substr(0, 9) == "snapshot.";
}

} // namespace

template <class A, class Self>
void
TraceBus::fields(A& a, Self& self)
{
    // Touched counters, then touched histograms, as a count and
    // (name, value) pairs, minus the snapshot.* meta-series.  Loading
    // re-interns each name, so the two processes may number their
    // series differently.
    const auto section = [&a, &self](auto& touched, auto& vals) {
        if constexpr (A::loading) {
            std::uint64_t n = 0;
            a(n);
            for (; n > 0; --n) {
                std::string name;
                a(name);
                const SeriesId id = self.intern(name);
                self.reserve_id(id);
                const auto i = static_cast<std::size_t>(id);
                a(vals[i]);
                touched[i] = 1;
            }
        } else {
            const auto kept = [&](std::size_t i) {
                return i < touched.size() && touched[i] &&
                       !is_snapshot_meta(self.names_[i]);
            };
            std::uint64_t n = 0;
            for (std::size_t i = 0; i < self.names_.size(); ++i)
                n += kept(i) ? 1 : 0;
            a(n);
            for (std::size_t i = 0; i < self.names_.size(); ++i) {
                if (kept(i))
                    a(self.names_[i], vals[i]);
            }
        }
    };
    section(self.counter_touched_, self.counter_vals_);
    section(self.hist_touched_, self.hist_vals_);
}

template void TraceBus::fields(snap::Writer&, const TraceBus&);
template void TraceBus::fields(snap::Reader&, TraceBus&);

template <class A, class S>
void
Sample::fields(A& a, S& s)
{
    a(s.time, s.value);
}

template <class A, class Self>
void
TraceRecorder::fields(A& a, Self& self)
{
    // A count and (name, samples) pairs in name order; loading
    // rebuilds the map from them.
    std::uint64_t n = self.series_.size();
    a(n);
    if constexpr (A::loading) {
        self.series_.clear();
        for (; n > 0; --n) {
            std::string name;
            a(name);
            a(self.series_[name]);
        }
    } else {
        for (const auto& [name, samples] : self.series_)
            a(name, samples);
    }
}

template void TraceRecorder::fields(snap::Writer&, const TraceRecorder&);
template void TraceRecorder::fields(snap::Reader&, TraceRecorder&);

template <class A, class Self>
void
QosTracker::fields(A& a, Self& self)
{
    a.same_size(self.below_, "snapshot mismatch: QoS task count differs "
                             "(admission replay incomplete?)");
    for (auto& d : self.outside_)
        a(d);
    a(self.any_below_, self.any_outside_);
}

template void QosTracker::fields(snap::Writer&, const QosTracker&);
template void QosTracker::fields(snap::Reader&, QosTracker&);

} // namespace ppm::metrics
