/**
 * @file
 * Named time-series recorder used to regenerate the paper's
 * time-series figures (7 and 8) and to dump power traces.
 */

#ifndef PPM_METRICS_RECORDER_HH
#define PPM_METRICS_RECORDER_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ppm::snap {
class Writer;
class Reader;
} // namespace ppm::snap

namespace ppm::metrics {

/** One (time, value) sample. */
struct Sample {
    SimTime time;
    double value;

    template <class A, class S> static void fields(A& a, S& s);
};

/** Collects named time series and renders them as CSV or summaries. */
class TraceRecorder
{
  public:
    /** Append a sample to series `name`. */
    void record(const std::string& name, SimTime time, double value);

    /** All samples of series `name` (empty if unknown). */
    const std::vector<Sample>& series(const std::string& name) const;

    /** Names of all recorded series, sorted. */
    std::vector<std::string> names() const;

    /**
     * Write all series as a wide CSV: a time column (seconds) followed
     * by one column per series.  Series are sampled on the union of
     * timestamps; missing points are left empty.
     */
    void write_csv(std::ostream& os) const;

    /** Mean of series `name` over samples with time >= `from`. */
    double mean_after(const std::string& name, SimTime from) const;

    void save(snap::Writer& w) const { fields(w, *this); }
    void load(snap::Reader& r) { fields(r, *this); }

  private:
    template <class A, class Self> static void fields(A& a, Self& self);

    std::map<std::string, std::vector<Sample>> series_;
};

} // namespace ppm::metrics

#endif // PPM_METRICS_RECORDER_HH
