/**
 * @file
 * Snapshot field lists of the common statistics primitives.  Lives in
 * the snapshot library (not ppm_common) so the common library keeps
 * zero dependency on the archive code.
 */

#include "common/stats.hh"
#include "snapshot/archive.hh"

namespace ppm {

template <class A, class Self>
void
OnlineStats::fields(A& a, Self& self)
{
    a(self.n_, self.mean_, self.m2_, self.min_, self.max_, self.sum_);
}

template void OnlineStats::fields(snap::Writer&, const OnlineStats&);
template void OnlineStats::fields(snap::Reader&, OnlineStats&);

template <class A, class Self>
void
DutyCycle::fields(A& a, Self& self)
{
    a(self.total_, self.true_);
}

template void DutyCycle::fields(snap::Writer&, const DutyCycle&);
template void DutyCycle::fields(snap::Reader&, DutyCycle&);

template <class A, class Self>
void
WindowRate::fields(A& a, Self& self)
{
    std::size_t capacity = self.ring_.size();
    a(self.window_, capacity, self.runs_);
    a.check(self.runs_ <= capacity,
            "snapshot mismatch: more window runs than ring slots");
    a.check((capacity & (capacity - 1)) == 0,
            "snapshot mismatch: window ring capacity is not a power "
            "of two");
    // The live runs travel in FIFO order, not ring order: loading
    // re-linearises them from head 0 of a ring of the saved capacity.
    if constexpr (A::loading) {
        self.ring_.assign(capacity, Run{});
        self.head_ = 0;
    }
    for (std::size_t i = 0; i < self.runs_; ++i) {
        auto& run = self.ring_[(self.head_ + i) & (capacity - 1)];
        a(run.first, run.stride, run.n, run.count);
    }
    a(self.count_, self.window_sum_);
}

template void WindowRate::fields(snap::Writer&, const WindowRate&);
template void WindowRate::fields(snap::Reader&, WindowRate&);

} // namespace ppm
