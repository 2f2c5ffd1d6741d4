/**
 * @file
 * Snapshot field lists of the hardware layer's dynamic state.
 * Topology (clusters, cores, V-F tables, thermal parameters) is never
 * serialized: the restoring process rebuilds it from the same
 * configuration and only the mutable fields are overwritten.
 */

#include "hw/platform.hh"
#include "hw/sensors.hh"
#include "hw/thermal.hh"
#include "snapshot/archive.hh"

namespace ppm::hw {

template <class A, class Self>
void
Cluster::fields(A& a, Self& self)
{
    a(self.level_, self.powered_);
}

template void Cluster::fields(snap::Writer&, const Cluster&);
template void Cluster::fields(snap::Reader&, Cluster&);

template <class A, class Self>
void
Chip::fields(A& a, Self& self)
{
    a.same_size(self.clusters_,
                "snapshot topology mismatch: cluster count differs");
    a(self.core_online_);
    a.check(self.core_online_.size() == self.cores_.size(),
            "snapshot topology mismatch: core count differs");
}

template void Chip::fields(snap::Writer&, const Chip&);
template void Chip::fields(snap::Reader&, Chip&);

template <class A, class Self>
void
SensorBank::fields(A& a, Self& self)
{
    a(self.instantaneous_, self.energy_, self.energy_at_mark_,
      self.elapsed_, self.elapsed_at_mark_);
}

template void SensorBank::fields(snap::Writer&, const SensorBank&);
template void SensorBank::fields(snap::Reader&, SensorBank&);

template <class A, class Self>
void
ThermalModel::fields(A& a, Self& self)
{
    a(self.temp_, self.peak_, self.cycle_ref_, self.rising_,
      self.cycle_threshold_, self.cycles_);
}

template void ThermalModel::fields(snap::Writer&, const ThermalModel&);
template void ThermalModel::fields(snap::Reader&, ThermalModel&);

} // namespace ppm::hw
