package fixture

import (
	"ufsclust/internal/telemetry"
	"ufsclust/internal/vol"
)

// The volume layer is a model package like the drive beneath it.
func badVolumeCall(bus *telemetry.Bus, v *vol.Volume) {
	bus.Subscribe(func(ev telemetry.Event) {
		v.FailMember(int(ev.Depth))
	})
}
