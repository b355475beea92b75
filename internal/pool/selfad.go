package pool

// Daemon self-advertisement: every daemon periodically publishes a
// Machine-style classad describing its own health, so the pool
// monitors itself through its own matchmaking substrate — "All
// entities are represented with classads" (paper §4), the monitoring
// system included. The collector tracks Type == "Daemon" ads past
// expiry (collector.DaemonHealth), which is the absent-ad detection
// behind `cstatus -ha`: a daemon that stops advertising turns
// "missing" instead of silently vanishing.

import (
	"fmt"

	"repro/internal/classad"
	"repro/internal/obs"
)

// daemonAdLifetime is the validity of a manager-published self-ad in
// pool-clock seconds: short enough that a dead daemon is surfaced
// within a couple of negotiation periods, long enough to survive a
// slow cycle.
const daemonAdLifetime = 120

// DaemonAd builds the self-advertisement for one daemon: kind names
// the role ("collector", "negotiator", "ca", "ra"), name the instance.
// The ad carries the health signals a monitor needs to detect a
// wedged (not just dead) daemon: a digest of the metrics registry
// (unchanging digest = no activity), event/span ring totals and drop
// counts. Callers add role-specific attributes (LeaderEpoch,
// WALGeneration) before advertising.
func DaemonAd(kind, name string, o *obs.Obs) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString(classad.AttrType, "Daemon")
	ad.SetString(classad.AttrName, fmt.Sprintf("daemon/%s/%s", kind, name))
	ad.SetString("Daemon", kind)
	ad.SetString("MetricsDigest", o.Registry().Digest())
	ad.SetInt("EventsTotal", o.Events().Total())
	ad.SetInt("EventsDropped", o.Events().Dropped())
	ad.SetInt("SpansTotal", o.Spans().Total())
	ad.SetInt("SpansDropped", o.Spans().Dropped())
	return ad
}
